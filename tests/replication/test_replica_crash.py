"""Fault-tolerant SNOW: verdicts measured *through* a replica outage.

The acceptance experiment of the placement layer: with replication factor 3
and majority quorums, fail-stopping one replica mid-run must not cost
availability — every read and write completes on the surviving quorum — and
the SNOW / Lemma-20 verdicts must match the fault-free run.  At replication
factor 1 the same crash kills the only copy, which is what the seed's fault
experiments showed; the contrast is the point.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis import run_suite, suite_rows
from repro.analysis.sweep import REPLICATION
from repro.faults import ChaosScheduler, FaultInjector, FaultPlan
from repro.faults.plan import CrashEvent
from repro.ioa import FIFOScheduler

from tests.replication.conftest import run_fixed_workload

QUORUM_PROTOCOLS = ("algorithm-a", "algorithm-b", "algorithm-c")


def crash_plan(server: str, at: int = 4, seed: int = 3) -> FaultPlan:
    return FaultPlan(
        name="crash-replica",
        crashes=(CrashEvent(server=server, at=at, recover=None),),
        seed=seed,
    )


def run_with_crash(protocol: str, server=None, replication_factor: int = 3):
    return run_fixed_workload(
        protocol,
        scheduler=ChaosScheduler(base=FIFOScheduler()),
        replication_factor=replication_factor,
        quorum="majority" if replication_factor > 1 else "read-one-write-all",
        plan=crash_plan(server) if server is not None else None,
        run_to_completion=False,
    )


@pytest.mark.parametrize("protocol", QUORUM_PROTOCOLS)
def test_crashed_replica_costs_nothing_at_rf3(protocol):
    baseline = run_with_crash(protocol, server=None)
    crashed = run_with_crash(protocol, server="sx.3")

    # Availability: every transaction completed despite the dead replica.
    assert not crashed.simulation.incomplete_transactions()

    # Same SNOW verdict as the fault-free run.
    assert (
        crashed.snow_report().property_string()
        == baseline.snow_report().property_string()
    )

    # Same Lemma-20 verdict (tags still form a valid serialization order).
    assert baseline.lemma20().ok and crashed.lemma20().ok

    # And the same values were read.
    def read_results(handle):
        return {
            str(r.txn_id): r.result
            for r in handle.simulation.transaction_records()
            if str(r.txn_id).startswith("R")
        }

    assert read_results(crashed) == read_results(baseline)


@pytest.mark.parametrize("protocol", QUORUM_PROTOCOLS)
def test_same_crash_kills_the_single_copy_at_rf1(protocol):
    """The contrast cell: at rf=1 the crashed server was the only copy."""
    crashed = run_fixed_workload(
        protocol,
        scheduler=ChaosScheduler(base=FIFOScheduler()),
        replication_factor=1,
        plan=crash_plan("sx"),
        run_to_completion=False,
    )
    assert crashed.simulation.incomplete_transactions()


def test_algorithm_a_survives_even_a_primary_crash():
    """Algorithm A's metadata lives at the reader, so any replica may die."""
    crashed = run_with_crash("algorithm-a", server="sx")
    assert not crashed.simulation.incomplete_transactions()
    assert crashed.snow_report().property_string() == "SNOW"


def test_replication_sweep_grid_shape_and_story():
    """The sweep emits machine-readable rf × scenario rows with the story."""
    suite = replace(
        REPLICATION,
        protocols=("algorithm-b",),
        axes={**REPLICATION.axes, "replication_factor": (1, 3)},
    )
    rows = suite_rows(run_suite(suite))
    cells = {(r["replication_factor"], r["scenario"]): r for r in rows}
    assert set(cells) == {(1, "none"), (1, "crash-replica"), (3, "none"), (3, "crash-replica")}
    assert cells[(1, "crash-replica")]["availability"] < 1.0
    assert cells[(3, "crash-replica")]["availability"] == 1.0
    assert cells[(3, "crash-replica")]["snow"] == cells[(3, "none")]["snow"]
    assert cells[(3, "crash-replica")]["read_quorum"] == 2
