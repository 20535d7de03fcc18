"""Reconfiguration-under-chaos grids (ROADMAP open item).

The PR 4 grids reconfigure under a single crash; this grid crosses the
membership machinery with the drop/partition library: the replace-dead,
grow and shrink scenarios run under a lossy network (transport
retransmission healing fair loss) across the protocol families and a seed set, with the shared
safety invariants asserted per cell.

``CHAOS_GRID_SEEDS`` (env) widens the seed set — the nightly CI chaos-grid
job runs with 20 seeds, PRs with the default 3 — so schedule-space coverage
scales without editing the grid.
"""

from __future__ import annotations

import os

import pytest

from repro.consensus.reconfig import ReconfigPlan, set_replica_group
from repro.faults import (
    ChaosScheduler,
    grow_group_mid_run,
    replace_dead_replica,
)
from repro.faults.plan import CrashEvent, DropPolicy, FaultPlan, RetryPolicy
from repro.ioa import RandomScheduler

from tests import invariants
from tests.reconfig.conftest import run_reconfig_workload

SEEDS = tuple(range(int(os.environ.get("CHAOS_GRID_SEEDS", "3"))))

#: the reconfig-capable families the grid crosses (s2pl excluded: its lock
#: rounds block on a fail-stopped replica by design)
PROTOCOLS = (
    "algorithm-a",
    "algorithm-b",
    "algorithm-c",
    "occ-double-collect",
    "eiger",
    "naive-snow",
    "simple-rw",
)

pytestmark = pytest.mark.invariants


def lossy_with(crashes=(), seed=0, probability=0.12):
    return FaultPlan(
        name="lossy-reconfig",
        drops=DropPolicy(probability=probability, max_consecutive=4),
        retry=RetryPolicy(timeout_steps=10, max_attempts=8),
        crashes=tuple(crashes),
        seed=seed,
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_replace_dead_replica_under_loss(protocol, seed):
    """The headline scenario with a lossy network on top: the joint change
    still commits, every transaction completes, invariants hold."""
    _, reconfig = replace_dead_replica("ox", 3, crash_at=8, reconfig_at=30, seed=seed)
    plan = lossy_with(crashes=(CrashEvent(server="sx.3", at=8, recover=None),), seed=seed)
    handle = run_reconfig_workload(
        protocol,
        reconfig=reconfig,
        plan=plan,
        rounds=4,
        seed=seed,
        scheduler=ChaosScheduler(base=RandomScheduler(seed=seed), seed=seed),
        run_to_completion=False,
    )
    assert not handle.simulation.incomplete_transactions(), (protocol, seed)
    assert handle.directory.group("ox") == ("sx", "sx.2", "sx.4"), (protocol, seed)
    invariants.check_all(handle)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_grow_group_under_loss(protocol, seed):
    """Growth with state transfer completes under fair loss (sync messages
    ride the same retransmitting transport as everything else)."""
    _, reconfig = grow_group_mid_run("ox", 3, to_factor=4, at=20)
    handle = run_reconfig_workload(
        protocol,
        reconfig=reconfig,
        plan=lossy_with(seed=seed),
        rounds=4,
        seed=seed,
        scheduler=ChaosScheduler(base=RandomScheduler(seed=seed), seed=seed),
        run_to_completion=False,
    )
    assert not handle.simulation.incomplete_transactions(), (protocol, seed)
    assert handle.directory.group("ox") == ("sx", "sx.2", "sx.3", "sx.4"), (protocol, seed)
    invariants.check_all(handle)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_shrink_group_under_loss(protocol, seed):
    """A live replica retires under fair loss: the change commits, the
    retired replica leaves the simulation, nothing is left in flight, and
    every transaction that met it completes through the smaller group."""
    reconfig = ReconfigPlan(
        name="shrink-under-loss",
        requests=(set_replica_group("ox", ("sx", "sx.2"), at=20),),
    )
    handle = run_reconfig_workload(
        protocol,
        reconfig=reconfig,
        plan=lossy_with(seed=seed),
        rounds=4,
        seed=seed,
        scheduler=ChaosScheduler(base=RandomScheduler(seed=seed), seed=seed),
        run_to_completion=False,
    )
    assert not handle.simulation.incomplete_transactions(), (protocol, seed)
    assert handle.directory.group("ox") == ("sx", "sx.2"), (protocol, seed)
    assert handle.directory.is_retired("sx.3"), (protocol, seed)
    assert "sx.3" not in handle.simulation.servers(), (protocol, seed)
    assert not handle.directory.in_flight(), (protocol, seed)
    invariants.check_all(handle)
