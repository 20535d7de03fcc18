"""The enabled-plane determinism contract (the ISSUE acceptance criterion).

Two runs of the same configuration — fresh planes, fresh schedulers, same
seeds — must yield identical span-tree signatures, registry snapshots and
exported artifacts, even though process-global counters (msg ids) differ
between the runs.  Nothing wall-clock may leak into any of them.
"""

from __future__ import annotations

import pytest

from repro.faults import ChaosScheduler, coordinator_failover
from repro.ioa import FIFOScheduler, RandomScheduler
from repro.obs import (
    ObservabilityPlane,
    chrome_trace_json,
    derive_spans,
    render_timeline,
)

from tests.obs.conftest import run_observed
from tests.replication.conftest import run_fixed_workload


def artifacts(handle, plane):
    tree = derive_spans(handle.simulation)
    return (
        tree.signature(),
        plane.registry.snapshot(),
        chrome_trace_json(tree),
        render_timeline(tree),
    )


@pytest.mark.parametrize(
    "scheduler_factory",
    [lambda: FIFOScheduler(), lambda: RandomScheduler(seed=11)],
    ids=["fifo", "random11"],
)
def test_same_config_twice_yields_identical_artifacts(scheduler_factory):
    first = artifacts(
        *run_observed("algorithm-b", scheduler=scheduler_factory(), num_objects=2)
    )
    second = artifacts(
        *run_observed("algorithm-b", scheduler=scheduler_factory(), num_objects=2)
    )
    assert first == second


def test_determinism_holds_under_chaos_and_a_leader_crash():
    def run_once():
        return artifacts(
            *run_observed(
                "algorithm-b",
                scheduler=ChaosScheduler(base=FIFOScheduler()),
                num_objects=2,
                consensus_factor=3,
                plan=coordinator_failover(leader="coor", at=12, seed=3),
                run_to_completion=False,
            )
        )

    assert run_once() == run_once()


def test_span_derivation_is_idempotent():
    handle, _plane = run_observed("algorithm-b", num_objects=2)
    assert (
        derive_spans(handle.simulation).signature()
        == derive_spans(handle.simulation).signature()
    )


def test_a_plane_observes_exactly_one_simulation():
    plane = ObservabilityPlane()
    run_fixed_workload("algorithm-b", obs=plane, num_objects=2)
    with pytest.raises(ValueError, match="exactly one simulation"):
        run_fixed_workload("algorithm-b", obs=plane, num_objects=2)
