"""A consensus member swap under an amnesia crash and log compaction.

B at ``consensus_factor=3`` under the chaos scheduler swaps ``coor.3`` out
for ``coor.4`` at step 20, while ``coor.2`` or ``coor.3`` crashes with
amnesia and recovers 30 steps later from a stable store that checkpoints
every two applied entries.  A checkpoint may compact the change's joint entry
before its C_new commits.  A re-sent copy of the change request then used to
open the change a second time: the leader sat in a joint configuration that
never advanced and addressed ``coor.3`` after the first change had retired
it, so the run died with ``UnknownProcessError``.  Twelve of these forty
cells did, among them ``coor.2`` crashed at 32 with seed 0.  Every cell
must now finish, keep every safety invariant and complete every
transaction.
"""

from __future__ import annotations

import pytest

from repro.analysis.metrics import collect_metrics
from repro.analysis.workload import WorkloadSpec, generate_workload, submit_workload
from repro.consensus import ReconfigPlan, set_consensus_group
from repro.faults import ChaosScheduler, CrashEvent, FaultInjector, FaultPlan, RetryPolicy
from repro.persist import PersistencePolicy
from repro.protocols import get_protocol

from tests import invariants

pytestmark = pytest.mark.invariants

SWAP = ReconfigPlan(name="cns-swap", requests=(set_consensus_group(("coor", "coor.2", "coor.4"), at=20),))

#: (crashed member, crash step, seed): both surviving founders, ten crash
#: steps across the change's window, two seeds
SCAN = [(member, at, seed) for seed in (0, 1) for member in ("coor.2", "coor.3") for at in range(20, 75, 6)]


def run_cell(member: str, at: int, seed: int):
    """What ``run_experiment`` builds for this cell, keeping the handle."""
    plan = FaultPlan(
        name="amnesia",
        crashes=(CrashEvent(server=member, at=at, recover=at + 30, preserve_state=False),),
        retry=RetryPolicy(timeout_steps=10, max_attempts=8),
        seed=seed,
    )
    handle = get_protocol("algorithm-b").build(
        num_readers=2,
        num_writers=2,
        num_objects=2,
        scheduler=ChaosScheduler(seed=seed),
        seed=seed,
        consensus_factor=3,
        reconfig=SWAP,
        persistence=PersistencePolicy(compact_every=2),
        fault_plane=FaultInjector(plan, seed=seed),
    )
    spec = WorkloadSpec(reads_per_reader=3, writes_per_writer=3, seed=seed)
    submit_workload(handle, generate_workload(spec, handle.readers, handle.writers, handle.objects))
    handle.run()
    return invariants.register(handle)


@pytest.mark.parametrize("member, at, seed", SCAN, ids=[f"{m}-at{a}-seed{s}" for m, a, s in SCAN])
def test_the_swap_finishes_safe_and_available(member, at, seed):
    handle = run_cell(member, at, seed)
    invariants.check_all(handle)
    metrics = collect_metrics(handle.simulation, protocol_name="algorithm-b", directory=handle.directory)
    assert metrics.faults.availability == 1.0


def test_the_reported_cell_leaves_the_retired_member_behind():
    handle = run_cell("coor.2", 32, 0)
    assert handle.simulation.topology.consensus_group() == ("coor", "coor.2", "coor.4")
    for member in invariants.consensus_members(handle):
        assert member.joint is None and "coor.3" not in member.group, member.name
