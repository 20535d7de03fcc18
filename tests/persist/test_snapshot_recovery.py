"""Recovery from a snapshot, across a consensus-group change.

A member that checkpoints compacts its log into a snapshot.  When it later
crashes with amnesia, recovery restores the machine and the reply cache
from that snapshot, then replays the committed entries after it, a
membership change's ``C_new`` among them.  A leader that has compacted past a
follower's log ships it a snapshot instead; a follower that has already
applied past it keeps its machine and only takes the replies it lacks.

Each cell is B at cf=3 growing its group to four members mid-run, one
follower crashing with amnesia after its first checkpoint.  The first cell
replays ``C_new`` after the snapshot it restored; in the second the leader
ships the recovered follower a snapshot it has already applied past.  Those
branches run in no other test, so ``tests/unrun/collect.py`` names them if a
schedule change stops these cells reaching them.
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

GROW = ReconfigPlan(name="cns-grow", requests=(set_consensus_group(("coor", "coor.2", "coor.3", "coor.4"), at=20),))

#: cell -> (compact_every, crashed follower, crash time, seed)
CELLS = {
    "replays-c-new-after-its-snapshot": (3, "coor.2", 83, 1),
    "absorbs-replies-of-a-stale-snapshot": (2, "coor.2", 55, 3),
}


def run(seed, compact_every=None, crash=None):
    plan = None
    if crash is not None:
        member, at = crash
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
        reconfig=GROW,
        persistence=None if compact_every is None else PersistencePolicy(compact_every=compact_every),
        fault_plane=None if plan is None else FaultInjector(plan, seed=seed),
    )
    spec = WorkloadSpec(reads_per_reader=3, writes_per_writer=3, seed=seed)
    submit_workload(handle, generate_workload(spec, handle.readers, handle.writers, handle.objects))
    handle.run()
    return handle


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_an_amnesiac_follower_recovers_from_its_snapshot(cell):
    compact_every, member, at, seed = CELLS[cell]
    twin = run(seed)
    handle = run(seed, compact_every, crash=(member, at))
    recovered = handle.simulation.automaton(member)
    assert recovered.recoveries >= 1
    assert handle.simulation.topology.consensus_group() == ("coor", "coor.2", "coor.3", "coor.4")
    leader = next(m for m in invariants.consensus_members(handle) if m.election.is_leader)
    assert recovered.machine.snapshot() == leader.machine.snapshot()
    invariants.check_all(handle)
    metrics = collect_metrics(
        handle.simulation,
        protocol_name="algorithm-b",
        placement=handle.placement,
        quorum_policy=handle.quorum_policy,
        directory=handle.directory,
    )
    assert metrics.faults.availability == 1.0
    assert metrics.persistence.recoveries >= 1
    assert handle.snow_report().property_string() == twin.snow_report().property_string()
