"""Consensus-under-chaos grids (ROADMAP open item).

failover-suite-style executions crossed with the fault scenario
library — message loss, a partition isolating one member, crash-with-amnesia
of a member and of the leader — across ≥5 seeds, asserting the safety
invariants (via the shared checker in ``tests/invariants.py``) and full
availability on every cell.

Two regressions are pinned alongside the grid:

* **stale-candidate livelock** — a member returning from a healed partition
  with buffered-but-long-committed requests used to depose the quiescent
  leader and campaign forever (nobody re-replicated without heartbeats).
  The repair rule — refusing voters with better logs campaign themselves —
  bounds the disruption; the grid's member-partition column would hang
  without it.
* **the durable-state assumption** — Raft's election safety requires
  term/vote to survive crashes.  A crash-with-amnesia member *can* double
  vote; the white-box pair documents exactly that hazard (strict xfail with
  volatile members) *and* its fix (the same schedule passes once a
  :class:`~repro.persist.PersistencePolicy` attaches stable storage, PR 9),
  while the grid shows the end-to-end schedules where recovery happens
  between elections stay safe.  The persistence grid re-runs the amnesia
  scenarios with durable members — now the *state* also rides through the
  outage, not just the safety invariants.
"""

from __future__ import annotations

import os

import pytest

from repro.faults import ChaosScheduler, FaultPlan
from repro.faults.plan import CrashEvent, DropPolicy, Partition, RetryPolicy
from repro.ioa import RandomScheduler
from repro.persist import PersistencePolicy

from tests import invariants
from tests.consensus.conftest import COORDINATOR_PROTOCOLS, run_consensus_workload

#: ``CHAOS_GRID_SEEDS`` (env) widens the grid — the nightly CI chaos-grid
#: job runs with 20 seeds, PRs and local runs with the default 5.
SEEDS = tuple(range(int(os.environ.get("CHAOS_GRID_SEEDS", "5"))))

pytestmark = pytest.mark.invariants


def chaos_plan(scenario: str, seed: int) -> FaultPlan:
    retry = RetryPolicy(timeout_steps=10, max_attempts=8)
    if scenario == "lossy":
        return FaultPlan(
            name="lossy",
            drops=DropPolicy(probability=0.15, max_consecutive=4),
            retry=retry,
            seed=seed,
        )
    if scenario == "member-partition":
        # One member cut off from its peers, healed mid-run; clients still
        # reach it, so it buffers requests the group commits without it.
        return FaultPlan(
            name="member-partition",
            partitions=(
                Partition(left=("coor.3",), right=("coor", "coor.2"), start=6, heal=60),
            ),
            seed=seed,
        )
    if scenario == "amnesia-member":
        return FaultPlan(
            name="amnesia-member",
            crashes=(CrashEvent(server="coor.2", at=10, recover=45, preserve_state=False),),
            retry=retry,
            seed=seed,
        )
    if scenario == "amnesia-leader":
        return FaultPlan(
            name="amnesia-leader",
            crashes=(CrashEvent(server="coor", at=10, recover=45, preserve_state=False),),
            retry=retry,
            seed=seed,
        )
    raise ValueError(scenario)


SCENARIOS = ("lossy", "member-partition", "amnesia-member", "amnesia-leader")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("protocol", COORDINATOR_PROTOCOLS)
def test_chaos_grid_cell(protocol, scenario, seed):
    """Every protocol × scenario × seed cell completes with the safety
    invariants intact (checked again by the autouse fixture)."""
    handle = run_consensus_workload(
        protocol,
        consensus_factor=3,
        plan=chaos_plan(scenario, seed),
        scheduler=ChaosScheduler(base=RandomScheduler(seed=seed), seed=seed),
        seed=seed,
    )
    assert not handle.simulation.incomplete_transactions(), (protocol, scenario, seed)
    invariants.check_all(handle)
    assert handle.serializability().ok, (protocol, scenario, seed)


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_healed_partition_member_catches_up_and_group_quiesces(seed):
    """After the heal, the repair rule elects a healthy member whose
    replication drains the stale member's buffer: its log converges and no
    election timer stays armed (the run reached idle, so this is the
    quiescent state)."""
    handle = run_consensus_workload(
        "algorithm-b",
        consensus_factor=3,
        plan=chaos_plan("member-partition", seed),
        scheduler=ChaosScheduler(base=RandomScheduler(seed=seed), seed=seed),
        seed=seed,
    )
    members = invariants.consensus_members(handle)
    assert len({m.log.commit_index for m in members}) == 1
    stale = handle.simulation.automaton("coor.3")
    assert not stale.pending, "healed member still holds buffered requests"


def _double_vote_schedule(persistence):
    """Drive the double-vote schedule; returns whether the second grant in
    the same term was (wrongly) possible after the amnesiac outage."""
    handle = run_consensus_workload(
        "algorithm-b", consensus_factor=3, persistence=persistence
    )
    member = handle.simulation.automaton("coor.2")
    member.election.step_down(2)
    assert member.election.may_grant("coor", 2)
    member.election.grant("coor")
    assert not member.election.may_grant("coor.3", 2)  # vote is taken
    member.forget()  # amnesiac outage: volatile term and vote are gone
    member.election.step_down(2)
    return member.election.may_grant("coor.3", 2)


@pytest.mark.xfail(
    reason="Raft's election safety assumes term/vote survive crashes; a "
    "crash-with-amnesia member forgets its vote and can grant a second, "
    "conflicting vote in the same term: forget() recovers from a store "
    "that keeps nothing, so the member comes back blank (the double-vote "
    "hazard ReplicatedCoordinator.forget documents). A durable store — "
    "persisting term/vote across the outage — is the fix; see the sibling "
    "test with one.",
    strict=True,
)
def test_amnesiac_member_double_vote_hazard_without_persistence():
    """White-box: where the durable-state assumption bites.  One member
    grants its term-2 vote to candidate X, crashes with amnesia, and is then
    asked by candidate Y — with amnesia it forgets the first grant and votes
    again, so two leaders of the same term become possible."""
    assert not _double_vote_schedule(
        None
    ), "amnesiac member re-granted a vote it already cast this term"


def test_amnesiac_member_with_stable_storage_must_not_double_vote():
    """The fix for the hazard above: with a durable store,
    ``forget()`` recovers term/vote from storage, so the exact schedule
    that double-votes with volatile members refuses the second grant."""
    assert not _double_vote_schedule(
        PersistencePolicy()
    ), "durable member re-granted a vote it already cast this term"


# ----------------------------------------------------------------------
# The lease grid: the read fast path under chaos (ISSUE 10)
# ----------------------------------------------------------------------
def lease_chaos_plan(scenario: str, seed: int) -> FaultPlan:
    retry = RetryPolicy(timeout_steps=10, max_attempts=8)
    if scenario == "lease-leader-crash":
        # The lease holder fail-stops mid-window and returns with state.
        return FaultPlan(
            name="lease-leader-crash",
            crashes=(CrashEvent(server="coor", at=10, recover=45, preserve_state=True),),
            retry=retry,
            seed=seed,
        )
    if scenario == "lease-holder-partition":
        # The holder cut off from its peers mid-window: it cannot extend,
        # the majority elects once the promised window lapses.
        return FaultPlan(
            name="lease-holder-partition",
            partitions=(
                Partition(left=("coor",), right=("coor.2", "coor.3"), start=8, heal=120),
            ),
            retry=retry,
            seed=seed,
        )
    if scenario == "lease-amnesia-restart":
        # Crash-with-amnesia of the holder: the virtual clock is global
        # (no skew across the restart), so the recovered member re-proves
        # from scratch rather than trusting any remembered window.
        return FaultPlan(
            name="lease-amnesia-restart",
            crashes=(CrashEvent(server="coor", at=10, recover=45, preserve_state=False),),
            retry=retry,
            seed=seed,
        )
    raise ValueError(scenario)


LEASE_SCENARIOS = ("lease-leader-crash", "lease-holder-partition", "lease-amnesia-restart")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scenario", LEASE_SCENARIOS)
@pytest.mark.parametrize("protocol", COORDINATOR_PROTOCOLS)
def test_lease_chaos_grid_cell(protocol, scenario, seed):
    """The chaos grid with the read fast path armed: leader crash
    mid-lease, partition of the lease holder, and an amnesia restart all
    keep every safety invariant — including lease safety, online and
    post-mortem — with full availability."""
    handle = run_consensus_workload(
        protocol,
        consensus_factor=3,
        plan=lease_chaos_plan(scenario, seed),
        scheduler=ChaosScheduler(base=RandomScheduler(seed=seed), seed=seed),
        seed=seed,
        leases=True,
    )
    assert not handle.simulation.incomplete_transactions(), (protocol, scenario, seed)
    invariants.check_all(handle)  # includes check_lease_safety
    assert handle.serializability().ok, (protocol, scenario, seed)


# ----------------------------------------------------------------------
# The persistence grid: amnesia scenarios with durable members (PR 9)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scenario", ("amnesia-member", "amnesia-leader"))
@pytest.mark.parametrize("protocol", COORDINATOR_PROTOCOLS)
def test_persistence_grid_cell(protocol, scenario, seed):
    """The amnesia columns of the grid with stable storage attached: every
    cell still completes with the invariants intact, and the crashed member
    provably recovered its durable state instead of resetting."""
    handle = run_consensus_workload(
        protocol,
        consensus_factor=3,
        plan=chaos_plan(scenario, seed),
        scheduler=ChaosScheduler(base=RandomScheduler(seed=seed), seed=seed),
        seed=seed,
        persistence=PersistencePolicy(compact_every=4),
    )
    assert not handle.simulation.incomplete_transactions(), (protocol, scenario, seed)
    invariants.check_all(handle)
    assert handle.serializability().ok, (protocol, scenario, seed)
    crashed = "coor.2" if scenario == "amnesia-member" else "coor"
    member = handle.simulation.automaton(crashed)
    assert member.recoveries >= 1, "amnesiac member never took the recovery path"
    amnesia = [
        dict(action.info)
        for action in handle.trace()
        if action.info
        and dict(action.info).get("fault") == "amnesia"
        and action.actor == crashed
    ]
    assert amnesia and all(a.get("durable") == "recovered" for a in amnesia)
