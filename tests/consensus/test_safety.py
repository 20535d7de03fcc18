"""Consensus safety invariants as trace/state assertions across seeds.

The three Raft safety properties — election safety, log matching and
state-machine safety — now live in the shared checker ``tests/invariants.py``
(applied automatically to every run in this suite by the autouse fixture);
this module keeps the *explicit* cross-seed executions that exercise them
hardest: leader crash + randomized chaos schedules, several seeds.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.faults import ChaosScheduler
from repro.ioa import RandomScheduler
from repro.ioa.actions import Action, ActionKind

from tests.consensus.conftest import (
    COORDINATOR_PROTOCOLS,
    leader_crash_plan,
    run_consensus_workload,
)
from tests.invariants import (
    check_election_safety,
    check_log_matching,
    check_state_machine_safety,
)

SEEDS = (0, 1, 2, 3, 4)

pytestmark = pytest.mark.invariants


def run_crashy(protocol: str, seed: int):
    return run_consensus_workload(
        protocol,
        consensus_factor=3,
        plan=leader_crash_plan(at=10 + (seed % 7), seed=seed),
        scheduler=ChaosScheduler(base=RandomScheduler(seed=seed), seed=seed),
        seed=seed,
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("protocol", COORDINATOR_PROTOCOLS)
def test_safety_invariants_across_seeds(protocol, seed):
    handle = run_crashy(protocol, seed)
    # Liveness first: the crash must have been absorbed (majority alive).
    assert not handle.simulation.incomplete_transactions(), (protocol, seed)
    check_election_safety(handle)
    check_log_matching(handle)
    check_state_machine_safety(handle)
    # And the executions stay strictly serializable through the failover.
    assert handle.serializability().ok, (protocol, seed)


def test_election_safety_fails_a_term_with_two_leaders():
    """The post-mortem check is the streaming monitor replayed over the
    trace, so a forged trace electing two members in one term fails it."""
    trace = [
        Action(
            kind=ActionKind.INTERNAL,
            actor=member,
            info=(("consensus", "became-leader"), ("term", 2), ("member", member)),
        )
        for member in ("coor", "coor.2")
    ]
    handle = SimpleNamespace(trace=lambda: trace)
    with pytest.raises(AssertionError, match=r"\[1\] term 2 elected both 'coor' and 'coor.2'"):
        check_election_safety(handle)


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_applied_timestamps_stay_monotonic_across_failover(seed):
    """OCC's replicated oracle must never reissue a timestamp (state-machine
    safety made protocol-visible): all granted timestamps are distinct."""
    handle = run_crashy("occ-double-collect", seed)
    stamps = [
        r.annotations["timestamp"]
        for r in handle.simulation.transaction_records()
        if "timestamp" in r.annotations
    ]
    assert len(stamps) == len(set(stamps))
