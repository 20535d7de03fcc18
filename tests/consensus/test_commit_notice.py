"""The coordinator group's commit notice and its once-per-index snapshots.

A leader that advances its commit index sends each peer one unacknowledged
``cns-committed`` notice carrying the index and the term of the entry there;
a follower applies through it once its log holds that pair, so a notice that
overtakes its entry takes effect when the entry lands, with no message of
its own.  A leader ships a given snapshot to a peer once until the peer
answers, so a fail-stopped peer does not get it again on every replicate.
Two follower rules keep the quieter group from electing for nothing: a
notice that names a served read before its broadcast copy arrives keeps the
copy out of the buffer, and an election timer armed before an amnesiac
crash still counts as the member's one live timer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import fields

import pytest

from repro.analysis import ExperimentConfig, WorkloadSpec, generate_workload, make_scheduler, submit_workload
from repro.analysis.sweep import PERSIST
from repro.consensus.log import LogEntry
from repro.faults import FaultInjector, coordinator_failover
from repro.ioa import FIFOScheduler
from repro.ioa.actions import ActionKind
from repro.persist import PersistencePolicy
from repro.protocols import get_protocol
from repro.protocols.base import SystemSpec
from repro.txn.objects import Key

from tests import invariants
from tests.consensus.conftest import FakeContext, member, msg


def write_entry(term: int) -> LogEntry:
    return LogEntry(
        term=term,
        request_id="update-coor/W1",
        msg_type="update-coor",
        payload=(("bits", (("ox", 1), ("oy", 1))), ("key", Key(1, "w1")), ("txn", "W1")),
        client="w1",
    )


def test_a_stale_term_notice_is_refused_and_deposes_its_sender():
    leader, follower = member("coor"), member("coor.2")
    assert leader.election.is_leader and leader.election.term == 1
    follower.election.step_down(2)  # the follower has moved on to term 2
    ctx = FakeContext("coor.2")
    follower.on_message(msg("cns-committed", "coor", "coor.2", term=1, commit=1, commit_term=1), ctx)
    (refusal,) = ctx.sent
    assert refusal.msg_type == "cns-append-ack"
    assert refusal.get("ok") is False and refusal.get("term") == 2
    assert follower.log.commit_index == 0
    leader.on_message(refusal, FakeContext("coor"))
    assert not leader.election.is_leader and leader.election.term == 2


def test_a_notice_that_overtakes_its_entry_commits_when_the_entry_lands():
    follower = member("coor.2")
    ctx = FakeContext("coor.2")
    follower.on_message(msg("update-coor", "w1", "coor.2", txn="W1", key=Key(1, "w1"), bits=(("ox", 1), ("oy", 1))), ctx)
    assert "update-coor/W1" in follower.pending
    follower.on_message(msg("cns-committed", "coor", "coor.2", term=1, commit=1, commit_term=1), ctx)
    assert follower.log.commit_index == 0 and ctx.sent == []  # held, and never acknowledged
    # the append was sent before the leader committed, so it carries commit=0
    append = msg("cns-append", "coor", "coor.2", term=1, prev_index=0, prev_term=0, entries=(write_entry(1),), commit=0)
    follower.on_message(append, ctx)
    assert follower.log.commit_index == follower.log.last_applied == 1
    assert not follower.pending and "update-coor/W1" in follower.applied_replies
    (ack,) = ctx.sent  # the append's own ack is the only message
    assert ack.msg_type == "cns-append-ack" and ack.get("ok") is True and ack.get("match") == 1


def test_a_notice_commits_only_the_entry_of_its_term():
    """The log holds index 1 from a deposed term-1 leader; a term-2 notice
    for index 1 names another entry, so nothing commits until the term-2
    append replaces it."""
    follower = member("coor.2")
    ctx = FakeContext("coor.2")
    follower.on_message(
        msg("cns-append", "coor", "coor.2", term=1, prev_index=0, prev_term=0, entries=(write_entry(1),), commit=0), ctx
    )
    follower.on_message(msg("cns-committed", "coor.3", "coor.2", term=2, commit=1, commit_term=2), ctx)
    assert follower.log.commit_index == 0
    follower.on_message(
        msg("cns-append", "coor.3", "coor.2", term=2, prev_index=0, prev_term=0, entries=(write_entry(2),), commit=0), ctx
    )
    assert follower.log.commit_index == 1 and follower.log.term_at(1) == 2


def test_a_fail_stopped_peer_receives_each_snapshot_once():
    """The bootstrap leader fail-stops; its successor's cursor for it never
    moves, so every later replicate finds the entries it needs compacted."""
    handle = get_protocol("algorithm-b").build(
        num_readers=2,
        num_writers=2,
        num_objects=2,
        seed=3,
        consensus_factor=3,
        scheduler=FIFOScheduler(),
        fault_plane=FaultInjector(coordinator_failover(leader="coor", at=12, seed=3), seed=3),
        persistence=PersistencePolicy(compact_every=2),
    )
    spec = WorkloadSpec(reads_per_reader=4, writes_per_writer=4, seed=3)
    submit_workload(handle, generate_workload(spec, handle.readers, handle.writers, handle.objects))
    handle.run()
    assert not handle.simulation.incomplete_transactions()
    shipped = Counter(
        dict(action.message.get("snapshot"))["index"]
        for action in handle.trace()
        if action.kind is ActionKind.SEND
        and action.message.msg_type == "cns-snapshot"
        and action.message.dst == "coor"
    )
    assert len(shipped) >= 2, "the dead peer must fall behind more than one snapshot"
    assert set(shipped.values()) == {1}, shipped


def persist_cell(protocol: str, mode: str):
    """The ``persist`` suite's ``amnesia-member`` cell, built as its runner
    builds it, keeping the handle."""
    settings = {**PERSIST.shared, **PERSIST.vary(PERSIST.seed, mode, "amnesia-member")}
    config = ExperimentConfig(protocol=protocol, **settings).with_seed(PERSIST.seed)
    handle = get_protocol(protocol).build(
        **{spec.name: getattr(config, spec.name) for spec in fields(SystemSpec)},
        scheduler=make_scheduler(config.scheduler, config.seed),
        fault_plane=FaultInjector(config.faults, seed=config.seed),
    )
    submit_workload(handle, generate_workload(config.workload, handle.readers, handle.writers, handle.objects))
    handle.run()
    return handle


@pytest.mark.parametrize("mode", ("volatile", "durable", "durable+compact"))
@pytest.mark.parametrize("protocol", PERSIST.protocols)
def test_an_amnesiac_member_catches_up_after_recovery(protocol, mode):
    handle = persist_cell(protocol, mode)
    assert not handle.simulation.incomplete_transactions()
    members = invariants.consensus_members(handle)
    assert len({m.log.commit_index for m in members}) == 1
    amnesiac = handle.simulation.automaton("coor.2")
    assert amnesiac.log.last_applied == amnesiac.log.commit_index
    assert not amnesiac.pending, "the recovered member still buffers requests"
    assert amnesiac.recoveries == (0 if mode == "volatile" else 1)


def test_a_read_served_before_its_copy_arrives_is_not_buffered():
    follower = member("coor.2", leases=True)
    ctx = FakeContext("coor.2")
    notice = msg("cns-committed", "coor", "coor.2", term=1, commit=0, commit_term=0, served=("get-tag-arr/R1",))
    follower.on_message(notice, ctx)
    follower.on_message(msg("get-tag-arr", "r1", "coor.2", txn="R1"), ctx)
    assert not follower.pending and ctx.timers == []


def test_a_timer_armed_before_amnesia_is_still_the_live_one():
    """The kernel defers the crashed member's timer to its recovery; a copy
    buffered after the recovery must not arm a second one, or the old timer
    would fire at once against the new arming time and start an election."""
    follower = member("coor.2")
    ctx = FakeContext("coor.2")
    write = dict(txn="W1", key=Key(1, "w1"), bits=(("ox", 1), ("oy", 1)))
    follower.on_message(msg("update-coor", "w1", "coor.2", **write), ctx)
    assert len(ctx.timers) == 1
    follower.forget()
    ctx.vtime = 60
    follower.on_message(msg("update-coor", "w1", "coor.2", **write), ctx)
    assert len(ctx.timers) == 1
    ctx.vtime = 61
    follower.on_timeout({"kind": "election"}, ctx)  # the deferred timer
    assert not any(m.msg_type == "cns-vote-req" for m in ctx.sent)
