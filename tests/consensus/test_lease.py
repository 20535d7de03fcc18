"""Leader leases and the consensus read fast path (ISSUE 10 tentpole).

Four layers of assurance:

* **the proof** — an append stamped with the leader's send vtime ``at`` is
  the lease round: a follower that heeds it promises one lease duration from
  its receipt and echoes ``at``; a window a write's append round proved
  serves a read at once, and the served notice under it is unacknowledged;
* **behaviour** — a leased run serves read-only coordinator requests
  locally from the applied state machine (no log entry, no quorum round
  per read), returns the same values as the unleased run, and emits the
  lease lifecycle internals (``lease-acquired`` / ``lease-renewed`` /
  ``lease-expired`` / ``local-read``) the metrics plane counts;
* **the election boundary** (the satellite-5 schedule) — the old leader
  partitioned mid-lease must never serve a read once a new leader could
  have committed a write: candidates wait out the promised window, so the
  streaming :class:`~repro.obs.LeaseSafetyMonitor` and the post-mortem
  checker both stay green across seeds;
* **white-box negatives** — hand-forged violating action sequences trip
  the monitor at the exact offending trace index, and the offline checker
  (``tests/invariants.check_lease_safety``'s engine) reports the *same*
  indices — online/offline parity, exercised on the failing side.
"""

from __future__ import annotations

import pytest

from repro.consensus.coordinator import DEFAULT_ELECTION_TIMEOUT
from repro.faults import ChaosScheduler, FaultPlan
from repro.faults.plan import Partition, RetryPolicy
from repro.ioa import FIFOScheduler, RandomScheduler
from repro.ioa.actions import Action, ActionKind
from repro.obs import MonitorSuite, ObservabilityPlane
from repro.obs.monitor import LeaseSafetyMonitor, offline_lease_violations
from repro.protocols import get_protocol
from repro.txn.objects import Key

from tests import invariants
from tests.consensus.conftest import COORDINATOR_PROTOCOLS, FakeContext, member, msg, run_consensus_workload
from tests.replication.conftest import run_fixed_workload

pytestmark = pytest.mark.invariants


def lease_internals(handle, *kinds):
    return [
        dict(action.info)
        for action in handle.trace()
        if action.info and dict(action.info).get("consensus") in kinds
    ]


# ----------------------------------------------------------------------
# Append rounds prove the lease
# ----------------------------------------------------------------------
LEASE = DEFAULT_ELECTION_TIMEOUT[0]


def append(at=None, prev_index=0, **fields):
    stamp = {} if at is None else {"at": at}
    return msg(
        "cns-append", "coor", "coor.2", term=1, prev_index=prev_index, prev_term=0, entries=(), commit=0,
        **stamp, **fields,
    )


def vote_request():
    return msg("cns-vote-req", "coor.3", "coor.2", term=2, last_index=0, last_term=0)


@pytest.mark.parametrize("prev_index", (0, 5), ids=("log-matches", "log-lags"))
def test_a_heeded_stamped_append_promises_one_lease_from_its_receipt(prev_index):
    """A follower that heeds an ``at``-stamped append echoes ``at``, whether
    or not its log matches, and refuses a vote to a foreign candidate until
    receive time plus the lease duration; it grants one after."""
    follower = member("coor.2", leases=True)
    ctx = FakeContext("coor.2")
    ctx.vtime = 10
    follower.on_message(append(at=7, prev_index=prev_index), ctx)
    (ack,) = ctx.sent
    assert ack.msg_type == "cns-append-ack" and ack.get("at") == 7
    assert ack.get("ok") is (prev_index == 0)
    ctx.vtime = 10 + LEASE - 1
    follower.on_message(vote_request(), ctx)
    assert ctx.sent[-1].msg_type == "cns-vote" and ctx.sent[-1].get("granted") is False
    ctx.vtime = 10 + LEASE
    follower.on_message(vote_request(), ctx)
    assert ctx.sent[-1].msg_type == "cns-vote" and ctx.sent[-1].get("granted") is True


def test_an_unstamped_append_promises_nothing():
    """A leader that has parked no read this term stamps nothing, so a
    write-only run's appends, acks and votes are the lease-free ones."""
    follower = member("coor.2", leases=True)
    ctx = FakeContext("coor.2")
    ctx.vtime = 10
    follower.on_message(append(), ctx)
    (ack,) = ctx.sent
    assert ack.get("at") is None
    ctx.vtime = 11
    follower.on_message(vote_request(), ctx)
    assert ctx.sent[-1].get("granted") is True


def write_then_read():
    """The bootstrap leader proves a window for read R1 with an extension
    round at vtime 0, renews it with write W1's append round at vtime 30,
    and gets read R2 at vtime 50: inside the write's window ``[30, 70)``,
    after R1's ``[0, 40)`` lapsed.  Returns the leader's context, where
    ``mark`` indexes the first send after R2 arrived."""
    leader = member("coor", leases=True)
    ctx = FakeContext("coor")
    leader.on_message(msg("get-tag-arr", "r1", "coor", txn="R1", read_set=("ox",)), ctx)
    assert [m.get("at") for m in ctx.sent if m.msg_type == "cns-append"] == [0, 0]
    ctx.vtime = 3
    leader.on_message(msg("cns-append-ack", "coor.2", "coor", term=1, ok=True, match=0, at=0), ctx)
    ctx.vtime = 30
    write = dict(txn="W1", key=Key(1, "w1"), bits=(("ox", 1), ("oy", 1)))
    leader.on_message(msg("update-coor", "w1", "coor", **write), ctx)
    assert [m.get("at") for m in ctx.sent[-2:]] == [30, 30]
    ctx.vtime = 35
    leader.on_message(msg("cns-append-ack", "coor.2", "coor", term=1, ok=True, match=1, at=30), ctx)
    assert leader.log.commit_index == 1
    ctx.vtime = 50
    ctx.mark = len(ctx.sent)
    leader.on_message(msg("get-tag-arr", "r2", "coor", txn="R2", read_set=("ox",)), ctx)
    return ctx


def test_a_read_inside_a_window_a_write_proved_is_served_at_once():
    ctx = write_then_read()
    (served,) = [info for info in ctx.internals if info.get("request") == "get-tag-arr/R2"]
    assert served["consensus"] == "local-read"
    assert served["read_latency"] == 0 and served["until"] == 30 + LEASE
    after = [m.msg_type for m in ctx.sent[ctx.mark:]]
    assert "cns-append" not in after  # no extension round
    assert after == ["tag-arr-reply", "cns-committed", "cns-committed"]


def test_a_served_notice_under_a_live_window_gets_no_reply():
    ctx = write_then_read()
    notice = ctx.sent[-1]
    assert notice.msg_type == "cns-committed" and tuple(notice.get("served")) == ("get-tag-arr/R2",)
    follower = member("coor.3", leases=True)
    follower_ctx = FakeContext("coor.3")
    follower.on_message(msg("get-tag-arr", "r2", "coor.3", txn="R2", read_set=("ox",)), follower_ctx)
    assert "get-tag-arr/R2" in follower.pending
    follower.on_message(notice, follower_ctx)
    assert not follower.pending and follower_ctx.sent == []


def test_a_leader_deposed_inside_its_window_elects_nobody_else():
    """The leader's own ack counts in the quorum that proves its window, so
    it keeps the promise the ack stands for: a higher-term candidate that
    deposes it inside the window gets no vote from it, and one after does."""
    leader = member("coor", leases=True)
    ctx = FakeContext("coor")
    leader.on_message(msg("get-tag-arr", "r1", "coor", txn="R1", read_set=("ox",)), ctx)
    ctx.vtime = 3
    leader.on_message(msg("cns-append-ack", "coor.2", "coor", term=1, ok=True, match=0, at=0), ctx)
    votes = []
    for vtime, term in ((LEASE - 1, 2), (LEASE, 4)):
        ctx.vtime = vtime
        leader.on_message(msg("cns-vote-req", "coor.3", "coor", term=term, last_index=0, last_term=0), ctx)
        votes += [m.get("granted") for m in ctx.sent if m.msg_type == "cns-vote" and m.get("term") == term]
    assert votes == [False, True]


# ----------------------------------------------------------------------
# The lease policy knob
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bad", [False, 0, 1, 25, 40.0, "long"])
def test_leases_are_on_or_off(bad):
    """``leases`` takes ``True`` or ``None``; a duration, or anything else,
    is refused at build time — the lease length is not a setting."""
    with pytest.raises(TypeError, match="True or None"):
        run_consensus_workload("algorithm-b", leases=bad)


def test_lease_policy_is_gone():
    with pytest.raises(ImportError):
        from repro.consensus import LeasePolicy  # noqa: F401


def test_lease_duration_is_the_election_timeouts_low_bound():
    """The safety linchpin: a promise must outlive any window it helped
    prove, so every granted window is exactly the election timeout's low
    bound long."""
    handle = run_consensus_workload("algorithm-b", leases=True, election_timeout=(40, 80))
    grants = lease_internals(handle, "lease-acquired", "lease-renewed")
    assert grants
    assert {int(info["until"]) - int(info["start"]) for info in grants} == {40}


def test_leases_require_consensus_members():
    with pytest.raises(ValueError, match="consensus_factor"):
        run_fixed_workload("algorithm-b", leases=True)


# ----------------------------------------------------------------------
# Behaviour: the read fast path
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ("algorithm-b", "algorithm-c"))
def test_leased_reads_bypass_the_log(protocol):
    """Every ``get-tag-arr`` is served locally under a proven window: the
    run emits ``local-read`` internals, commits no read entries, and the
    read values match the unleased run's."""
    leased = run_consensus_workload(protocol, leases=True, scheduler=FIFOScheduler())
    plain = run_consensus_workload(protocol, leases=None, scheduler=FIFOScheduler())
    local = lease_internals(leased, "local-read")
    assert local, "leased run never served a read locally"
    assert lease_internals(leased, "lease-acquired")
    member = leased.simulation.automaton("coor")
    committed = [
        member.log.entry(i).request_id
        for i in range(member.log.snapshot_index + 1, member.log.commit_index + 1)
    ]
    assert not any(rid.startswith("get-tag-arr/") for rid in committed)
    assert leased.history().results() == plain.history().results()


def test_every_local_read_lands_inside_its_announced_window():
    handle = run_consensus_workload("algorithm-b", leases=True)
    for info in lease_internals(handle, "local-read"):
        assert int(info["vtime"]) < int(info["until"]), info
    assert offline_lease_violations(handle.trace()) == []


def test_lease_expiry_is_observable():
    """An idle gap longer than the lease, made on purpose between two reads:
    the second read logs exactly one ``lease-expired`` for the lapse and
    then re-proves a fresh window."""
    handle = get_protocol("algorithm-b").build(
        num_readers=1, num_writers=1, num_objects=2, consensus_factor=3, leases=True, scheduler=FIFOScheduler()
    )
    handle.submit_read(txn_id="R1")
    handle.run()
    lapsed = max(int(info["until"]) for info in lease_internals(handle, "lease-acquired", "lease-renewed"))
    handle.simulation.advance_to(lapsed + 1)
    handle.submit_read(txn_id="R2")
    handle.run()
    expiries = lease_internals(handle, "lease-expired")
    acquisitions = lease_internals(handle, "lease-acquired")
    assert expiries, "the idle gap did not let the lease lapse"
    assert len(acquisitions) >= len(expiries)
    (expiry,) = expiries
    assert int(expiry["until"]) == lapsed < int(expiry["vtime"])
    (second,) = [info for info in lease_internals(handle, "local-read") if info["request"] == "get-tag-arr/R2"]
    assert int(second["vtime"]) < int(second["until"]) and int(second["until"]) > lapsed
    assert all(record.complete for record in handle.transaction_records())


def test_streaming_monitor_watches_a_leased_run():
    plane = ObservabilityPlane(monitors=True)
    handle = run_fixed_workload(
        "algorithm-b",
        scheduler=ChaosScheduler(base=FIFOScheduler()),
        consensus_factor=3,
        leases=True,
        obs=plane,
        run_to_completion=False,
    )
    assert plane.monitors.ok, [a.describe() for a in plane.monitors.alerts]
    assert lease_internals(handle, "local-read")


# ----------------------------------------------------------------------
# The election boundary (satellite 5)
# ----------------------------------------------------------------------
def leader_partition_plan(seed: int) -> FaultPlan:
    """The old leader cut off from its peers mid-lease, healed later:
    clients still reach it, so any read it parks must wait out the window
    it can no longer extend while the majority side elects and commits."""
    return FaultPlan(
        name="lease-holder-partition",
        partitions=(
            Partition(left=("coor",), right=("coor.2", "coor.3"), start=8, heal=120),
        ),
        retry=RetryPolicy(timeout_steps=10, max_attempts=8),
        seed=seed,
    )


@pytest.mark.parametrize("seed", range(5))
def test_no_stale_read_across_the_election_boundary(seed):
    """The stale-read schedule leases exist to forbid: partition the lease
    holder mid-window, let the majority elect a new leader and commit, and
    require — by the streaming monitor *and* the post-mortem checker —
    that no read is ever served outside a proven window."""
    plane = ObservabilityPlane(monitors=True)
    handle = run_fixed_workload(
        "algorithm-b",
        scheduler=ChaosScheduler(base=RandomScheduler(seed=seed), seed=seed),
        seed=seed,
        consensus_factor=3,
        leases=True,
        plan=leader_partition_plan(seed),
        obs=plane,
        run_to_completion=False,
    )
    # The schedule really crossed the boundary: lease activity existed and
    # the majority side moved to a later term while "coor" was cut off.
    assert lease_internals(handle, "lease-acquired"), seed
    terms = [int(i["term"]) for i in lease_internals(handle, "became-leader")]
    assert terms and max(terms) >= 2, (seed, terms)
    # Safety, both ways — the monitor saw every action as it appended, the
    # checker replays the finished trace; both must agree there is nothing.
    lease_alerts = [a for a in plane.monitors.alerts if a.monitor == "lease-safety"]
    assert not lease_alerts, [a.describe() for a in lease_alerts]
    assert offline_lease_violations(handle.trace()) == []
    assert not handle.simulation.incomplete_transactions(), seed
    assert handle.serializability().ok, seed
    invariants.check_all(handle)


# ----------------------------------------------------------------------
# White-box negatives: the monitor trips, at the exact index, both ways
# ----------------------------------------------------------------------
def internal(actor, **info):
    return Action(kind=ActionKind.INTERNAL, actor=actor, info=tuple(info.items()))


def window(member, term, start, until):
    return internal(
        member,
        consensus="lease-acquired",
        term=term,
        member=member,
        start=start,
        until=until,
        vtime=start,
    )


def local_read(member, term, vtime, until=0):
    return internal(
        member,
        consensus="local-read",
        term=term,
        member=member,
        request="get-tag-arr/R1",
        vtime=vtime,
        until=until,
    )


def elected(member, term, vtime):
    return internal(
        member, consensus="became-leader", term=term, member=member, vtime=vtime
    )


def assert_parity(actions, expected_indices):
    """The streaming suite and the offline replay flag the same indices."""
    suite = MonitorSuite(monitors=(LeaseSafetyMonitor(),))
    for action in actions:
        suite.on_action(action)
    assert [a.trace_index for a in suite.alerts] == list(expected_indices)
    assert [i for i, _ in offline_lease_violations(actions)] == list(expected_indices)


def test_monitor_accepts_a_clean_lease_history():
    assert_parity(
        [
            elected("m1", 1, 0),
            window("m1", 1, 5, 45),
            local_read("m1", 1, 10, until=45),
            window("m1", 1, 20, 60),  # the holder extending itself is benign
            local_read("m1", 1, 59, until=60),
            elected("m2", 2, 60),  # after expiry: fine
            window("m2", 2, 61, 101),
        ],
        [],
    )


def test_monitor_flags_a_read_outside_any_window():
    assert_parity([local_read("m1", 1, 10)], [0])


def test_monitor_flags_a_read_after_expiry():
    assert_parity(
        [window("m1", 1, 5, 45), local_read("m1", 1, 45, until=45)],
        [1],
    )


def test_monitor_flags_a_read_under_a_stale_term_window():
    assert_parity(
        [window("m1", 1, 5, 45), local_read("m1", 2, 10, until=45)],
        [1],
    )


def test_monitor_flags_overlapping_windows_across_members():
    assert_parity(
        [window("m1", 1, 5, 45), window("m2", 2, 30, 70)],
        [1],
    )


def test_monitor_accepts_a_stale_proof_of_a_dead_window():
    """Acks delayed across a partition can prove a window wholly in the
    past *after* the new leader announced its own — the intervals do not
    overlap, no read can be served in the dead window, so it is noise,
    not a violation (the schedule seed 2 of the election-boundary test
    actually produces)."""
    assert_parity(
        [window("m2", 2, 88, 128), window("m1", 1, 6, 46)],
        [],
    )


def test_monitor_flags_an_election_inside_a_live_foreign_window():
    assert_parity(
        [window("m1", 1, 5, 45), elected("m2", 2, 20)],
        [1],
    )
