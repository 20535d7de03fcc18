"""Unit tests for the streaming invariant monitors.

Each automaton is fed hand-forged internal actions (the same marker payloads
the consensus/reconfig layers emit) so violations can be injected precisely;
the suite-level tests check alert packaging, the exact offending trace index
and the ``halt_on_violation`` path out of ``Trace.append``.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.faults import ChaosScheduler, FaultPlan
from repro.faults.plan import CrashEvent
from repro.ioa import FIFOScheduler, RandomScheduler, Trace
from repro.ioa.actions import Action, ActionKind
from repro.obs import (
    InvariantViolation,
    InvariantViolationError,
    MonitorSuite,
    OnlineMonitor,
    default_monitors,
    watch_trace,
)
from repro.obs.monitor import (
    ConfigInFlightMonitor,
    ElectionSafetyMonitor,
    LogMatchingMonitor,
    QuorumIntersectionMonitor,
)

from tests import invariants
from tests.obs.conftest import run_observed


def internal(actor, **info):
    return Action(kind=ActionKind.INTERNAL, actor=actor, info=tuple(info.items()))


def leader(member, term):
    return internal(member, consensus="became-leader", term=term, member=member)


def apply_entry(member, index, term, request):
    return internal(
        member, consensus="apply", index=index, term=term, request=request
    )


def reconfig_marker(kind, epoch, **extra):
    return internal("reconfig-driver", reconfig=kind, epoch=epoch, **extra)


# ----------------------------------------------------------------------
# Election safety
# ----------------------------------------------------------------------
def test_election_safety_accepts_one_leader_per_term():
    monitor = ElectionSafetyMonitor()
    assert monitor.observe(leader("m1", 1), 0) is None
    assert monitor.observe(leader("m2", 2), 1) is None
    # re-announcement by the same member is benign
    assert monitor.observe(leader("m2", 2), 2) is None


def test_election_safety_flags_a_second_leader_in_one_term():
    monitor = ElectionSafetyMonitor()
    assert monitor.observe(leader("m1", 3), 0) is None
    message = monitor.observe(leader("m2", 3), 1)
    assert message is not None and "term 3" in message


# ----------------------------------------------------------------------
# Log matching
# ----------------------------------------------------------------------
def test_log_matching_accepts_agreeing_members():
    monitor = LogMatchingMonitor()
    for member in ("m1", "m2", "m3"):
        assert monitor.observe(apply_entry(member, 1, 1, "W1"), 0) is None
        assert monitor.observe(apply_entry(member, 2, 1, "W2"), 1) is None


def test_log_matching_flags_a_different_reapply_at_one_index():
    """A log index holds one entry: a member applying a second, different
    request at an index it already applied is a conflict, not a sub-entry."""
    monitor = LogMatchingMonitor()
    assert monitor.observe(apply_entry("m1", 5, 2, "Wa"), 0) is None
    assert monitor.observe(apply_entry("m2", 5, 2, "Wa"), 1) is None
    message = monitor.observe(apply_entry("m1", 5, 2, "Wb"), 2)
    assert message is not None and "log index 5" in message and "'Wb'" in message


def test_log_matching_accepts_an_amnesiac_members_identical_reapply():
    """A volatile consensus member that crashes with amnesia re-applies its
    log once it recovers; the repeat applies are compared against the first
    ones and agree, so the cell runs with no alert."""
    plan = FaultPlan(
        name="amnesia",
        crashes=(CrashEvent("coor.2", at=60, recover=160, preserve_state=False),),
        seed=0,
    )
    handle, plane = run_observed(
        "algorithm-b",
        monitors=True,
        plan=plan,
        scheduler=ChaosScheduler(base=RandomScheduler(seed=0), seed=0),
        seed=0,
        replication_factor=3,
        quorum="majority",
        consensus_factor=3,
        run_to_completion=False,
    )
    applies = Counter(
        (action.actor, action.get("index"))
        for action in handle.trace()
        if action.get("consensus") == "apply"
    )
    assert any(actor == "coor.2" and count > 1 for (actor, _), count in applies.items()), (
        "coor.2 never re-applied an index — the cell no longer exercises amnesia"
    )
    assert plane.monitors.alerts == []
    assert all(record.complete for record in handle.transaction_records())


def test_log_matching_flags_divergent_entries():
    monitor = LogMatchingMonitor()
    assert monitor.observe(apply_entry("m1", 4, 2, "W9"), 0) is None
    message = monitor.observe(apply_entry("m2", 4, 2, "W8"), 1)
    assert message is not None and "log index 4" in message


def test_log_matching_flags_term_divergence_too():
    monitor = LogMatchingMonitor()
    assert monitor.observe(apply_entry("m1", 4, 2, "W9"), 0) is None
    message = monitor.observe(apply_entry("m2", 4, 3, "W9"), 1)
    assert message is not None


# ----------------------------------------------------------------------
# Quorum intersection
# ----------------------------------------------------------------------
class _DisjointPolicy:
    """A deliberately broken policy: one-member read and write quorums, so
    disjoint old/new groups cannot intersect."""

    def read_quorum(self, n):
        return 1

    def write_quorum(self, n):
        return 1

    def describe(self):
        return "broken(r=1, w=1)"


def test_quorum_intersection_silent_without_a_policy():
    monitor = QuorumIntersectionMonitor()
    marker = reconfig_marker("joint-begin", 1, old="s1,s2,s3", new="s1,s2,s4")
    assert monitor.observe(marker, 0) is None


def test_quorum_intersection_accepts_majority_quorums():
    from repro.txn.placement import quorum_policy

    monitor = QuorumIntersectionMonitor()
    monitor.set_quorum_policy(quorum_policy("majority"))
    marker = reconfig_marker("joint-begin", 1, old="s1,s2,s3", new="s1,s2,s4")
    assert monitor.observe(marker, 0) is None


def test_quorum_intersection_flags_a_broken_policy():
    monitor = QuorumIntersectionMonitor()
    monitor.set_quorum_policy(_DisjointPolicy())
    marker = reconfig_marker("cns-joint-begin", 2, old="s1,s2", new="s3,s4")
    message = monitor.observe(marker, 0)
    assert message is not None and "read quorum" in message


# ----------------------------------------------------------------------
# At most one config in flight
# ----------------------------------------------------------------------
def test_config_in_flight_accepts_strict_alternation():
    monitor = ConfigInFlightMonitor()
    sequence = [
        reconfig_marker("joint-begin", 1),
        reconfig_marker("commit", 1),
        reconfig_marker("cns-joint-begin", 2),
        reconfig_marker("cns-commit", 2),
    ]
    for i, marker in enumerate(sequence):
        assert monitor.observe(marker, i) is None


def test_config_in_flight_flags_overlapping_changes():
    monitor = ConfigInFlightMonitor()
    assert monitor.observe(reconfig_marker("joint-begin", 1), 0) is None
    message = monitor.observe(reconfig_marker("cns-joint-begin", 2), 1)
    assert message is not None and "still in flight" in message


def test_config_in_flight_flags_a_commit_without_begin():
    monitor = ConfigInFlightMonitor()
    message = monitor.observe(reconfig_marker("commit", 1), 0)
    assert message is not None and "without a joint-begin" in message


# ----------------------------------------------------------------------
# Suite behaviour: alerts, indices, halting
# ----------------------------------------------------------------------
def test_suite_reports_the_exact_offending_trace_index():
    """The acceptance-criterion shape: a seeded violation is alerted at the
    first offending trace index, with a bounded causal suffix attached."""
    trace = Trace()
    suite = watch_trace(trace)
    trace.append(leader("m1", 7))
    trace.append(internal("m1", consensus="candidacy", term=8, member="m1"))
    offending = trace.append(leader("m2", 7))  # duplicate leader for term 7
    assert len(suite.alerts) == 1
    alert = suite.alerts[0]
    assert alert.monitor == "election-safety"
    assert alert.trace_index == offending.index == 2
    assert alert.actor == "m2"
    assert alert.suffix  # carries the causal suffix, newest last
    assert "m2" in alert.suffix[-1] or "became-leader" in alert.suffix[-1]
    assert not suite.ok
    with pytest.raises(InvariantViolationError):
        suite.assert_ok()


def test_halt_on_violation_raises_out_of_append():
    trace = Trace()
    suite = MonitorSuite(halt_on_violation=True)
    watch_trace(trace, suite)
    trace.append(leader("m1", 1))
    with pytest.raises(InvariantViolationError) as excinfo:
        trace.append(leader("m2", 1))
    violation = excinfo.value.violation
    assert violation.monitor == "election-safety"
    assert violation.trace_index == 1
    assert violation.describe().startswith("[election-safety]")


def test_suite_suffix_window_is_bounded():
    from repro.obs.monitor import SUFFIX_WINDOW

    trace = Trace()
    suite = watch_trace(trace)
    for term in range(1, SUFFIX_WINDOW + 5):
        trace.append(leader("m1", term))
    trace.append(leader("m2", SUFFIX_WINDOW + 4))
    assert len(suite.alerts) == 1
    assert len(suite.alerts[0].suffix) == SUFFIX_WINDOW
    assert suite.alerts[0].suffix[0] == trace[-SUFFIX_WINDOW].describe()


def test_watch_trace_replays_already_retained_actions():
    trace = Trace()
    trace.append(leader("m1", 1))
    trace.append(leader("m2", 1))  # violation already in the trace
    suite = watch_trace(trace)
    assert len(suite.alerts) == 1
    assert suite.alerts[0].trace_index == 1


def test_default_monitors_are_fresh_instances():
    a, b = default_monitors(), default_monitors()
    assert {m.name for m in a} == {
        "election-safety",
        "log-matching",
        "quorum-intersection",
        "config-in-flight",
        "lease-safety",
    }
    assert all(x is not y for x, y in zip(a, b))


# ----------------------------------------------------------------------
# Subscriptions: a monitor is asked about the kinds it declared
# ----------------------------------------------------------------------
class AskEveryMonitorSuite(MonitorSuite):
    """The suite before ``kinds`` existed, its loop verbatim: every monitor
    is asked about every action."""

    def on_action(self, action):
        index = action.index if action.index >= 0 else self._seen
        self._seen += 1
        self._suffix.append(action)
        for monitor in self.monitors:
            message = monitor.observe(action, index)
            if message is None:
                continue
            violation = InvariantViolation(
                monitor=monitor.name,
                trace_index=index,
                actor=action.actor,
                message=message,
                suffix=tuple(a.describe() for a in self._suffix),
            )
            self.alerts.append(violation)
            if self.halt_on_violation:
                raise InvariantViolationError(violation)


class Census(OnlineMonitor):
    """Counts what it is shown; ``kinds`` is left to the subclass."""

    name = "census"

    def __init__(self):
        self.seen = []

    def observe(self, action, index):
        self.seen.append((index, action.kind))
        return None


class SendCensus(Census):
    kinds = frozenset({ActionKind.SEND})


def leased_run(monitors):
    return run_observed(
        "algorithm-b",
        monitors=monitors,
        scheduler=FIFOScheduler(),
        replication_factor=3,
        quorum="majority",
        consensus_factor=3,
        leases=True,
    )


def test_a_monitor_that_declares_no_kinds_still_sees_every_action():
    everything, sends = Census(), SendCensus()
    handle, _plane = leased_run(MonitorSuite(monitors=(everything, *default_monitors(), sends)))
    actions = list(handle.trace())
    assert everything.seen == [(a.index, a.kind) for a in actions]
    assert {kind for _, kind in everything.seen} == set(ActionKind)
    assert sends.seen == [(a.index, a.kind) for a in actions if a.kind is ActionKind.SEND]
    assert 0 < len(sends.seen) < len(actions)


def poisoned_stream():
    """A real leased run's actions (every kind, in trace order) with one
    election and one lease violation forged into the middle of it."""
    handle, _plane = leased_run(None)
    actions = list(handle.trace())
    assert any(a.get("consensus") == "local-read" for a in actions)
    middle = len(actions) // 2
    forged = [
        leader("forged-a", 999),
        leader("forged-b", 999),  # a second leader for term 999
        internal("forged-c", consensus="local-read", member="forged-c", term=1, vtime=5, request="r"),
    ]
    return [*actions[:middle], *forged, *actions[middle:]], middle


def test_alerts_are_those_of_a_suite_that_asks_every_monitor_everything():
    """Same alerts, field for field: monitor, trace index, message and the
    causal suffix (which must still hold the actions nobody subscribed to)."""
    stream, middle = poisoned_stream()
    by_kind, everything = MonitorSuite(), AskEveryMonitorSuite()
    for action in stream:
        by_kind.on_action(action)
        everything.on_action(action)
    assert by_kind.alerts == everything.alerts and by_kind._seen == everything._seen == len(stream)
    # a forged election also lands inside the run's live lease window
    assert [(a.monitor, a.trace_index - middle) for a in by_kind.alerts] == [
        ("lease-safety", 0),
        ("election-safety", 1),
        ("lease-safety", 1),
        ("lease-safety", 2),
    ]
    window = stream[middle - 15 : middle + 1]
    assert by_kind.alerts[0].suffix == tuple(a.describe() for a in window)
    assert len({a.kind for a in window}) > 1


def test_halt_on_violation_raises_at_the_action_the_ask_everything_suite_raises_at():
    stream, middle = poisoned_stream()
    raised = []
    for suite in (MonitorSuite(halt_on_violation=True), AskEveryMonitorSuite(halt_on_violation=True)):
        with pytest.raises(InvariantViolationError) as excinfo:
            for fed, action in enumerate(stream):
                suite.on_action(action)
        raised.append((fed, excinfo.value.violation, suite._seen))
    assert raised[0] == raised[1] and raised[0][0] == middle


# ----------------------------------------------------------------------
# Live runs
# ----------------------------------------------------------------------
def test_clean_consensus_run_trips_no_monitor():
    handle, plane = run_observed(
        "algorithm-b",
        monitors=True,
        scheduler=FIFOScheduler(),
        replication_factor=3,
        quorum="majority",
        consensus_factor=3,
    )
    suite = plane.monitors
    assert suite.ok
    assert "monitors ok" in suite.describe()
    # the suite saw every appended action of the run
    assert suite._seen == len(handle.trace())


def test_forged_duplicate_leader_on_a_live_trace_is_alerted_at_its_index():
    """Inject the violation into a real finished run's trace: the alert must
    carry the forged action's true stamped index."""
    handle, plane = run_observed(
        "algorithm-b",
        monitors=True,
        scheduler=FIFOScheduler(),
        replication_factor=3,
        quorum="majority",
        consensus_factor=3,
    )
    suite = plane.monitors
    assert suite.ok  # a FIFO run designates its leader without an election
    handle.simulation.trace.append(leader("forged-a", 999))
    assert suite.ok  # first leader of term 999: no violation yet
    forged = handle.simulation.trace.append(leader("forged-b", 999))
    assert len(suite.alerts) == 1
    assert suite.alerts[0].trace_index == forged.index == len(handle.trace()) - 1
    # online/offline parity on the injected violation: the post-mortem
    # checker rejects the same trace ...
    with pytest.raises(AssertionError, match="term 999"):
        invariants.check_all(handle)
    # ... so unregister the deliberately poisoned handle before the autouse
    # teardown re-checks it.
    invariants.reset()


def test_build_wires_the_quorum_policy_into_the_suite():
    handle, plane = run_observed(
        "algorithm-b",
        monitors=True,
        scheduler=FIFOScheduler(),
        replication_factor=3,
        quorum="majority",
    )
    quorum_monitors = [
        m for m in plane.monitors.monitors if isinstance(m, QuorumIntersectionMonitor)
    ]
    assert quorum_monitors and quorum_monitors[0]._policy is not None
