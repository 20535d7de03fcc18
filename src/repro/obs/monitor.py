"""Streaming invariant monitors: the offline safety checkers, made online.

The post-mortem checkers in ``tests/invariants.py`` discover a safety
violation only after the run ends — at event 400 of a 50k-event chaos run,
49.6k more events execute before anyone notices.  This module re-implements
the same invariants as *incremental automata* fed by the trace observer
hook (``Trace.set_observer`` → :meth:`ObservabilityPlane.on_action` →
:meth:`MonitorSuite.on_action`), each maintaining O(1)-per-event state:

* **election safety** — at most one leader per term, from the
  ``consensus="became-leader"`` internal actions;
* **log matching / state-machine safety** — every applied ``(index, term,
  request)`` triple must agree across members, from ``consensus="apply"``;
* **quorum intersection across epochs** — every ``joint-begin`` the run
  enters is checked against the build's quorum policy the moment the joint
  configuration opens (the same exhaustive minimal-subset check the offline
  checker runs, shared via :func:`joint_quorums_intersect`);
* **at-most-one-config-in-flight** — ``joint-begin``/``commit`` markers
  (storage and consensus alike) must strictly alternate;
* **lease safety** — no locally-served read outside its leader's proven
  lease window, no two overlapping windows across members, no election
  completing inside a live foreign lease (from the ``lease-*`` and
  ``local-read`` internal actions of :mod:`repro.consensus.lease`).

A broken rule produces a structured :class:`InvariantViolation` carrying the
global trace index, the automaton, and a bounded causal suffix of the most
recent actions.  With ``halt_on_violation`` the suite raises
:class:`InvariantViolationError` from inside the observer — the exception
propagates out of ``Trace.append`` and out of ``Simulation.step``, halting a
chaos run at the first offending event instead of thousands later.

The suite is a pure listener: it never appends actions, never touches the
scheduler or RNG, so a monitored run's trace stays byte-identical (pinned by
the golden-signature tests).  Alerts carry each action's global trace index;
an action fed without one (straight to :meth:`MonitorSuite.on_action`) is
numbered by the suite's own running event count.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Any, Deque, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..ioa.actions import Action, ActionKind


def joint_quorums_intersect(old, new, policy) -> bool:
    """Exhaustive check that every read quorum of ``C_old,new`` intersects
    every write quorum of ``C_old`` and of ``C_new`` (minimal subsets
    suffice: any larger quorum contains a minimal one).

    Shared by the offline checker (``tests/invariants.py``) and the online
    :class:`QuorumIntersectionMonitor`, so "online/offline parity" for this
    rule holds by construction.
    """
    r_old, r_new = policy.read_quorum(len(old)), policy.read_quorum(len(new))
    w_old, w_new = policy.write_quorum(len(old)), policy.write_quorum(len(new))
    read_quorums = [
        set(ro) | set(rn)
        for ro in combinations(old, r_old)
        for rn in combinations(new, r_new)
    ]
    write_quorums = [set(w) for w in combinations(old, w_old)]
    write_quorums += [set(w) for w in combinations(new, w_new)]
    return all(rq & wq for rq in read_quorums for wq in write_quorums)


@dataclass(frozen=True)
class InvariantViolation:
    """One broken safety rule, caught the moment it entered the trace."""

    monitor: str
    trace_index: int
    actor: str
    message: str
    #: human-readable describes of the last few actions before (and
    #: including) the offending one — the bounded causal suffix.
    suffix: Tuple[str, ...] = ()

    def describe(self) -> str:
        lines = [
            f"[{self.monitor}] violated at trace index {self.trace_index} "
            f"(actor {self.actor}): {self.message}"
        ]
        if self.suffix:
            lines.append("  causal suffix (newest last):")
            lines.extend(f"    {line}" for line in self.suffix)
        return "\n".join(lines)


class InvariantViolationError(AssertionError):
    """Raised by ``halt_on_violation`` suites; carries the violation."""

    def __init__(self, violation: InvariantViolation) -> None:
        super().__init__(violation.describe())
        self.violation = violation


class OnlineMonitor:
    """One incremental invariant automaton.

    Subclasses implement :meth:`observe`, returning ``None`` while the rule
    holds and a violation message the moment it breaks.  State must be
    O(1)-updatable per event; the suite handles alert packaging.

    ``kinds`` is the subscription: the action kinds the suite hands to
    :meth:`observe` (``None``, the default, = every action).  A monitor that
    declares kinds is never asked about the others, so its ``observe`` must
    return ``None`` for them anyway — direct callers still pass everything.
    """

    name = "abstract"
    kinds: Optional[FrozenSet[ActionKind]] = None

    def observe(self, action: Action, index: int) -> Optional[str]:
        raise NotImplementedError

    def describe(self) -> str:
        return self.name


_INTERNAL = frozenset({ActionKind.INTERNAL})


class ElectionSafetyMonitor(OnlineMonitor):
    """At most one leader per term (dict term → first elected member)."""

    name = "election-safety"
    kinds = _INTERNAL

    def __init__(self) -> None:
        self._leader_of_term: Dict[Any, str] = {}

    def observe(self, action: Action, index: int) -> Optional[str]:
        if action.kind is not ActionKind.INTERNAL:
            return None
        if action.get("consensus") != "became-leader":
            return None
        term = action.get("term")
        member = str(action.get("member", action.actor))
        holder = self._leader_of_term.get(term)
        if holder is None:
            self._leader_of_term[term] = member
            return None
        if holder != member:
            return (
                f"term {term} elected both {holder!r} and {member!r} "
                "(election safety requires at most one leader per term)"
            )
        return None


class LogMatchingMonitor(OnlineMonitor):
    """Applied entries agree across members and across re-applies.

    This is the streaming face of both offline log checkers (log matching
    and state-machine safety): a log index holds one entry, so every apply
    at that index — by any member, and again by a member that re-applies
    its log after amnesia — must name the same ``(term, request)``.  The
    first apply defines the canonical entry; every later one is compared
    against it.  State: one canonical pair per log index — O(1) per event.
    """

    name = "log-matching"
    kinds = _INTERNAL

    def __init__(self) -> None:
        self._canon: Dict[Any, Tuple[Any, Any]] = {}

    def observe(self, action: Action, index: int) -> Optional[str]:
        if action.kind is not ActionKind.INTERNAL:
            return None
        if action.get("consensus") != "apply":
            return None
        log_index = action.get("index")
        entry = (action.get("term"), action.get("request"))
        expected = self._canon.setdefault(log_index, entry)
        if expected != entry:
            member = str(action.get("member", action.actor))
            return (
                f"log index {log_index} applied as term={expected[0]} "
                f"request={expected[1]!r} earlier but as term={entry[0]} "
                f"request={entry[1]!r} at {member}"
            )
        return None


def _split_group(value: Any) -> Tuple[str, ...]:
    """The reconfig driver's internal actions carry groups comma-joined."""
    if not value:
        return ()
    return tuple(str(value).split(","))


class QuorumIntersectionMonitor(OnlineMonitor):
    """Every joint configuration keeps read/write quorum intersection.

    Checked at the ``joint-begin`` (and ``cns-joint-begin``) marker — the
    instant the joint configuration opens — against the quorum policy the
    system was built with (:meth:`MonitorSuite.set_quorum_policy`, wired by
    ``Protocol.build``).  Without a policy the monitor stays silent: a
    standalone plane has no way to know the quorum rule.
    """

    name = "quorum-intersection"
    kinds = _INTERNAL

    def __init__(self) -> None:
        self._policy: Optional[Any] = None

    def set_quorum_policy(self, policy: Any) -> None:
        self._policy = policy

    def observe(self, action: Action, index: int) -> Optional[str]:
        if action.kind is not ActionKind.INTERNAL or self._policy is None:
            return None
        what = action.get("reconfig")
        if what not in ("joint-begin", "cns-joint-begin"):
            return None
        old = _split_group(action.get("old"))
        new = _split_group(action.get("new"))
        if not old or not new:
            return None
        if not joint_quorums_intersect(old, new, self._policy):
            return (
                f"joint config {old} -> {new} (epoch {action.get('epoch')}) "
                f"has a read quorum missing a write quorum under "
                f"{self._policy.describe()}"
            )
        return None


class ConfigInFlightMonitor(OnlineMonitor):
    """At most one configuration change in flight: ``joint-begin`` and
    ``commit`` markers (storage *and* consensus — the directory serializes
    them globally) must strictly alternate."""

    name = "config-in-flight"
    kinds = _INTERNAL

    def __init__(self) -> None:
        self._in_flight = False

    def observe(self, action: Action, index: int) -> Optional[str]:
        if action.kind is not ActionKind.INTERNAL:
            return None
        what = action.get("reconfig")
        if what in ("joint-begin", "cns-joint-begin"):
            if self._in_flight:
                return (
                    f"{what} at epoch {action.get('epoch')} while a "
                    "configuration change was still in flight"
                )
            self._in_flight = True
        elif what in ("commit", "cns-commit"):
            if not self._in_flight:
                return f"{what} at epoch {action.get('epoch')} without a joint-begin"
            self._in_flight = False
        return None


class LeaseSafetyMonitor(OnlineMonitor):
    """No stale read across a lease/election boundary (O(1) per event).

    Three rules over the lease internal actions
    (:mod:`repro.consensus.lease`):

    * a ``local-read`` must fall inside its server's *announced* lease
      window — same member, same term, vtime strictly before the proven
      expiry (``lease-acquired``/``lease-renewed`` announce windows);
    * a newly announced window must not overlap — as a time interval —
      the latest-expiring window of a *different* member (the holder
      itself may extend or re-acquire, and a proof that arrives late, for
      a window already wholly in the past, is stale but harmless: no read
      can be served in it);
    * an election must not complete while another member's window is live
      (``became-leader`` during a live foreign lease is exactly the
      boundary a stale read could cross).

    State: the current window per member plus the running latest-expiring
    window — no per-read or per-term growth.
    """

    name = "lease-safety"
    kinds = _INTERNAL

    def __init__(self) -> None:
        #: member -> (term, start, until) of its newest announced window
        self._windows: Dict[str, Tuple[Any, int, int]] = {}
        #: the latest-expiring window seen so far: (member, start, until)
        self._max_member: Optional[str] = None
        self._max_start = 0
        self._max_until = 0

    def _announce(self, member: str, start: int, until: int) -> None:
        if until > self._max_until:
            self._max_member = member
            self._max_start = start
            self._max_until = until

    def observe(self, action: Action, index: int) -> Optional[str]:
        if action.kind is not ActionKind.INTERNAL:
            return None
        kind = action.get("consensus")
        if kind == "local-read":
            member = str(action.get("member", action.actor))
            term = action.get("term")
            vtime = int(action.get("vtime", 0))
            window = self._windows.get(member)
            if window is None:
                return (
                    f"{member} served {action.get('request')!r} locally at "
                    f"vtime {vtime} without ever announcing a lease window"
                )
            w_term, w_start, w_until = window
            if w_term != term:
                return (
                    f"{member} served {action.get('request')!r} locally in "
                    f"term {term} under a window proven in term {w_term}"
                )
            if vtime >= w_until:
                return (
                    f"{member} served {action.get('request')!r} locally at "
                    f"vtime {vtime}, outside its proven lease window "
                    f"[{w_start}, {w_until})"
                )
            return None
        if kind in ("lease-acquired", "lease-renewed"):
            member = str(action.get("member", action.actor))
            start = int(action.get("start", 0))
            until = int(action.get("until", 0))
            if (
                self._max_member is not None
                and self._max_member != member
                and start < self._max_until
                and self._max_start < until
            ):
                other, o_start, o_until = self._max_member, self._max_start, self._max_until
                self._windows[member] = (action.get("term"), start, until)
                self._announce(member, start, until)
                return (
                    f"{member}'s lease window [{start}, {until}) overlaps "
                    f"{other!r}'s window [{o_start}, {o_until}) — "
                    "two lease holders could serve diverging reads"
                )
            self._windows[member] = (action.get("term"), start, until)
            self._announce(member, start, until)
            return None
        if kind == "became-leader":
            member = str(action.get("member", action.actor))
            vtime = int(action.get("vtime", 0))
            if (
                self._max_member is not None
                and self._max_member != member
                and vtime < self._max_until
            ):
                return (
                    f"{member} won an election at vtime {vtime} while "
                    f"{self._max_member!r}'s lease window was still live "
                    f"(until {self._max_until}) — elections must wait out "
                    "the old lease"
                )
            return None
        return None


def offline_lease_violations(actions: Sequence[Any]) -> List[Tuple[int, str]]:
    """Post-mortem lease-safety check: replay a trace through a fresh
    :class:`LeaseSafetyMonitor` and collect ``(trace_index, message)`` pairs.

    This *is* the online monitor run offline — online/offline parity for the
    lease invariant holds by construction, the same way
    :func:`joint_quorums_intersect` is shared by the quorum checkers.
    """
    monitor = LeaseSafetyMonitor()
    violations: List[Tuple[int, str]] = []
    for index, action in enumerate(actions):
        stamped = getattr(action, "index", -1)
        at = stamped if stamped >= 0 else index
        message = monitor.observe(action, at)
        if message is not None:
            violations.append((at, message))
    return violations


#: actions of causal suffix attached to each alert (newest last)
SUFFIX_WINDOW = 16


def default_monitors() -> Tuple[OnlineMonitor, ...]:
    """Fresh instances of all five streaming invariant automata."""
    return (
        ElectionSafetyMonitor(),
        LogMatchingMonitor(),
        QuorumIntersectionMonitor(),
        ConfigInFlightMonitor(),
        LeaseSafetyMonitor(),
    )


class MonitorSuite:
    """The streaming monitors of one run, plus alert plumbing.

    ``halt_on_violation`` raises :class:`InvariantViolationError` from the
    observer at the first broken rule (for chaos runs that should stop at
    the offending event); otherwise alerts accumulate in :attr:`alerts` for
    end-of-run assertions.  Each alert carries the last
    :data:`SUFFIX_WINDOW` actions as its causal suffix.

    Every action is counted and enters the suffix; a monitor is asked only
    about the kinds it subscribed to (:attr:`OnlineMonitor.kinds` — the five
    shipped monitors read ``INTERNAL`` actions alone), in suite order.
    """

    def __init__(
        self,
        monitors: Optional[Sequence[OnlineMonitor]] = None,
        halt_on_violation: bool = False,
    ) -> None:
        self.monitors: Tuple[OnlineMonitor, ...] = (
            tuple(monitors) if monitors is not None else default_monitors()
        )
        self._subscribers: Dict[ActionKind, Tuple[OnlineMonitor, ...]] = {
            kind: tuple(m for m in self.monitors if m.kinds is None or kind in m.kinds)
            for kind in ActionKind
        }
        self.halt_on_violation = halt_on_violation
        self.alerts: List[InvariantViolation] = []
        self._suffix: Deque[Action] = deque(maxlen=SUFFIX_WINDOW)
        #: running count of *observed* actions: the index given to an action
        #: fed unstamped, i.e. not through a trace.
        self._seen = 0

    # -- wiring ----------------------------------------------------------
    def set_quorum_policy(self, policy: Any) -> None:
        for monitor in self.monitors:
            setter = getattr(monitor, "set_quorum_policy", None)
            if setter is not None:
                setter(policy)

    # -- the per-event hook ---------------------------------------------
    def on_action(self, action: Action) -> None:
        index = action.index if action.index >= 0 else self._seen
        self._seen += 1
        self._suffix.append(action)
        for monitor in self._subscribers[action.kind]:
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

    # -- reading ---------------------------------------------------------
    @property
    def ok(self) -> bool:
        return not self.alerts

    def assert_ok(self) -> None:
        """Raise on any accumulated alert (end-of-run form of the gate)."""
        if self.alerts:
            raise InvariantViolationError(self.alerts[0])

    def describe(self) -> str:
        if not self.alerts:
            return (
                f"monitors ok: {', '.join(m.name for m in self.monitors)} "
                f"({self._seen} events observed)"
            )
        return "\n".join(v.describe() for v in self.alerts)


def watch_trace(trace: Any, suite: Optional[MonitorSuite] = None) -> MonitorSuite:
    """Attach a suite directly to a trace (no plane needed) and replay what
    the trace already holds, so late attachment still sees a full picture.

    Note the replay sees only *retained* records — attach before running
    (or use :class:`~repro.obs.ObservabilityPlane`, which attaches at build
    time) for exact monitoring under a ``ring`` trace mode.
    """
    suite = suite if suite is not None else MonitorSuite()
    for action in trace:
        suite.on_action(action)
    trace.set_observer(suite.on_action)
    return suite
