"""Schedulers: the adversary that controls asynchrony.

In the paper, every impossibility argument is carried by "the network" (an
adversary) choosing when to deliver which message and when to let which
automaton take a step.  In the simulator the same power is embodied by a
:class:`Scheduler`: at every step the kernel offers the set of *pending
events* (deliverable messages plus enabled transaction invocations) and the
scheduler picks one.

Provided policies:

* :class:`FIFOScheduler` — deliver in enqueue order (a synchronous-looking,
  "nice" network).
* :class:`RandomScheduler` — seeded uniform choice; used to fuzz protocols
  over many schedules.
* :class:`PriorityScheduler` — pick by an arbitrary key function.
* :class:`AdversarialScheduler` — a rule-driven adversary built from
  :class:`DelayRule` objects ("hold messages matching *this* until *that*
  has happened"), which is how the constructions of Figures 3–5 are driven.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, List, Mapping, Optional, Sequence, Tuple, Union

from .actions import FrozenRecord, Message, slot_setters
from .errors import SchedulerError


class PendingDelivery(FrozenRecord):
    """A sent-but-not-yet-delivered message.

    ``ready_at`` is a virtual-time stamp (in kernel steps) assigned by an
    installed fault plane's latency model; ``0`` (the default, and always the
    value on the reliable path) means "deliverable immediately".  Only
    latency-aware schedulers such as the chaos scheduler consult it.

    ``flight`` groups deliveries batched by fan-out batching (see
    ``Simulation.flight_scope``): choosing any member delivers the whole
    flight in one kernel event.  ``0`` — the default, and always the value
    unless a protocol explicitly opted into batching — means unbatched.
    """

    __slots__ = ("message", "enqueued_at", "ready_at", "flight")
    _fields = attrgetter(*__slots__)

    def __init__(self, message: Message, enqueued_at: int, ready_at: int = 0, flight: int = 0) -> None:
        _set_message(self, message)
        _set_enqueued_at(self, enqueued_at)
        _set_ready_at(self, ready_at)
        _set_flight(self, flight)

    def describe(self) -> str:
        when = f", ready @{self.ready_at}" if self.ready_at else ""
        grouped = f", flight #{self.flight}" if self.flight else ""
        return f"deliver {self.message.describe()} (enqueued @{self.enqueued_at}{when}{grouped})"


_set_message, _set_enqueued_at, _set_ready_at, _set_flight = slot_setters(PendingDelivery)


@dataclass(frozen=True)
class PendingInvocation:
    """An external transaction invocation waiting to be issued to a client."""

    client: str
    txn: Any
    txn_id: Any
    enqueued_at: int

    def describe(self) -> str:
        return f"invoke {self.txn_id} at {self.client} (enqueued @{self.enqueued_at})"


@dataclass(frozen=True)
class PendingTimeout:
    """A timer armed by an automaton via ``Context.set_timeout``.

    ``ready_at`` is the virtual-time step at which the timer may fire; the
    kernel only offers a timeout to the scheduler once it is ripe (the fault
    plane's clock — or, without one, the step counter, fast-forwarded at
    idle), so under any scheduler a timeout models "this fires only after the
    delay has elapsed, and certainly once the system would otherwise sit
    still".  Timeouts are what drive the consensus layer's leader elections;
    systems that arm none behave byte-for-byte as before this type existed.
    """

    owner: str
    info: Mapping[str, Any]
    enqueued_at: int
    ready_at: int

    def describe(self) -> str:
        return f"timeout at {self.owner} (ready @{self.ready_at})"


PendingEvent = Union[PendingDelivery, PendingInvocation, PendingTimeout]


class Scheduler:
    """Base scheduler interface.  The kernel only ever asks :meth:`pick`.

    * Override :meth:`choose` and you are asked on every step with the list of
      pending events in the canonical order (deliveries, ripe timeouts, ready
      invocations): the inherited :meth:`pick` builds it for you.
    * Override :meth:`pick` and you answer from the frontier's indexes, no
      list is built, and you must return the very event your ``choose`` would
      have indexed (:class:`FIFOScheduler` does; ``tests/ioa/test_frontier.py``
      pins the two equal).

    A subclass that redefines ``choose`` alone gets the list-based ``pick``
    back, so a fast ``pick`` inherited from its parent can never bypass it.
    """

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if "choose" in cls.__dict__ and "pick" not in cls.__dict__:
            cls.pick = Scheduler.pick

    def choose(self, pending: Sequence[PendingEvent], kernel: Any) -> int:
        """Return the index (into ``pending``) of the event to execute next."""
        raise NotImplementedError

    def pick(self, frontier: Any, kernel: Any) -> PendingEvent:
        """Return the event of ``frontier`` (non-idle) to execute next."""
        pending = frontier.events(kernel.now)
        return pending[self.choose(pending, kernel)]

    def reset(self) -> None:
        """Hook called when a simulation starts (schedulers may keep state)."""

    # ------------------------------------------------------------------
    @staticmethod
    def validate_choice(choice: int, pending: Sequence[PendingEvent]) -> int:
        if not pending:
            raise SchedulerError("choose() called with no pending events")
        if not (0 <= choice < len(pending)):
            raise SchedulerError(f"scheduler chose index {choice} out of {len(pending)} pending events")
        return choice


class FIFOScheduler(Scheduler):
    """Always execute the oldest pending event (by enqueue order).

    Messages are delivered in the order they were sent and transactions are
    invoked in the order they were submitted — the "nice", synchronous-looking
    network.  Enqueue order is the ``enqueued_at`` stamp, not list position,
    so queued transaction invocations and in-flight messages interleave by
    age rather than by kind.
    """

    def choose(self, pending: Sequence[PendingEvent], kernel: Any) -> int:
        if not pending:
            raise SchedulerError("choose() called with no pending events")
        # Hot path: a plain loop beats min()-with-lambda, and enqueue stamps
        # are globally unique so first-index-wins tie-breaking never triggers.
        oldest = 0
        oldest_at = pending[0].enqueued_at
        for index in range(1, len(pending)):
            at = pending[index].enqueued_at
            if at < oldest_at:
                oldest, oldest_at = index, at
        return oldest

    def pick(self, frontier: Any, kernel: Any) -> PendingEvent:
        event = frontier.oldest(kernel.now)
        if event is None:
            raise SchedulerError("pick() called with no pending events")
        return event


class LIFOScheduler(Scheduler):
    """Always execute the newest pending event (a pathological but legal network)."""

    def choose(self, pending: Sequence[PendingEvent], kernel: Any) -> int:
        if not pending:
            raise SchedulerError("choose() called with no pending events")
        newest = 0
        newest_at = pending[0].enqueued_at
        for index in range(1, len(pending)):
            at = pending[index].enqueued_at
            if at >= newest_at:
                newest, newest_at = index, at
        return newest


class RandomScheduler(Scheduler):
    """Seeded uniform random choice among pending events.

    Determinism matters: the same seed always produces the same execution,
    so failures found by the fuzzing harness are replayable.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)

    def reset(self) -> None:
        self._rng = random.Random(self.seed)

    def choose(self, pending: Sequence[PendingEvent], kernel: Any) -> int:
        return self.validate_choice(self._rng.randrange(len(pending)), pending)


class PriorityScheduler(Scheduler):
    """Choose the pending event minimising ``key(event)`` (ties: oldest first)."""

    def __init__(self, key: Callable[[PendingEvent], Any]) -> None:
        self._key = key

    def choose(self, pending: Sequence[PendingEvent], kernel: Any) -> int:
        best = min(range(len(pending)), key=lambda i: (self._key(pending[i]), i))
        return self.validate_choice(best, pending)


# ----------------------------------------------------------------------
# Rule-driven adversary
# ----------------------------------------------------------------------
@dataclass
class DelayRule:
    """Hold back pending events matching ``holds`` until ``until`` is true.

    ``holds`` receives the pending event; ``until`` receives the kernel
    (giving access to the trace, transaction records and automaton state),
    so rules can express schedules such as *"do not deliver the read request
    to server B until the first write has been applied there"* — precisely
    the constructions used in Figures 3–5 of the paper.

    ``name`` is used in error messages and reports; ``one_shot`` rules are
    dropped after they release (their ``until`` became true once).
    """

    name: str
    holds: Callable[[PendingEvent], bool]
    until: Callable[[Any], bool]
    one_shot: bool = False
    released: bool = field(default=False, init=False)

    def active(self, kernel: Any) -> bool:
        if self.released:
            return False
        if self.until(kernel):
            if self.one_shot:
                self.released = True
            return False
        return True


class AdversarialScheduler(Scheduler):
    """A scheduler that applies :class:`DelayRule` filters over a base policy.

    At each step the rules are evaluated; any pending event held by an active
    rule is excluded, and the base policy (FIFO by default) picks among the
    rest.  If *every* pending event is held, behaviour depends on
    ``release_when_stuck``:

    * ``True`` (default): the oldest event is released anyway — the network
      is reliable, so no message can be delayed forever; this mirrors the
      paper's model where the adversary can reorder but not drop messages.
    * ``False``: a :class:`SchedulerError` is raised, which is useful in
      tests that want to assert a construction never wedges.
    """

    def __init__(
        self,
        rules: Optional[Sequence[DelayRule]] = None,
        base: Optional[Scheduler] = None,
        release_when_stuck: bool = True,
    ) -> None:
        self.rules: List[DelayRule] = list(rules or [])
        self.base = base or FIFOScheduler()
        self.release_when_stuck = release_when_stuck

    def add_rule(self, rule: DelayRule) -> None:
        self.rules.append(rule)

    def reset(self) -> None:
        for rule in self.rules:
            rule.released = False
        self.base.reset()

    def choose(self, pending: Sequence[PendingEvent], kernel: Any) -> int:
        if not pending:
            raise SchedulerError("choose() called with no pending events")
        active_rules = [rule for rule in self.rules if rule.active(kernel)]
        eligible = [
            i for i, event in enumerate(pending) if not any(rule.holds(event) for rule in active_rules)
        ]
        if not eligible:
            if self.release_when_stuck:
                return 0
            held_by = ", ".join(rule.name for rule in active_rules)
            raise SchedulerError(f"all {len(pending)} pending events are held (rules: {held_by})")
        sub = [pending[i] for i in eligible]
        picked = self.base.choose(sub, kernel)
        return eligible[picked]


# ----------------------------------------------------------------------
# Rule helpers
# ----------------------------------------------------------------------
def holds_message(
    msg_type: Optional[str] = None,
    src: Optional[str] = None,
    dst: Optional[str] = None,
    predicate: Optional[Callable[[Message], bool]] = None,
) -> Callable[[PendingEvent], bool]:
    """Build a ``holds`` predicate matching deliveries by type/src/dst."""

    def _holds(event: PendingEvent) -> bool:
        if not isinstance(event, PendingDelivery):
            return False
        message = event.message
        if msg_type is not None and message.msg_type != msg_type:
            return False
        if src is not None and message.src != src:
            return False
        if dst is not None and message.dst != dst:
            return False
        if predicate is not None and not predicate(message):
            return False
        return True

    return _holds


def holds_invocation(client: Optional[str] = None, txn_id: Optional[Any] = None) -> Callable[[PendingEvent], bool]:
    """Build a ``holds`` predicate matching invocation events."""

    def _holds(event: PendingEvent) -> bool:
        if not isinstance(event, PendingInvocation):
            return False
        if client is not None and event.client != client:
            return False
        if txn_id is not None and event.txn_id != txn_id:
            return False
        return True

    return _holds


def until_transaction_done(txn_id: Any) -> Callable[[Any], bool]:
    """``until`` predicate: transaction ``txn_id`` has responded."""

    def _until(kernel: Any) -> bool:
        record = kernel.transaction_record(txn_id)
        return record is not None and record.respond_index is not None

    return _until


def until_message_delivered(
    msg_type: str, src: Optional[str] = None, dst: Optional[str] = None
) -> Callable[[Any], bool]:
    """``until`` predicate: some message of this shape has been received."""

    def _until(kernel: Any) -> bool:
        from .actions import ActionKind

        for action in kernel.trace:
            if action.kind != ActionKind.RECV or action.message is None:
                continue
            message = action.message
            if message.msg_type != msg_type:
                continue
            if src is not None and message.src != src:
                continue
            if dst is not None and message.dst != dst:
                continue
            return True
        return False

    return _until


def never(kernel: Any) -> bool:
    """``until`` predicate that never fires (pure reordering pressure)."""
    return False
