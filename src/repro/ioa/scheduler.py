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
  has happened"), the base of the fault plane's adversarial chaos.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, List, Mapping, Optional, Sequence, Union

from .actions import FrozenRecord, Message
from .errors import SchedulerError


class PendingDelivery(FrozenRecord):
    """A sent-but-not-yet-delivered message.

    ``ready_at`` is a virtual-time stamp (in kernel steps) assigned by an
    installed fault plane's latency model; ``0`` (the default, and always the
    value on the reliable path) means "deliverable immediately".  The kernel
    offers the delivery to a scheduler only once its clock reaches the stamp.
    """

    __slots__ = ("message", "enqueued_at", "ready_at")

    def _fill(self, message: Message, enqueued_at: int, ready_at: int = 0) -> None:
        self.message = message
        self.enqueued_at = enqueued_at
        self.ready_at = ready_at


class PendingInvocation(FrozenRecord):
    """An external transaction invocation waiting to be issued to a client."""

    __slots__ = ("client", "txn", "txn_id", "enqueued_at")

    def _fill(self, client: str, txn: Any, txn_id: Any, enqueued_at: int) -> None:
        self.client = client
        self.txn = txn
        self.txn_id = txn_id
        self.enqueued_at = enqueued_at


class PendingTimeout(FrozenRecord):
    """A timer armed by an automaton via ``Context.set_timeout``.

    ``ready_at`` is the virtual-time step at which the timer may fire; the
    kernel only offers a timeout to the scheduler once its clock
    (``Simulation.now``, which jumps to the next timer at idle) has reached
    it, so under any scheduler a timeout models "this fires only after the
    delay has elapsed, and certainly once the system would otherwise sit
    still".  Timeouts are what drive the consensus layer's leader elections;
    systems that arm none behave byte-for-byte as before this type existed.
    """

    __slots__ = ("owner", "info", "enqueued_at", "ready_at")

    def _fill(self, owner: str, info: Mapping[str, Any], enqueued_at: int, ready_at: int) -> None:
        self.owner = owner
        self.info = info
        self.enqueued_at = enqueued_at
        self.ready_at = ready_at


PendingEvent = Union[PendingDelivery, PendingInvocation, PendingTimeout]


class Scheduler:
    """Base scheduler interface.  The kernel only ever asks :meth:`pick`.

    * Override :meth:`choose` and you are asked on every step with the list of
      ripe events in the canonical order (deliveries, timeouts, ready
      invocations): the inherited :meth:`pick` builds it for you.
    * Override :meth:`pick` and you answer from the frontier's indexes, no
      list is built, and you must return the very event your ``choose`` would
      have indexed (:class:`FIFOScheduler` answers from ``oldest``,
      :class:`RandomScheduler` from ``ripe_count`` and ``event_at``;
      ``tests/ioa/test_frontier.py`` pins each pair equal).

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


def draw_below(rng: random.Random, n: int) -> int:
    """A seeded integer in ``[0, n)``: the one integer draw of every plane.

    The rejection loop over ``getrandbits(n.bit_length())`` that CPython 3.11
    runs for ``rng.randrange(n)``, so it returns the same value and leaves
    ``rng`` in the same state, without ``randrange``'s two Python frames.
    Owning the loop also keeps schedules stable across interpreters: Python
    promises only ``random()``'s sequence between versions, not
    ``randrange``'s algorithm.  The workload generator's sampler
    (``repro.analysis.workload._sampler``) owns the same loop, once per
    index of a ``random.sample`` pick.
    """
    if n < 1:
        raise ValueError(f"draw_below needs n >= 1, got {n}")  # getrandbits(0) would loop forever
    getrandbits = rng.getrandbits
    bits = n.bit_length()
    drawn = getrandbits(bits)
    while drawn >= n:
        drawn = getrandbits(bits)
    return drawn


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
        if not pending:
            raise SchedulerError("choose() called with no pending events")
        return draw_below(self._rng, len(pending))  # in range by construction

    def pick(self, frontier: Any, kernel: Any) -> PendingEvent:
        now = kernel.now()
        count = frontier.ripe_count(now)
        if not count:
            raise SchedulerError("pick() called with no pending events")
        return frontier.event_at(draw_below(self._rng, count), now)


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
    to server B until the first write has been applied there"* — the kind
    of step the paper's constructions take.

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


def until_transaction_done(txn_id: Any) -> Callable[[Any], bool]:
    """``until`` predicate: transaction ``txn_id`` has responded."""

    def _until(kernel: Any) -> bool:
        record = kernel.transaction_record(txn_id)
        return record is not None and record.respond_index is not None

    return _until


def until_message_delivered(msg_type: str, dst: Optional[str] = None) -> Callable[[Any], bool]:
    """``until`` predicate: some message of this type (to ``dst``) has been received."""

    def _until(kernel: Any) -> bool:
        from .actions import ActionKind

        for action in kernel.trace:
            if action.kind != ActionKind.RECV or action.message is None:
                continue
            message = action.message
            if message.msg_type != msg_type:
                continue
            if dst is not None and message.dst != dst:
                continue
            return True
        return False

    return _until


def fracture_rules(read_id: str, write_id: str, late_server: str, early_server: str) -> List[DelayRule]:
    """The fractured-read schedule, as reusable delay rules.

    Hold the READ's request at ``late_server`` until the concurrent WRITE
    installed there (the read sees the *new* value), and hold the WRITE's
    install at ``early_server`` until the READ finished (the read saw the
    *old* value there) — no serial order explains the pair.
    """
    return [
        DelayRule(
            name=f"read-at-{late_server}-after-write-installed",
            holds=holds_message(dst=late_server, predicate=lambda m, r=read_id: m.get("txn") == r),
            until=until_message_delivered("write-val", dst=late_server),
        ),
        DelayRule(
            name=f"write-at-{early_server}-after-read-done",
            holds=holds_message(dst=early_server, predicate=lambda m, w=write_id: m.get("txn") == w),
            until=until_transaction_done(read_id),
        ),
    ]
