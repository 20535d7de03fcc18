"""The fault injector: a :class:`~repro.ioa.network.FaultPlane` implementation.

The injector sits between every ``send`` and the kernel's pending-delivery
set and enforces the active :class:`~repro.faults.plan.FaultPlan`:

* messages crossing an active partition, or addressed to a crashed server,
  are *held* in the injector's transport buffer and released when the
  partition heals / the server recovers (never, if the fault is permanent);
* messages may be dropped (and scheduled for retransmission under the plan's
  retry policy) or duplicated;
* surviving copies are stamped with a sampled virtual-time latency
  (``PendingDelivery.ready_at``) that the chaos scheduler honours.

Two invariants keep the rest of the repository sound:

* **At-most-once processing** — every admitted copy of a message carries the
  original ``msg_id``; the first delivery registers it and later copies are
  suppressed (they consume a scheduler step but record no trace action and
  never reach the automaton), so protocols written for reliable channels
  need no dedup logic and the SNOW checkers see exactly the protocol-level
  exchange.
* **Determinism** — all randomness comes from one private RNG seeded from
  ``(plan.seed, injector seed)``; the same plan, seed and scheduler always
  produce the same execution, so every chaos failure is replayable.

The virtual clock is the kernel step counter, fast-forwarded when the system
would otherwise idle with timers outstanding (:meth:`FaultInjector.on_idle`)
— exactly like a discrete-event simulator jumping to the next timer.
"""

from __future__ import annotations

import heapq
import random
import sys
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

from ..ioa.actions import Message, internal_action
from ..ioa.errors import UnknownProcessError
from ..ioa.network import FaultPlane
from .plan import FaultPlan, Partition


@dataclass
class FaultStats:
    """Counters of everything the injector did to the network."""

    sent: int = 0
    delivered_copies: int = 0
    dropped: int = 0
    duplicated: int = 0
    duplicates_suppressed: int = 0
    retransmissions: int = 0
    held_by_partition: int = 0
    held_by_crash: int = 0
    abandoned: int = 0
    crashes: int = 0
    recoveries: int = 0

    def describe(self) -> str:
        return (
            f"faults: sent={self.sent} delivered={self.delivered_copies} dropped={self.dropped} "
            f"retransmitted={self.retransmissions} duplicated={self.duplicated} "
            f"(suppressed={self.duplicates_suppressed}) partition-held={self.held_by_partition} "
            f"crash-held={self.held_by_crash} abandoned={self.abandoned} "
            f"crashes={self.crashes} recoveries={self.recoveries}"
        )

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


@dataclass
class _HeldMessage:
    """A message parked in the injector's transport buffer."""

    message: Message
    release_at: Optional[int]  # None = never (permanent partition / fail-stop)
    reason: str  # "partition" | "crash" | "retransmit"
    attempts: int = 1


class _TransportBuffer:
    """Everything the injector has parked, indexed so idle mail costs nothing.

    ``_parked`` maps a buffer sequence number to its record and *is* the
    buffer: a dict iterates in insertion order, which is the order
    :meth:`FaultInjector.held_messages` reports.  ``_timers`` is a min-heap
    of ``(release_at, seq)`` for the records that have a release time, so
    asking "is anything due?" is a peek at the top and mail parked forever
    (fail-stop, permanent partition) is never looked at again.  A record
    discarded early leaves its heap entry behind; entries whose ``seq`` is no
    longer parked are skipped when they surface.

    **Ordering invariant.**  :meth:`pop_due` returns the due records in
    buffer insertion order, *not* in ``release_at`` order.  Re-admission
    draws from the injector's RNG, so the order in which due mail re-enters
    the pipeline decides every later drop / duplicate / latency sample: it
    is part of the determinism contract, not an implementation detail.
    """

    def __init__(self) -> None:
        self._parked: Dict[int, _HeldMessage] = {}
        self._timers: List[Tuple[int, int]] = []
        self._next_seq = 0

    def __iter__(self) -> Iterator[_HeldMessage]:
        return iter(self._parked.values())

    def park(self, held: _HeldMessage) -> None:
        seq = self._next_seq
        self._next_seq = seq + 1
        self._parked[seq] = held
        if held.release_at is not None:
            heapq.heappush(self._timers, (held.release_at, seq))

    def next_release(self) -> Optional[int]:
        """The earliest release time of any parked record (None = no timers)."""
        timers = self._timers
        while timers and timers[0][1] not in self._parked:
            heapq.heappop(timers)
        return timers[0][0] if timers else None

    def pop_due(self, now: int) -> List[_HeldMessage]:
        """Remove and return the records with ``release_at <= now``."""
        timers = self._timers
        if not timers or timers[0][0] > now:
            return []
        seqs = []
        while timers and timers[0][0] <= now:
            seqs.append(heapq.heappop(timers)[1])
        seqs.sort()
        parked = self._parked
        return [parked.pop(seq) for seq in seqs if seq in parked]

    def discard(self, doomed: Callable[[_HeldMessage], bool]) -> List[_HeldMessage]:
        """Remove and return every record ``doomed`` selects (a full pass:
        only retirement of an automaton does this)."""
        seqs = [seq for seq, held in self._parked.items() if doomed(held)]
        return [self._parked.pop(seq) for seq in seqs]


class FaultInjector(FaultPlane):
    """Stateful enforcement of one :class:`FaultPlan` over one simulation.

    **Span invariant.**  The plan's windows open and close only at its edges
    (crash ``at``/``recover``, partition ``start``/``heal``), so between two
    consecutive edges the open partitions and the down servers (each with its
    release: the latest recovery, ``None`` = never) do not change.  They are
    cached for the span ``_lo <= now < _hi``; every reader checks its own
    ``now`` against the span, and the first to find it outside re-derives the
    cache (:meth:`_enter_span`) — the plan is scanned once per span, not per
    send and per step.  The kernel counts a step *after* ``before_step``, so
    that first reader can be a send, mid-step: its mail is parked for a
    server that is down by then, and ``_transitions_due`` stays set until the
    next ``before_step`` records the onset or recovery.
    """

    def __init__(self, plan: FaultPlan, seed: int = 0) -> None:
        self.plan = plan
        self.seed = seed
        self.stats = FaultStats()
        self._rng = random.Random(((plan.seed & 0xFFFFFFFF) << 17) ^ (seed & 0x1FFFF) ^ 0x5EED)
        self._buffer = _TransportBuffer()
        self._delivered_ids: Set[int] = set()
        self._drop_streak: Dict[int, int] = {}  # msg_id -> consecutive drops
        self._virtual_now = 0
        self._crashed: Set[str] = set()
        self._crash_onset: Dict[str, int] = {}  # server -> when its current outage began
        self._removed: Set[str] = set()  # retired mid-run (reconfiguration)
        # the span cache (class docstring); crash edges alone bound a clock jump
        crash_edges = {t for c in plan.crashes for t in (c.at, c.recover) if t is not None}
        edges = {t for p in plan.partitions for t in (p.start, p.heal) if t is not None}
        self._crash_edges = sorted(crash_edges)
        self._edges = sorted(edges | crash_edges)
        self._lo = self._hi = 0  # empty: the first reader enters a span
        self._open_partitions: Tuple[Partition, ...] = ()
        self._down: Dict[str, Optional[int]] = {}
        self._transitions_due = True  # crash onsets/recoveries not yet applied
        self._attached = False
        self._names_validated = False

    # ------------------------------------------------------------------
    # FaultPlane interface
    # ------------------------------------------------------------------
    def on_attach(self, kernel: Any) -> None:
        if self._attached:
            raise RuntimeError(
                "a FaultInjector is single-use: build a fresh one per simulation "
                "(its RNG and transport buffers are execution state)"
            )
        self._attached = True

    def now(self, kernel: Any) -> int:
        steps, virtual = kernel.steps_taken, self._virtual_now
        return steps if steps > virtual else virtual

    def advance_to(self, step: int) -> None:
        self._virtual_now = max(self._virtual_now, int(step))

    def on_send(self, message: Message, kernel: Any) -> None:
        self.stats.sent += 1
        self._admit(message, kernel, attempts=1)

    def before_step(self, kernel: Any) -> None:
        if not self._names_validated:
            self._validate_plan_names(kernel)
            self._names_validated = True
        self._advance_through_boundaries(kernel)

    def _validate_plan_names(self, kernel: Any) -> None:
        """Fail loudly if the plan targets processes the system doesn't have.

        A crash schedule or partition naming a non-existent automaton would
        otherwise be a silent no-op (the fault "happens" but touches no
        traffic) — a misconfiguration that looks like a healthy run.  Checked
        on the first step because automata are registered after construction.
        """
        known = {automaton.name: automaton for automaton in kernel.automata()}
        for crash in self.plan.crashes:
            if crash.server not in known:
                raise UnknownProcessError(crash.server)
            if not crash.preserve_state and not hasattr(known[crash.server], "forget"):
                from ..ioa.errors import SimulationError

                raise SimulationError(
                    f"crash plan marks {crash.server!r} as crash-with-amnesia "
                    f"(preserve_state=False) but {type(known[crash.server]).__name__} "
                    "has no forget() hook to reset volatile state"
                )
        for partition in self.plan.partitions:
            for name in (*partition.left, *partition.right):
                if name not in known:
                    raise UnknownProcessError(name)

    def on_idle(self, kernel: Any) -> bool:
        return self._advance_through_boundaries(kernel)

    def _advance_through_boundaries(self, kernel: Any) -> bool:
        """Apply fault transitions in virtual-time order until work is ripe.

        Virtual time may only jump *boundary by boundary*: the next crash
        onset or recovery, the next transport timer (retransmit / partition
        heal), the next in-flight arrival — whichever comes first.  Jumping
        straight to a delivery's arrival stamp would let a message reach a
        server whose crash was scheduled earlier in virtual time.  Each
        boundary is applied (crash sweeps, recoveries, timer releases)
        before the clock moves past it; the loop returns once some pending
        event is ripe at the current clock, or goes quiescent (permanently
        held messages stay parked and their transactions count as
        unavailable).  Returns whether the kernel has pending events now.
        """
        timers = self._buffer._timers  # peeked: on most steps nothing is due
        while True:
            now = self.now(kernel)
            if not self._lo <= now < self._hi:
                self._enter_span(now)
            if self._transitions_due:
                self._apply_crash_transitions(kernel, now)
            if timers and timers[0][0] <= now:
                self._release_due(kernel, now)
            if (
                kernel.has_pending_invocations()
                or kernel.has_ripe_delivery(now)
                or kernel.has_ripe_timeout(now)
            ):
                return True
            # Nothing is ripe: every pending delivery / armed timer has
            # ready_at > now, so the earliest of each (heap peeks on the
            # kernel's frontier, not full scans) bounds the next jump.
            # The transport timer is a heap peek too: ``_release_due`` just
            # emptied everything due, so the top is the next one after now.
            boundaries = [
                boundary
                for boundary in (
                    kernel.next_delivery_boundary(),
                    kernel.next_timeout_boundary(),
                    self._buffer.next_release(),
                )
                if boundary is not None
            ]
            edge = bisect_right(self._crash_edges, now)
            if edge < len(self._crash_edges):
                boundaries.append(self._crash_edges[edge])
            if not boundaries:
                return False
            self.advance_to(min(boundaries))

    def suppress_delivery(self, message: Message, kernel: Any) -> bool:
        if message.msg_id in self._delivered_ids:
            self.stats.duplicates_suppressed += 1
            return True
        self._delivered_ids.add(message.msg_id)
        return False

    def suppress_timeout(self, timeout: Any, kernel: Any) -> bool:
        """A crashed owner's timer must not fire mid-outage.

        Fail-recover: the timer is deferred to the recovery boundary (the
        owner re-evaluates its timers with recovered state).  Fail-stop: the
        timer dies with the server.
        """
        release = self._crash_release(timeout.owner, self.now(kernel))
        if release is _NOT_BLOCKED:
            return False
        if release is not None:
            kernel.reschedule_timeout(timeout, release)
        return True

    def describe(self) -> str:
        return f"FaultInjector({self.plan.describe()}; {self.stats.describe()})"

    def on_remove(self, name: str, kernel: Any) -> None:
        """Drop all transport state for a retired automaton.

        Mail held for it — in either direction: parked messages *from* a
        retired process must die with it too, or their receivers would reply
        to a ghost — is discarded, and the name is excluded from future
        crash transitions so a crash event outliving the retirement neither
        sweeps nor "recovers" a ghost.
        """
        for held in self._buffer.discard(lambda h: name in (h.message.dst, h.message.src)):
            self._drop_streak.pop(held.message.msg_id, None)
        self._crashed.discard(name)
        self._crash_onset.pop(name, None)
        self._removed.add(name)

    # ------------------------------------------------------------------
    # Admission pipeline
    # ------------------------------------------------------------------
    def _admit(self, message: Message, kernel: Any, attempts: int) -> None:
        """Run one delivery attempt of ``message`` through the fault pipeline."""
        now = self.now(kernel)

        release = self._partition_release(message.src, message.dst, now)
        if release is not _NOT_BLOCKED:
            self.stats.held_by_partition += 1
            self._buffer.park(_HeldMessage(message, release, "partition", attempts))
            return

        release = self._crash_release(message.dst, now)
        if release is not _NOT_BLOCKED:
            self.stats.held_by_crash += 1
            self._buffer.park(_HeldMessage(message, release, "crash", attempts))
            return

        if self._should_drop(message, now):
            self.stats.dropped += 1
            retry = self.plan.retry
            if retry is None or attempts >= retry.max_attempts:
                self._abandon(message, kernel)
            else:
                self._buffer.park(
                    _HeldMessage(message, now + retry.timeout_steps, "retransmit", attempts + 1)
                )
            return

        self._drop_streak.pop(message.msg_id, None)
        self._enqueue_copy(message, kernel, now)
        duplicates = self.plan.duplicates
        if duplicates is not None and self._rng.random() < duplicates.probability:
            self.stats.duplicated += 1
            self._enqueue_copy(message, kernel, now)

    def _enqueue_copy(self, message: Message, kernel: Any, now: int) -> None:
        delay = self.plan.latency.sample(self._rng) if self.plan.latency is not None else 0
        kernel.enqueue_delivery(message, ready_at=now + delay if delay else 0)
        self.stats.delivered_copies += 1

    def _should_drop(self, message: Message, now: int) -> bool:
        drops = self.plan.drops
        if drops is None or drops.probability <= 0.0:
            return False
        streak = self._drop_streak.get(message.msg_id, 0)
        if streak >= drops.max_consecutive:
            return False  # fair loss: this attempt is forced through
        if self._rng.random() < drops.probability:
            self._drop_streak[message.msg_id] = streak + 1
            return True
        return False

    def _abandon(self, message: Message, kernel: Any) -> None:
        self.stats.abandoned += 1
        self._drop_streak.pop(message.msg_id, None)  # never admitted again
        txn = message.get("txn")
        if txn is not None:
            kernel.annotate_transaction(txn, {"abandoned_messages": 1, "_accumulate": True})

    # ------------------------------------------------------------------
    # Blocking conditions
    # ------------------------------------------------------------------
    def _enter_span(self, now: int) -> None:
        """Re-derive the cached windows for the span of edges holding ``now``."""
        edges = self._edges
        index = bisect_right(edges, now)
        self._lo = edges[index - 1] if index else 0
        self._hi = edges[index] if index < len(edges) else sys.maxsize
        self._open_partitions = tuple(p for p in self.plan.partitions if p.active(now))
        down: Dict[str, Optional[int]] = {}
        for crash in self.plan.crashes:
            if crash.crashed(now):
                latest = down.get(crash.server, 0)
                forever = latest is None or crash.recover is None
                down[crash.server] = None if forever else max(latest, crash.recover)
        self._down = down
        self._transitions_due = True

    def _partition_release(self, src: str, dst: str, now: int) -> Any:
        """Earliest step at which the link is open again, or ``_NOT_BLOCKED``.

        With several overlapping partition windows the message must outlive
        all of them, so the release time is the latest finite heal; any
        permanent blocking window means the message is held forever (None).
        """
        if not self._lo <= now < self._hi:
            self._enter_span(now)
        release: Any = _NOT_BLOCKED
        for partition in self._open_partitions:
            if not partition.blocks(src, dst, now):
                continue
            if partition.heal is None:
                return None
            release = partition.heal if release is _NOT_BLOCKED else max(release, partition.heal)
        return release

    def _crash_release(self, dst: str, now: int) -> Any:
        """Latest recovery of ``dst`` if it is currently crashed."""
        if not self._lo <= now < self._hi:
            self._enter_span(now)
        return self._down.get(dst, _NOT_BLOCKED)

    # ------------------------------------------------------------------
    # Timers and transitions
    # ------------------------------------------------------------------
    def _apply_crash_transitions(self, kernel: Any, now: int) -> None:
        """Track crash onsets/recoveries; sweep in-flight messages on onset.

        A crash takes effect at the step boundary: in-flight deliveries
        addressed to the newly-crashed server are pulled back out of the
        network into the transport buffer (held until recovery).  Transitions
        are recorded as internal actions so traces stay self-describing.
        """
        self._transitions_due = False
        currently = self._down.keys() - self._removed
        for server in sorted(currently - self._crashed):
            self.stats.crashes += 1
            self._crash_onset[server] = now
            kernel.trace.append(internal_action(server, {"fault": "crash"}))
            release = self._crash_release(server, now)
            for delivery in kernel.extract_deliveries(lambda d, s=server: d.message.dst == s):
                self.stats.held_by_crash += 1
                self._buffer.park(_HeldMessage(delivery.message, release, "crash"))
        for server in sorted(self._crashed - currently):
            self.stats.recoveries += 1
            kernel.trace.append(internal_action(server, {"fault": "recover"}))
            onset = self._crash_onset.pop(server, 0)
            if any(
                crash.server == server
                and not crash.preserve_state
                and crash.at < now
                and (crash.recover is None or crash.recover > onset)
                for crash in self.plan.crashes
            ):
                # Crash-with-amnesia: an amnesiac crash window intersected
                # the outage that just ended (events covering only earlier,
                # fully-recovered outages do not count).  The volatile state
                # was lost at the onset; the loss becomes observable now, so
                # reset the automaton at the recovery boundary and record it.
                # Amnesia only wipes *volatile* state: an automaton with a
                # stable store attached reloads its durable state inside
                # ``forget()`` and the record says so.
                automaton = kernel.automaton(server)
                automaton.forget()
                info = {"fault": "amnesia"}
                if getattr(automaton, "stable_store", None) is not None:
                    info["durable"] = "recovered"
                kernel.trace.append(internal_action(server, info))
        self._crashed = currently

    def _release_due(self, kernel: Any, now: int) -> None:
        """Re-admit every held message whose timer has expired."""
        for held in self._buffer.pop_due(now):
            if held.reason == "retransmit":
                self.stats.retransmissions += 1
                txn = held.message.get("txn")
                if txn is not None:
                    kernel.annotate_transaction(txn, {"retransmissions": 1, "_accumulate": True})
            self._admit(held.message, kernel, attempts=held.attempts)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def held_messages(self) -> Tuple[Message, ...]:
        """Messages currently parked in the transport buffer."""
        return tuple(h.message for h in self._buffer)

    def crashed_servers(self) -> Tuple[str, ...]:
        return tuple(sorted(self._crashed))

    def describe_stuck(self) -> str:
        """One line for a liveness error: who is down, and whose mail is
        parked with no release time (fail-stop, permanent partition)."""
        forever: Dict[str, int] = {}
        for held in self._buffer:
            if held.release_at is None:
                forever[held.message.dst] = forever.get(held.message.dst, 0) + 1
        crashed = ", ".join(self.crashed_servers()) or "none"
        parked = ", ".join(f"{dst}={count}" for dst, count in sorted(forever.items())) or "none"
        return f"fault plane: crashed servers: {crashed}; messages parked forever, by destination: {parked}"


#: Sentinel distinguishing "link not blocked" from "blocked forever" (None).
_NOT_BLOCKED: Any = object()
