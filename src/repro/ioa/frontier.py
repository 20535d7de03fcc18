"""The incrementally maintained event frontier of the simulation kernel.

Until PR 7 the kernel rebuilt the full ``pending_events()`` list from
scratch on every step and removed the chosen delivery with a linear
``list.remove`` — O(steps × in-flight events), quadratic exactly where
"millions of users" needs it linear.  :class:`EventFrontier` replaces the
rebuild with three indexed structures that are mutated as events are
created and consumed:

* **Deliveries** live in an insertion-ordered dict keyed by their globally
  unique ``enqueued_at`` stamp, giving O(1) removal while preserving the
  exact enqueue order the old list presented.  A side min-heap over the
  latency-stamped (``ready_at > 0``) deliveries plus a count of the
  immediately-deliverable ones makes "is any delivery ripe / what is the
  next arrival" O(1) heap peeks; only a step with latency-stamped mail in
  flight filters the dict by stamp.
* **Timeouts** live in an insertion-ordered dict (arming order) plus a
  ``(ready_at, seq)`` min-heap of armed-but-not-yet-ripe timers.  Because
  the virtual clock never moves backwards, ripeness is monotone: once ripe,
  a timer stays ripe, so ripe timers are popped off the heap exactly once
  into a seq-sorted list that reproduces the old "filter by arming order"
  presentation without rescanning.
* **Ready invocations** are maintained by the kernel's dependency-triggered
  readiness tracking (see ``Simulation._refresh_ready``) instead of being
  re-derived from every client queue each step; they are presented in
  client-registration order via a sorted ``(registration, client)`` list.

**Ripeness is the frontier's rule.**  A delivery or a timer is choosable
once the kernel's clock has reached its ``ready_at`` stamp (an invocation
has none); ``events``, ``idle`` and ``oldest`` hold ripe events only, so every
scheduler is offered exactly the enabled events, and when none is ripe the
kernel moves its clock to the next stamp (:meth:`next_delivery_ready`,
:meth:`next_timeout_ready`) before it asks.  The frontier presents them to
``scheduler.choose`` in the canonical order the old rebuild produced —
deliveries, timeouts, ready invocations — so every golden-signature,
chaos-grid and determinism test passes unchanged
(``tests/ioa/test_frontier.py`` pins frontier == rebuild under random
interleavings of every mutating operation).

Presentation is not the only way out.  Building that list every step was
itself O(in-flight events), so the kernel asks two questions that never do:
:meth:`EventFrontier.idle` (would ``events()`` be empty?) and
:meth:`EventFrontier.oldest` (which event of ``events()`` has the smallest
enqueue stamp — ``FIFOScheduler``'s pick).  Stamps come from one kernel-wide
counter, so deliveries (dict insertion order) and ripe timers (a sorted list)
are each already ascending: only the first ripe delivery, the head of the
ripe timers and the ready invocations, at most one per client, can be the
minimum.  The same interleaving test holds both to the list after every
operation.  A policy that needs the whole list (random, adversarial, chaos)
still gets it: see :meth:`repro.ioa.scheduler.Scheduler.pick`.
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import Dict, Iterable, List, Optional, Tuple

from .scheduler import PendingDelivery, PendingEvent, PendingInvocation, PendingTimeout


class EventFrontier:
    """Indexed pending-event set with O(1) removal and heap-peek boundaries."""

    __slots__ = (
        "_deliveries",
        "_immediate",
        "_delayed",
        "_timeouts",
        "_timer_heap",
        "_ripe",
        "_ready",
        "_ready_order",
    )

    def __init__(self) -> None:
        #: enqueue stamp -> delivery, in enqueue order (dict insertion order).
        self._deliveries: Dict[int, PendingDelivery] = {}
        #: how many pending deliveries have ``ready_at == 0`` (always ripe).
        self._immediate: int = 0
        #: ``(ready_at, seq)`` min-heap over latency-stamped deliveries;
        #: entries whose seq has left ``_deliveries`` are discarded lazily
        #: (stamps are never reused, so staleness is unambiguous): from the
        #: top as they surface, and all at once when they outnumber the live
        #: ones (:meth:`remove_delivery`), so the heap stays O(in flight).
        self._delayed: List[Tuple[int, int]] = []
        #: enqueue stamp -> timeout, in arming order.
        self._timeouts: Dict[int, PendingTimeout] = {}
        #: ``(ready_at, seq)`` min-heap over armed-but-not-yet-ripe timers.
        self._timer_heap: List[Tuple[int, int]] = []
        #: stamps of ripe unfired timers, ascending (= arming order).  The
        #: virtual clock is non-decreasing, so this only ever grows via
        #: :meth:`_ripen` and shrinks when a timer fires or its owner retires.
        self._ripe: List[int] = []
        #: client name -> its ready invocation event.
        self._ready: Dict[str, PendingInvocation] = {}
        #: ``(registration order, client)`` ascending — presentation order.
        self._ready_order: List[Tuple[int, str]] = []

    # ------------------------------------------------------------------
    # Deliveries
    # ------------------------------------------------------------------
    def add_delivery(self, delivery: PendingDelivery) -> None:
        seq = delivery.enqueued_at
        self._deliveries[seq] = delivery
        if delivery.ready_at:
            heapq.heappush(self._delayed, (delivery.ready_at, seq))
        else:
            self._immediate += 1

    def remove_delivery(self, delivery: PendingDelivery) -> None:
        alive = self._deliveries
        del alive[delivery.enqueued_at]
        if not delivery.ready_at:
            self._immediate -= 1
            return
        heap = self._delayed
        while heap and heap[0][1] not in alive:
            heapq.heappop(heap)
        if len(heap) > 2 * (len(alive) - self._immediate):
            heap[:] = [entry for entry in heap if entry[1] in alive]
            heapq.heapify(heap)

    def deliveries(self) -> Iterable[PendingDelivery]:
        """The pending deliveries, in enqueue order."""
        return self._deliveries.values()

    def next_delivery_ready(self) -> Optional[int]:
        """Earliest ``ready_at`` among pending deliveries (``0`` = ripe now)."""
        if self._immediate:
            return 0
        heap = self._delayed
        alive = self._deliveries
        while heap and heap[0][1] not in alive:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    # ------------------------------------------------------------------
    # Timeouts
    # ------------------------------------------------------------------
    def add_timeout(self, timeout: PendingTimeout) -> None:
        seq = timeout.enqueued_at
        self._timeouts[seq] = timeout
        heapq.heappush(self._timer_heap, (timeout.ready_at, seq))

    def remove_timeout(self, timeout: PendingTimeout) -> None:
        """Remove a fired (hence ripe) timeout."""
        del self._timeouts[timeout.enqueued_at]
        try:
            self._ripe.remove(timeout.enqueued_at)
        except ValueError:
            pass

    def remove_timeouts_for_owner(self, owner: str) -> None:
        dead = [seq for seq, t in self._timeouts.items() if t.owner == owner]
        if not dead:
            return
        for seq in dead:
            del self._timeouts[seq]
        dead_set = set(dead)
        self._ripe = [seq for seq in self._ripe if seq not in dead_set]
        # heap entries for dead stamps are discarded lazily on peek/ripen

    def timeouts(self) -> Iterable[PendingTimeout]:
        """The armed-but-unfired timers, in arming order."""
        return self._timeouts.values()

    def _ripen(self, now: int) -> None:
        heap = self._timer_heap
        alive = self._timeouts
        while heap and heap[0][0] <= now:
            _, seq = heapq.heappop(heap)
            if seq in alive:
                insort(self._ripe, seq)

    def next_timeout_ready(self) -> Optional[int]:
        """Earliest ``ready_at`` among the armed timers not yet ripened — the
        next timer boundary once :meth:`idle` has ripened all that are due."""
        heap = self._timer_heap
        alive = self._timeouts
        while heap and heap[0][1] not in alive:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    # ------------------------------------------------------------------
    # Ready invocations
    # ------------------------------------------------------------------
    def set_ready(self, order: int, invocation: PendingInvocation) -> None:
        client = invocation.client
        if client not in self._ready:
            insort(self._ready_order, (order, client))
        self._ready[client] = invocation

    def clear_ready(self, order: int, client: str) -> None:
        if self._ready.pop(client, None) is not None:
            self._ready_order.remove((order, client))

    # ------------------------------------------------------------------
    # The frontier
    # ------------------------------------------------------------------
    def idle(self, now_fn) -> bool:
        """Whether :meth:`events` would be empty (nothing is ripe), without
        building it."""
        if self._immediate or self._ready:
            return False
        if not self._deliveries and not self._timeouts:
            return True
        now = now_fn()
        ready = self.next_delivery_ready()
        if ready is not None and ready <= now:
            return False
        self._ripen(now)
        return not self._ripe

    def oldest(self, now_fn) -> Optional[PendingEvent]:
        """The event of :meth:`events` with the smallest enqueue stamp, or
        ``None`` when idle: the first ripe delivery, the head of the ripe
        timers and the ready invocations compete (see the module docstring);
        stamps are globally unique, so there is no tie to break."""
        deliveries = self._deliveries
        if len(deliveries) == self._immediate:
            best: Optional[PendingEvent] = next(iter(deliveries.values()), None)
        else:
            now = now_fn()
            best = next((d for d in deliveries.values() if d.ready_at <= now), None)
        if self._timeouts:
            self._ripen(now_fn())
        if self._ripe:
            timeout = self._timeouts[self._ripe[0]]
            if best is None or timeout.enqueued_at < best.enqueued_at:
                best = timeout
        for invocation in self._ready.values():
            if best is None or invocation.enqueued_at < best.enqueued_at:
                best = invocation
        return best

    def events(self, now_fn) -> List[PendingEvent]:
        """The choosable events, in the canonical order: ripe deliveries in
        enqueue order, ripe timeouts in arming order, ready invocations in
        client-registration order.  ``now_fn`` is only consulted when some
        event carries a stamp (a latency-stamped delivery, an armed timer)."""
        deliveries = self._deliveries
        if len(deliveries) == self._immediate:
            events: List[PendingEvent] = list(deliveries.values())
        else:
            now = now_fn()
            events = [d for d in deliveries.values() if d.ready_at <= now]
        if self._timeouts:
            self._ripen(now_fn())
            if self._ripe:
                alive = self._timeouts
                events.extend(alive[seq] for seq in self._ripe)
        if self._ready_order:
            ready = self._ready
            events.extend(ready[client] for _, client in self._ready_order)
        return events
