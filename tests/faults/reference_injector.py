"""The seed's list-scanning transport buffer, kept as an equivalence oracle.

Before the indexed buffer (``repro.faults.injector._TransportBuffer``) the
injector parked mail in one flat list, rebuilt that list on every step to
find what was due, and walked it again to find the next transport timer.
Both loops left ``src/`` and live here verbatim, on a :class:`FaultInjector`
subclass, so the tests can assert that the indexed buffer produces the same
execution: same trace, same :class:`FaultStats`, same ``held_messages()``
order.  Everything else (admission, crash transitions, blocking conditions)
is inherited, i.e. shared with the code under test.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List

from repro.faults.injector import FaultInjector, _HeldMessage


class _FlatBuffer:
    """The seed's ``_held`` list behind the surface the injector parks through."""

    def __init__(self) -> None:
        self.held: List[_HeldMessage] = []

    def __iter__(self) -> Iterator[_HeldMessage]:
        return iter(self.held)

    def park(self, held: _HeldMessage) -> None:
        self.held.append(held)

    def discard(self, doomed: Callable[[_HeldMessage], bool]) -> List[_HeldMessage]:
        gone = [h for h in self.held if doomed(h)]
        self.held = [h for h in self.held if not doomed(h)]
        return gone


class ReferenceFaultInjector(FaultInjector):
    """``FaultInjector`` with the seed's two full scans of parked mail."""

    def __init__(self, plan, seed: int = 0) -> None:
        super().__init__(plan, seed=seed)
        self._buffer = _FlatBuffer()

    @property
    def _held(self) -> List[_HeldMessage]:
        return self._buffer.held

    @_held.setter
    def _held(self, held: List[_HeldMessage]) -> None:
        self._buffer.held = held

    # -- verbatim from the seed -------------------------------------------
    def _advance_through_boundaries(self, kernel: Any) -> bool:
        while True:
            now = self.now(kernel)
            self._apply_crash_transitions(kernel, now)
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
            boundaries = []
            earliest = kernel.next_delivery_boundary()
            if earliest is not None:
                boundaries.append(earliest)
            earliest = kernel.next_timeout_boundary()
            if earliest is not None:
                boundaries.append(earliest)
            boundaries.extend(
                h.release_at for h in self._held if h.release_at is not None and h.release_at > now
            )
            for crash in self.plan.crashes:
                boundaries.extend(
                    t for t in (crash.at, crash.recover) if t is not None and t > now
                )
            if not boundaries:
                return False
            self.advance_to(min(boundaries))

    def _release_due(self, kernel: Any, now: int) -> None:
        """Re-admit every held message whose timer has expired."""
        due: List[_HeldMessage] = []
        keep: List[_HeldMessage] = []
        for held in self._held:
            (due if held.release_at is not None and held.release_at <= now else keep).append(held)
        if not due:
            return
        self._held = keep
        for held in due:
            if held.reason == "retransmit":
                self.stats.retransmissions += 1
                txn = held.message.get("txn")
                if txn is not None:
                    kernel.annotate_transaction(txn, {"retransmissions": 1, "_accumulate": True})
            self._admit(held.message, kernel, attempts=held.attempts)
