"""The scans the fault injector used to make, kept as an equivalence oracle.

Before the indexed buffer (``repro.faults.injector._TransportBuffer``) the
injector parked mail in one flat list, rebuilt that list on every step to
find what was due, and walked it again to find the next transport timer.
Before the window spans (PR 21) it also asked the plan itself, on every send
and every step, which partitions were open and which servers were down, and
diffed the down set against the last one whether or not anything could have
changed.  All five loops left ``src/`` and live here verbatim, on a
:class:`FaultInjector` subclass that never reads the span cache, so the tests
can assert that buffer and cache produce the same execution: same trace, same
:class:`FaultStats`, same ``held_messages()`` order.  So does the seed's
at-most-once rule, which kept every delivered id for the whole run where the
injector now forgets an id with its last live copy: the subclass counts no
copies and never forgets.  The admission pipeline itself (drop, duplicate,
latency, retry) is inherited, i.e. shared with the code under test.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List, Optional

from repro.faults.injector import _NOT_BLOCKED, FaultInjector, _HeldMessage
from repro.ioa.actions import Message, internal_action


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
    """``FaultInjector`` with the seed's two full scans of parked mail, the
    per-call scans of the plan that the window spans replaced, and the seed's
    delivered-id set that never forgets."""

    def __init__(self, plan, seed: int = 0) -> None:
        super().__init__(plan, seed=seed)
        self._buffer = _FlatBuffer()

    @property
    def _held(self) -> List[_HeldMessage]:
        return self._buffer.held

    @_held.setter
    def _held(self, held: List[_HeldMessage]) -> None:
        self._buffer.held = held

    def _copy_entered(self, msg_id: int) -> None:
        pass  # no copies are counted: the id set below never shrinks

    def _copy_left(self, msg_id: int) -> None:
        pass

    # -- verbatim from the seed -------------------------------------------
    def suppress_delivery(self, message: Message, kernel: Any) -> bool:
        if message.msg_id in self._delivered_ids:
            self.stats.duplicates_suppressed += 1
            return True
        self._delivered_ids.add(message.msg_id)
        return False

    def before_step(self, kernel: Any) -> None:
        now = kernel.now()
        self._apply_crash_transitions(kernel, now)
        self._release_due(kernel, now)

    def on_idle(self, kernel: Any) -> Optional[int]:
        now = kernel.now()
        boundaries = [
            h.release_at for h in self._held if h.release_at is not None and h.release_at > now
        ]
        for crash in self.plan.crashes:
            boundaries.extend(t for t in (crash.at, crash.recover) if t is not None and t > now)
        return min(boundaries, default=None)

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

    # -- verbatim from the parent of the window spans (PR 19) --------------
    def _partition_release(self, src: str, dst: str, now: int) -> Any:
        release: Any = _NOT_BLOCKED
        for partition in self.plan.partitions:
            if not partition.blocks(src, dst, now):
                continue
            if partition.heal is None:
                return None
            release = partition.heal if release is _NOT_BLOCKED else max(release, partition.heal)
        return release

    def _crash_release(self, dst: str, now: int) -> Any:
        release: Any = _NOT_BLOCKED
        for crash in self.plan.crashes:
            if crash.server != dst or not crash.crashed(now):
                continue
            if crash.recover is None:
                return None
            release = crash.recover if release is _NOT_BLOCKED else max(release, crash.recover)
        return release

    def _apply_crash_transitions(self, kernel: Any, now: int) -> None:
        currently = {
            c.server for c in self.plan.crashes if c.crashed(now) and c.server not in self._removed
        }
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
                automaton = kernel.automaton(server)
                automaton.forget()
                info = {"fault": "amnesia"}
                if getattr(automaton, "stable_store", None) is not None:
                    info["durable"] = "recovered"
                kernel.trace.append(internal_action(server, info))
        self._crashed = currently
