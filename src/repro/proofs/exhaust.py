"""Every schedule of a small system, up to reordering independent steps.

The paper's results are universal, so a small scope is searched whole: one
WRITE per writer and one READ per reader, under every schedule.  Steps at
distinct automata commute (:func:`repro.proofs.fragments.dependency`: an
event enabled before a step receives nothing it sent), and sleep sets
(Godefroid, 1996) run one schedule per Mazurkiewicz trace: a state's sleep
set holds the events explored from its parent, or asleep there, still
enabled and at another automaton than the step just taken; a run whose
enabled events all sleep is cut (*pruned*), each run that ends is a trace
(*finished*).  The relation ignores the real-time order of clients that no
message links, so an S violation only that order shows can be missed
(``tests/proofs/exhaust_cells.py`` pins one).  Each run rebuilds the system
and replays its prefix by keys that per-simulation ids and stamps keep
stable: ``("d", msg_id)``, ``("i", txn_id)``, ``("t", owner, enqueued_at)``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from ..ioa.network import SystemSetting
from ..ioa.scheduler import PendingDelivery, PendingInvocation, Scheduler
from ..protocols.base import SystemHandle
from ..protocols.registry import get_protocol
from .fragments import dependency

EventKey = Tuple[Any, ...]


def contending_system(protocol: str, setting: SystemSetting, scheduler: Scheduler) -> SystemHandle:
    """``setting``'s system under ``protocol`` with each writer's WRITE of every
    object (the writer's name as value) and each reader's READ queued, unordered."""
    handle = get_protocol(protocol).build(
        num_readers=setting.num_readers, num_writers=setting.num_writers, num_objects=setting.num_servers,
        c2c=setting.c2c, scheduler=scheduler,
    )
    for writer in handle.writers:
        handle.submit_write(dict.fromkeys(handle.objects, writer), writer=writer)
    for reader in handle.readers:
        handle.submit_read(handle.objects, reader=reader)
    return handle


def _key(event) -> Tuple[EventKey, str]:
    """An event's key and the automaton it occurs at."""
    if type(event) is PendingDelivery:
        return ("d", event.message.msg_id), event.message.dst
    if type(event) is PendingInvocation:
        return ("i", event.txn_id), event.client
    return ("t", event.owner, event.enqueued_at), event.owner


class _AllAsleep(Exception):
    """Every enabled event sleeps: each way on reorders an explored trace."""


class _Frame:
    """A state of the current run: enabled key → automaton, sleep set, keys explored, key taken."""

    __slots__ = ("actors", "sleep", "done", "cur")

    def __init__(self, actors: Dict[EventKey, str], sleep: Set[EventKey]) -> None:
        self.actors, self.sleep, self.done = actors, sleep, set()
        self.cur = self.untried()

    def untried(self) -> Optional[EventKey]:
        """The newest enabled key neither asleep nor explored from here (newest
        first prunes fewer runs than oldest first, and finishes the same)."""
        return next((k for k in reversed(self.actors) if k not in self.sleep and k not in self.done), None)


class Exploration(Scheduler):
    """The traces of :func:`contending_system` ``(protocol, setting)``.

    Iterating runs the search, scheduling each run itself, and yields each
    finished system, named by :meth:`schedule`.  ``finished`` and ``pruned``
    count the runs; ``max_runs`` (None: no limit) bounds their sum, and
    ``complete`` turns true once every trace has run.
    """

    def __init__(self, protocol: str, setting: SystemSetting, max_runs: Optional[int] = None) -> None:
        self.protocol, self.setting, self.max_runs = protocol, setting, max_runs
        self.finished = self.pruned = self._depth = 0
        self.complete = False
        self._frames: List[_Frame] = []

    def reset(self) -> None:
        self._depth = 0

    def pick(self, frontier, kernel):
        """Replay the frames' keys, then open one frame per new state."""
        keyed = [(_key(event), event) for event in frontier.events(kernel.now)]
        frames, depth = self._frames, self._depth
        self._depth += 1
        if depth == len(frames):
            actors = {key: actor for (key, actor), _ in keyed}
            sleep: Set[EventKey] = set()
            if frames:
                parent = frames[-1]
                ran = parent.actors[parent.cur]
                sleep = {
                    k for k in parent.sleep | parent.done
                    if k in actors and dependency(ran, actors[k], frozenset(), frozenset()) is None
                }
            frame = _Frame(actors, sleep)
            if frame.cur is None:
                raise _AllAsleep
            frames.append(frame)
        cur = frames[depth].cur
        return next(event for (key, _), event in keyed if key == cur)

    def __iter__(self) -> Iterator[SystemHandle]:
        frames = self._frames
        while self.max_runs is None or self.finished + self.pruned < self.max_runs:
            handle = contending_system(self.protocol, self.setting, self)
            try:
                handle.run_to_completion()
            except _AllAsleep:
                self.pruned += 1
            else:
                self.finished += 1
                yield handle
            while frames:  # backtrack to the deepest state with an untried key
                frame = frames[-1]
                frame.done.add(frame.cur)
                frame.cur = frame.untried()
                if frame.cur is not None:
                    break
                frames.pop()
            else:
                self.complete = True
                return

    def schedule(self) -> Tuple[EventKey, ...]:
        """The keys of the trace last yielded, in the order its events ran."""
        return tuple(frame.cur for frame in self._frames)
