"""Every schedule of a small system, up to reordering independent steps.

The paper's results are universal, so a small scope is searched whole: a
few queued transactions under every schedule.  Steps at
distinct automata commute (:func:`repro.proofs.fragments.dependency`: an
event enabled before a step receives nothing it sent), and sleep sets
(Godefroid, 1996) run one schedule per Mazurkiewicz trace: a state's sleep
set holds the events explored from its parent, or asleep there, still
enabled and at another automaton than the step just taken; a run whose
enabled events all sleep is cut (*pruned*), each run that ends is a trace
(*finished*).  The relation ignores the real-time order of clients that no
message links, so an S violation only that order shows can be missed
(``tests/proofs/exhaust_cells.py`` pins one).  Each run rebuilds the system
from its *build*, ``build(scheduler) -> SystemHandle`` (a ``functools.partial``
of :func:`contending_system` or :func:`figure5_system`), and replays its
prefix by keys that per-simulation ids and stamps keep stable:
``("d", msg_id)``, ``("i", txn_id)``, ``("t", owner, enqueued_at)``.
:func:`replay` runs one schedule again from its keys.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..ioa.errors import SchedulerError
from ..ioa.network import SystemSetting
from ..ioa.scheduler import PendingDelivery, PendingInvocation, Scheduler
from ..protocols.base import SystemHandle
from ..protocols.registry import get_protocol
from .fragments import dependency

EventKey = Tuple[Any, ...]
#: a system to search: built with the scheduler given, its workload queued
Build = Callable[[Scheduler], SystemHandle]


def contending_system(protocol: str, setting: SystemSetting, scheduler: Scheduler) -> SystemHandle:
    """Figure 1(a)'s system at ``setting`` under ``protocol``: each writer's
    WRITE of every object (the writer's name as value) and each reader's READ
    queued, unordered."""
    handle = get_protocol(protocol).build(
        num_readers=setting.num_readers, num_writers=setting.num_writers, num_objects=setting.num_servers,
        c2c=setting.c2c, scheduler=scheduler,
    )
    for writer in handle.writers:
        handle.submit_write(dict.fromkeys(handle.objects, writer), writer=writer)
    for reader in handle.readers:
        handle.submit_read(handle.objects, reader=reader)
    return handle


def figure5_system(protocol: str, scheduler: Scheduler) -> SystemHandle:
    """Figure 5's system under ``protocol`` (client-to-client channels as it
    defaults, objects initially ``"init"``): R reads (ox, oy); w1 runs W1
    (oy=b1) and then W2 (oy=b2); w2 runs W3 (ox=a3) after W2 has responded."""
    handle = get_protocol(protocol).build(
        num_readers=1, num_writers=2, num_objects=2, initial_value="init", scheduler=scheduler,
    )
    (ox, oy), (w1, w2) = handle.objects, handle.writers
    handle.submit_read((ox, oy), reader=handle.readers[0])
    handle.submit_write({oy: "b1"}, writer=w1)
    after = handle.submit_write({oy: "b2"}, writer=w1)
    handle.submit_write({ox: "a3"}, writer=w2, after=[after])
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
    """The traces of the system ``build`` makes.

    Iterating runs the search, scheduling each run itself, and yields each
    finished system, named by :meth:`schedule`.  ``finished`` and ``pruned``
    count the runs; ``max_runs`` (None: no limit) bounds their sum, and
    ``complete`` turns true once every trace has run.
    """

    def __init__(self, build: Build, max_runs: Optional[int] = None) -> None:
        self.build, self.max_runs = build, max_runs
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
            handle = self.build(self)
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


class _Replay(Scheduler):
    """Picks, at each step, the pending event of the schedule's next key."""

    def __init__(self, keys: Sequence[EventKey]) -> None:
        self.keys, self.step = keys, 0

    def pick(self, frontier, kernel):
        step, self.step = self.step, self.step + 1
        if step == len(self.keys):
            raise SchedulerError(f"step {step}: the schedule ended with events still pending")
        for event in frontier.events(kernel.now):
            if _key(event)[0] == self.keys[step]:
                return event
        raise SchedulerError(f"step {step}: {self.keys[step]} is not pending")


def replay(build: Build, keys: Sequence[EventKey]) -> SystemHandle:
    """The system ``build`` makes, run through ``keys`` (an
    :meth:`Exploration.schedule`) to its end.  Raises :class:`SchedulerError`
    naming the step whose key is not pending, or where the keys and the run
    end apart."""
    scheduler = _Replay(keys)
    handle = build(scheduler)
    handle.run_to_completion()
    if scheduler.step < len(keys):
        raise SchedulerError(f"step {scheduler.step}: the run ended before {keys[scheduler.step]}")
    return handle
