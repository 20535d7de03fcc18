"""Execution traces, projections, fragments and indistinguishability.

The proofs in the paper manipulate *executions* of a composed I/O automaton:
they project executions onto individual automata, cut out *execution
fragments* (maximal runs of actions at one automaton, e.g. the non-blocking
fragments ``F_{i,j}``), check *indistinguishability* of two executions at an
automaton (Lemma 3), and *commute* adjacent fragments that occur at distinct
automata (Lemma 2).  This module provides those operations over the concrete
traces produced by the simulation kernel, so that the proof replays in
:mod:`repro.proofs` and the property checkers in :mod:`repro.core` share one
vocabulary with the simulator.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar

from .actions import Action, ActionKind, Keys, Message, slot_setters
from .errors import TraceError


@dataclass(frozen=True)
class TraceMode:
    """How a :class:`Trace` retains action records.

    ``full`` (the default) keeps every action — every golden-pinned run
    records with it.  ``ring(capacity)`` records every action but keeps only
    the newest ``capacity`` records (a flight recorder), for long runs where
    the *record* is the cost.

    In both modes the trace observer sees **every** appended action, so
    metrics counters and the streaming invariant monitors stay exact; only
    the retained records change.  Retained actions always carry their true
    global index.
    """

    kind: str = "full"
    capacity: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("full", "ring"):
            raise ValueError(f"unknown trace mode {self.kind!r} (known: 'full', 'ring')")
        if self.kind == "ring" and self.capacity < 1:
            raise ValueError(f"ring trace capacity must be >= 1, got {self.capacity}")

    @classmethod
    def full(cls) -> "TraceMode":
        return cls()

    @classmethod
    def ring(cls, capacity: int) -> "TraceMode":
        return cls(kind="ring", capacity=capacity)

    def describe(self) -> str:
        if self.kind == "ring":
            return f"ring(capacity={self.capacity})"
        return "full"


View = TypeVar("View")

#: how :meth:`Trace.record` fills a new action, and :meth:`Trace.append`
#: stamps a fresh, never-shared one's index in place
_set_kind, _set_actor, _set_message, _set_info_keys, _set_info_values, _stamp_index = slot_setters(Action)
_new_action = object.__new__


def _projections(trace: "Trace") -> Dict[str, Tuple[Action, ...]]:
    """Every ``trace|actor`` in one pass (the view behind :meth:`Trace.project`)."""
    by_actor: Dict[str, List[Action]] = {}
    for action in trace:
        by_actor.setdefault(action.actor, []).append(action)
    return {actor: tuple(actions) for actor, actions in by_actor.items()}


class Trace:
    """An ordered sequence of :class:`~repro.ioa.actions.Action` records.

    The trace owns index assignment: appending an action stamps it with its
    position.  Traces support list-like read access, projection onto an
    automaton, slicing into fragments and a handful of queries used by the
    SNOW property checkers.

    ``mode`` selects the retention policy (see :class:`TraceMode`); the
    default ``full`` mode keeps every action, and all position-dependent
    queries (``between``, ``prefix``, …) rely on index == list position only
    in that mode — ring mode answers them by index scan or refuses
    loudly where a renumbered copy would lie.
    """

    def __init__(
        self,
        actions: Optional[Iterable[Action]] = None,
        mode: Optional[TraceMode] = None,
    ) -> None:
        self.mode: TraceMode = mode if mode is not None else TraceMode.full()
        if self.mode.kind == "ring":
            self._actions: List[Action] = deque(maxlen=self.mode.capacity)  # type: ignore[assignment]
        else:
            self._actions = []
        #: total actions ever appended (== len(self) only in full mode)
        self._total = 0
        #: optional append observer (the observability plane's metrics hook);
        #: called with every appended action, retained or not, so counters and
        #: streaming monitors stay exact in every mode.
        self._observer: Optional[Callable[[Action], None]] = None
        #: derived views (see :meth:`derived`), valid while ``_total`` still
        #: equals ``_derived_at``
        self._derived: Dict[Callable[["Trace"], Any], Any] = {}
        self._derived_at = 0
        if actions is not None:
            for action in actions:
                self.append(action)

    def set_observer(self, observer: Optional[Callable[[Action], None]]) -> None:
        """Install (or clear) the append observer.  Observers must only
        *read*: appending from inside an observer would corrupt indices."""
        self._observer = observer

    # ------------------------------------------------------------------
    # Basic container protocol
    # ------------------------------------------------------------------
    def record(
        self, kind: ActionKind, actor: str, message: Optional[Message] = None, info_keys: Keys = (), info_values: Tuple = ()
    ) -> Action:
        """Append the action with these fields and return it: equal to
        ``append(new_action(kind, actor, message, info_keys, info_values))``
        in one call (the kernel records every action this way), with
        ``info_keys`` sorted and ``info_values`` already frozen."""
        index = self._total
        self._total = index + 1
        action = _new_action(Action)
        _set_kind(action, kind)
        _set_actor(action, actor)
        _set_message(action, message)
        _set_info_keys(action, info_keys)
        _set_info_values(action, info_values)
        _stamp_index(action, index)
        self._actions.append(action)
        if self._observer is not None:
            self._observer(action)
        return action

    def append(self, action: Action) -> Action:
        """Append a prebuilt ``action``, re-stamping its index; returns the stored copy.

        Freshly built actions (index ``-1``, never shared) are stamped in
        place instead of copied.  Actions that already carry an index
        (fragment replays, trace copies) get a fresh stamped copy.
        """
        index = self._total
        self._total = index + 1
        if action.index == -1:
            _stamp_index(action, index)
            stamped = action
        else:
            stamped = action.with_index(index)
        self._actions.append(stamped)
        if self._observer is not None:
            self._observer(stamped)
        return stamped

    def __len__(self) -> int:
        return len(self._actions)

    def __iter__(self) -> Iterator[Action]:
        return iter(self._actions)

    def __getitem__(self, index):
        if isinstance(index, slice) and isinstance(self._actions, deque):
            return list(self._actions)[index]  # deques do not slice
        return self._actions[index]

    @property
    def actions(self) -> Tuple[Action, ...]:
        return tuple(self._actions)

    @property
    def total_appended(self) -> int:
        """Actions ever appended — equals ``len(self)`` only in full mode."""
        return self._total

    @property
    def last_index(self) -> int:
        """Global index of the newest retained action (``-1`` when empty).

        In full mode this is ``len(self) - 1``; ring mode needs it because
        retained indices are windowed.
        """
        return self._actions[-1].index if self._actions else -1

    def is_full(self) -> bool:
        return self.mode.kind == "full"

    def derived(self, build: Callable[["Trace"], View]) -> View:
        """The view ``build(self)``, computed on first request and then shared.

        Analyses that answer many questions about one finished trace (the
        per-actor projections, the SNOW checkers' traffic index) build their
        lookup structure once here instead of re-walking the trace per
        question.  Views are keyed by the ``build`` function and dropped
        lazily: a request after ``total_appended`` has moved rebuilds, so the
        append path does no bookkeeping for them.  A view is shared by every
        caller and must be treated as read-only.
        """
        if self._derived_at != self._total:
            self._derived = {}
            self._derived_at = self._total
        try:
            return self._derived[build]
        except KeyError:
            view = self._derived[build] = build(self)
            return view

    # ------------------------------------------------------------------
    # Projections and filters
    # ------------------------------------------------------------------
    def project(self, actor: str) -> Tuple[Action, ...]:
        """Projection ``trace|actor``: the subsequence of actions at ``actor``.

        All projections are built together in one pass on the first request
        (a :meth:`derived` view), so projecting onto each automaton in turn
        costs one trace walk in total.
        """
        return self.derived(_projections).get(actor, ())

    def external(self) -> Tuple[Action, ...]:
        """The subsequence of external actions (the *trace* in I/O-automata terms)."""
        return tuple(a for a in self._actions if a.is_external())

    def of_kind(self, kind: ActionKind) -> Tuple[Action, ...]:
        return tuple(a for a in self._actions if a.kind == kind)

    def actors(self) -> Tuple[str, ...]:
        """All automata that take at least one action, in order of appearance."""
        seen: Dict[str, None] = {}
        for action in self._actions:
            seen.setdefault(action.actor, None)
        return tuple(seen)

    def signature(self) -> Tuple[Tuple[Any, ...], ...]:
        """A canonical, ``msg_id``-free projection of the whole trace.

        Message ids are numbered per simulation, so two runs of one
        ``(config, seed)`` under the same transaction ids produce equal
        :class:`Action` records; the signature is for comparisons that must
        not depend on the numbering (a fault-free run against one that sent
        extra messages first, a hand-built trace against a simulated one).
        It keeps everything observable about each action except the ids —
        ``(kind, actor, msg_type, src, dst, payload, info)`` — which makes
        cross-run determinism and golden-trace assertions possible
        (e.g. "a run with ``FaultPlan.none()`` equals a run with no fault
        plane at all").
        """
        rows = []
        for action in self._actions:
            message = action.message
            rows.append(
                (
                    action.kind.value,
                    action.actor,
                    message.msg_type if message is not None else None,
                    message.src if message is not None else None,
                    message.dst if message is not None else None,
                    message.items if message is not None else None,
                    action.info,
                )
            )
        return tuple(rows)

    # ------------------------------------------------------------------
    # Queries used by the property checkers
    # ------------------------------------------------------------------
    def find(self, predicate: Callable[[Action], bool], start: int = 0) -> Optional[Action]:
        """First action at or after ``start`` satisfying ``predicate``.

        Iterates by index instead of slicing: the property checkers call
        this in inner loops, and ``self._actions[start:]`` copied the whole
        tail of the trace on every call.  ``start`` is a *global* trace
        index; in ring mode (windowed retention) the scan compares against
        each action's stamped index instead of assuming index == position.
        """
        actions = self._actions
        if not self.is_full():
            start = max(start, 0)
            for action in actions:
                if action.index >= start and predicate(action):
                    return action
            return None
        for position in range(max(start, 0), len(actions)):
            action = actions[position]
            if predicate(action):
                return action
        return None

    def find_send(self, message: Message) -> Optional[Action]:
        """The ``send`` action of ``message`` (matched by ``msg_id``)."""
        return self.find(
            lambda a: a.kind == ActionKind.SEND and a.message is not None and a.message.msg_id == message.msg_id
        )

    def find_recv(self, message: Message) -> Optional[Action]:
        """The ``recv`` action of ``message`` (matched by ``msg_id``)."""
        return self.find(
            lambda a: a.kind == ActionKind.RECV and a.message is not None and a.message.msg_id == message.msg_id
        )

    def between(self, start_index: int, end_index: int) -> Tuple[Action, ...]:
        """Actions strictly between two trace indices.

        ``append`` stamps each action with its list position, so in full
        mode the window is a direct slice — O(window) instead of the
        full-trace scan this used to be.  Ring mode (where retained indices
        are windowed) falls back to the index scan and returns whatever was
        retained inside the window.
        """
        if start_index > end_index:
            raise TraceError(f"between({start_index}, {end_index}): start after end")
        if not self.is_full():
            return tuple(
                a for a in self._actions if start_index < a.index < end_index
            )
        low = max(start_index + 1, 0)
        high = max(end_index, low)
        return tuple(self._actions[low:high])

    def prefix(self, action: Action) -> "Trace":
        """``prefix(trace, a)``: the finite prefix ending with ``a`` (inclusive).

        Mirrors the paper's ``prefix(α, a)`` notation.
        """
        if not self.is_full():
            raise TraceError(
                f"prefix() needs a full-mode trace (this one is "
                f"{self.mode.describe()}); a renumbered partial prefix would "
                "not be the paper's prefix"
            )
        if action.index < 0 or action.index >= len(self._actions):
            raise TraceError("action is not part of this trace")
        if not self._actions[action.index].same_step(action):
            raise TraceError("action does not match the trace at its index")
        return Trace(self._actions[: action.index + 1])

    def suffix_after(self, action: Action) -> Tuple[Action, ...]:
        """All actions strictly after ``action``.

        A plain slice: the returned tuple is a copy by contract, and list
        slicing materialises the tail at memcpy speed (an ``islice`` variant
        measured ~100x slower — it must *iterate* to ``index`` first).
        Ring mode scans by stamped index instead.
        """
        if not self.is_full():
            return tuple(a for a in self._actions if a.index > action.index)
        return tuple(self._actions[action.index + 1 :])

    # ------------------------------------------------------------------
    # Indistinguishability (Lemma 3 vocabulary)
    # ------------------------------------------------------------------
    def indistinguishable_at(self, other: "Trace", actor: str) -> bool:
        """``self ~_actor other``: identical projections at ``actor``.

        Two executions are indistinguishable at an automaton when the
        automaton goes through the same sequence of steps in both; with our
        action records this is projection equality modulo trace indices.
        """
        mine = self.project(actor)
        theirs = other.project(actor)
        if len(mine) != len(theirs):
            return False
        return all(a.same_step(b) for a, b in zip(mine, theirs))

    # ------------------------------------------------------------------
    # Well-formedness of the channel layer
    # ------------------------------------------------------------------
    def validate_channels(self) -> None:
        """Check that every ``recv`` is preceded by a matching ``send``.

        Reliable asynchronous channels deliver every message at most once and
        never invent messages; this validates exactly that over the trace and
        is used by the tests and by the commuting transformation to confirm
        that a transformed action sequence is still a plausible execution.
        """
        sent: Dict[int, int] = {}
        delivered: Dict[int, int] = {}
        for action in self._actions:
            if action.message is None:
                continue
            if action.kind == ActionKind.SEND:
                if action.message.msg_id in sent:
                    raise TraceError(f"message {action.message.describe()} sent twice")
                sent[action.message.msg_id] = action.index
            elif action.kind == ActionKind.RECV:
                mid = action.message.msg_id
                if mid not in sent:
                    raise TraceError(f"message {action.message.describe()} received before being sent")
                if mid in delivered:
                    raise TraceError(f"message {action.message.describe()} delivered twice")
                if sent[mid] >= action.index:
                    raise TraceError(f"message {action.message.describe()} received before its send action")
                delivered[mid] = action.index

    def undelivered_messages(self) -> Tuple[Message, ...]:
        """Messages that were sent but never received in this trace."""
        sent: Dict[int, Message] = {}
        for action in self._actions:
            if action.message is None:
                continue
            if action.kind == ActionKind.SEND:
                sent[action.message.msg_id] = action.message
            elif action.kind == ActionKind.RECV:
                sent.pop(action.message.msg_id, None)
        return tuple(sent.values())

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def describe(self, limit: Optional[int] = None) -> str:
        """Multi-line human-readable rendering (used by examples and reports)."""
        lines = []
        retained = list(self._actions) if isinstance(self._actions, deque) else self._actions
        actions = retained if limit is None else retained[:limit]
        for action in actions:
            lines.append(f"{action.index:5d}  {action.describe()}")
        if limit is not None and len(self._actions) > limit:
            lines.append(f"  ... ({len(self._actions) - limit} more actions)")
        return "\n".join(lines)

    def copy(self) -> "Trace":
        return Trace(self._actions)


@dataclass(frozen=True)
class Fragment:
    """A contiguous slice of a trace, remembered with its origin indices.

    Fragments are the unit the proofs reason about: the invocation fragment
    ``I_i``, the non-blocking fragments ``F_{i,x}``/``F_{i,y}`` and the
    completion fragment ``E_i`` of a READ transaction are all fragments in
    this sense.  :mod:`repro.proofs.fragments` builds them from traces and
    implements the commuting lemma on them.
    """

    actions: Tuple[Action, ...]
    label: str = ""

    def __len__(self) -> int:
        return len(self.actions)

    @property
    def start_index(self) -> int:
        if not self.actions:
            raise TraceError(f"fragment {self.label!r} is empty")
        return self.actions[0].index

    @property
    def end_index(self) -> int:
        if not self.actions:
            raise TraceError(f"fragment {self.label!r} is empty")
        return self.actions[-1].index

    def actors(self) -> Tuple[str, ...]:
        seen: Dict[str, None] = {}
        for action in self.actions:
            seen.setdefault(action.actor, None)
        return tuple(seen)

    def single_actor(self) -> Optional[str]:
        """The unique automaton of this fragment, or ``None`` if mixed."""
        actors = self.actors()
        if len(actors) == 1:
            return actors[0]
        return None

    def has_input_actions(self) -> bool:
        return any(a.is_input() for a in self.actions)

    def has_external_actions(self) -> bool:
        return any(a.is_external() for a in self.actions)

    def same_steps(self, other: "Fragment") -> bool:
        """Step-wise equality modulo indices (projection identity)."""
        if len(self.actions) != len(other.actions):
            return False
        return all(a.same_step(b) for a, b in zip(self.actions, other.actions))


def concat_fragments(fragments: Sequence[Fragment]) -> Tuple[Action, ...]:
    """Concatenate fragments into a flat action sequence (indices untouched)."""
    out: List[Action] = []
    for fragment in fragments:
        out.extend(fragment.actions)
    return tuple(out)


def reindex(actions: Sequence[Action]) -> Tuple[Action, ...]:
    """Re-stamp a sequence of actions with consecutive indices from zero."""
    return tuple(action.with_index(i) for i, action in enumerate(actions))
