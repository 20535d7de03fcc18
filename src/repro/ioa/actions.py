"""Actions and messages of the I/O-automata execution model.

The paper models the system with Lynch-style I/O automata: an execution is an
alternating sequence of states and actions, and the proofs only ever reason
about the *actions* (``send``, ``recv``, ``INV``, ``RESP`` and internal
steps) together with the automaton at which each action occurs.  We mirror
that: a simulation produces a :class:`~repro.ioa.trace.Trace`, which is a
sequence of :class:`Action` records, and every property checker and proof
replay consumes those records.

Design notes
------------

* ``Message`` is immutable.  Payloads are stored as a tuple of ``(key, value)``
  pairs so that messages are hashable and can be used in sets/dicts by the
  schedulers and adversaries; ``payload`` exposes them as a read-only mapping.
* ``Action`` carries the acting automaton (``actor``), the kind, the message
  (for ``send``/``recv``) and a free-form ``info`` mapping used to tag
  transaction identifiers, phases and protocol-specific annotations (for
  example the number of versions carried by a reply, used by the O-property
  checker).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import FrozenInstanceError
from operator import attrgetter
from types import MappingProxyType
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple


class ActionKind(enum.Enum):
    """The kinds of actions that can appear in a trace.

    ``SEND``/``RECV`` are the channel actions of the paper's model,
    ``INVOKE``/``RESPOND`` are the external transaction boundary actions
    (``INV`` / ``RESP`` in the paper), ``INTERNAL`` covers local computation
    steps that protocols choose to record, and ``START`` marks automaton
    start-up steps.
    """

    SEND = "send"
    RECV = "recv"
    INVOKE = "invoke"
    RESPOND = "respond"
    INTERNAL = "internal"
    START = "start"

    def is_external(self) -> bool:
        """External actions are everything except ``INTERNAL``/``START``.

        This matches the I/O-automata notion used by Lemma 2 (commuting
        fragments): input and output actions are external; internal actions
        are not observable by other automata.
        """
        return self in (ActionKind.SEND, ActionKind.RECV, ActionKind.INVOKE, ActionKind.RESPOND)

    def is_input(self) -> bool:
        """Input actions of an automaton: message receipt and invocations."""
        return self in (ActionKind.RECV, ActionKind.INVOKE)

    def is_output(self) -> bool:
        """Output actions of an automaton: message send and responses."""
        return self in (ActionKind.SEND, ActionKind.RESPOND)


#: ids of messages built outside a kernel (unit tests, proofs): a
#: ``Simulation`` numbers its own from zero, these count down from -1
_message_counter = itertools.count(-1, -1)

Items = Tuple[Tuple[str, Any], ...]


def _freeze_value(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(value)
    if isinstance(value, set):
        return frozenset(value)
    return tuple(sorted(value.items())) if isinstance(value, dict) else value


def _freeze_payload(payload: Mapping[str, Any]) -> Items:
    """Freeze a payload mapping into a sorted tuple of items.

    Values are left untouched (they may be tuples, frozensets, numbers or
    strings) unless one is a ``list``/``set``/``dict`` (or a subclass) —
    rare, so the per-value pass runs only when a probe finds one.
    """
    if not payload:
        return ()
    # Keys are unique, so sorting the items never compares values.
    items = tuple(sorted(payload.items()))
    for _, value in items:
        if isinstance(value, (list, set, dict)):
            return tuple((key, _freeze_value(value)) for key, value in items)
    return items


class FrozenRecord:
    """Base of the per-event records: a frozen dataclass (same ``==``,
    ``hash``, ``repr``; assignment and deletion raise) without the instance
    ``__dict__`` and the generated ``__init__`` — a full trace keeps every
    record, so their construction and the GC's walk over them are hot.  A
    subclass names its fields in ``__slots__``, sets ``_fields`` to their
    ``attrgetter`` and fills them in ``__init__`` through :func:`slot_setters`.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is self.__class__:
            return self._fields(self) == self._fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        values = zip(self.__slots__, self._fields(self))
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in values)})"

    def __reduce__(self):
        return (type(self), self._fields(self))


def slot_setters(cls: type):
    """The ``__set__`` of each slot of ``cls``: how a record's own ``__init__``
    (and nothing else but ``Trace._store``) writes its fields."""
    return (getattr(cls, name).__set__ for name in cls.__slots__)


class Message(FrozenRecord):
    """A single message in flight between two automata.

    Attributes
    ----------
    msg_type:
        Protocol-level tag, e.g. ``"read-val"`` or ``"info-reader"``; the
        names used by the protocol implementations follow the pseudocode in
        the paper.
    src, dst:
        Names of the sending and receiving automata.
    items:
        Frozen payload as a tuple of ``(key, value)`` pairs.
    msg_id:
        Identifier unique within one simulation, passed in by the kernel
        (``None``, a message built outside one, draws a negative id); used
        to match ``send`` and ``recv`` actions of the same message and by
        adversary scripts to refer to specific messages.
    """

    __slots__ = ("msg_type", "src", "dst", "items", "msg_id")
    _fields = attrgetter(*__slots__)

    def __init__(self, msg_type: str, src: str, dst: str, items: Items = (), msg_id: Optional[int] = None) -> None:
        _set_msg_type(self, msg_type)
        _set_src(self, src)
        _set_dst(self, dst)
        _set_items(self, items)
        _set_msg_id(self, next(_message_counter) if msg_id is None else msg_id)

    @classmethod
    def make(cls, msg_type: str, src: str, dst: str, payload: Optional[Mapping[str, Any]] = None) -> "Message":
        """Construct a message, freezing ``payload``."""
        return cls(msg_type, src, dst, _freeze_payload(payload or {}))

    @property
    def payload(self) -> Mapping[str, Any]:
        """Read-only mapping view of the payload."""
        return MappingProxyType(dict(self.items))

    def get(self, key: str, default: Any = None) -> Any:
        """Return ``payload[key]`` or ``default``."""
        for item_key, value in self.items:
            if item_key == key:
                return value
        return default

    def with_payload(self, **updates: Any) -> "Message":
        """Return a copy with payload keys updated (new ``msg_id``)."""
        merged: Dict[str, Any] = dict(self.items)
        merged.update(updates)
        return Message.make(self.msg_type, self.src, self.dst, merged)

    def describe(self) -> str:
        """Human-readable one-line description used in reports and errors."""
        return f"{self.msg_type}[{self.src}->{self.dst}]#{self.msg_id}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


_set_msg_type, _set_src, _set_dst, _set_items, _set_msg_id = slot_setters(Message)


class Action(FrozenRecord):
    """One step of an execution.

    ``index`` is the position of the action in the global trace (assigned by
    the trace when the action is appended), ``actor`` is the automaton at
    which the action occurs.  For ``SEND``/``RECV`` actions ``message`` holds
    the message; for ``INVOKE``/``RESPOND``/``INTERNAL`` actions the
    interesting data lives in ``info``.
    """

    __slots__ = ("kind", "actor", "message", "info", "index")
    _fields = attrgetter(*__slots__)

    def __init__(
        self, kind: ActionKind, actor: str, message: Optional[Message] = None, info: Items = (), index: int = -1
    ) -> None:
        _set_kind(self, kind)
        _set_actor(self, actor)
        _set_message(self, message)
        _set_info(self, info)
        _set_index(self, index)

    @classmethod
    def make(
        cls,
        kind: ActionKind,
        actor: str,
        message: Optional[Message] = None,
        info: Optional[Mapping[str, Any]] = None,
        index: int = -1,
    ) -> "Action":
        return cls(kind, actor, message, _freeze_payload(info or {}), index)

    @property
    def info_map(self) -> Mapping[str, Any]:
        """Read-only mapping view of ``info``."""
        return MappingProxyType(dict(self.info))

    def get(self, key: str, default: Any = None) -> Any:
        """Look up ``key`` first in ``info`` then in the message payload."""
        for info_key, value in self.info:
            if info_key == key:
                return value
        if self.message is not None:
            return self.message.get(key, default)
        return default

    def with_index(self, index: int) -> "Action":
        """Return a copy of the action positioned at ``index``."""
        return Action(self.kind, self.actor, self.message, self.info, index)

    def is_external(self) -> bool:
        return self.kind.is_external()

    def is_input(self) -> bool:
        return self.kind.is_input()

    def is_output(self) -> bool:
        return self.kind.is_output()

    def same_step(self, other: "Action") -> bool:
        """Equality ignoring the trace index.

        Two actions are the *same step* when they have the same kind, occur at
        the same automaton, involve the same message and carry the same info.
        This is the notion of sameness used when comparing projections of two
        different executions (indistinguishability, Lemma 3).
        """
        return (
            self.kind == other.kind
            and self.actor == other.actor
            and self.message == other.message
            and self.info == other.info
        )

    def describe(self) -> str:
        """Human-readable description, e.g. ``recv@s_x read-val[r1->s_x]#12``."""
        parts = [f"{self.kind.value}@{self.actor}"]
        if self.message is not None:
            parts.append(self.message.describe())
        info = dict(self.info)
        if info:
            parts.append(str(info))
        return " ".join(parts)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


_set_kind, _set_actor, _set_message, _set_info, _set_index = slot_setters(Action)


def send_action(message: Message, info: Optional[Mapping[str, Any]] = None) -> Action:
    """Build the ``send`` action of ``message`` (occurring at the sender)."""
    return Action.make(ActionKind.SEND, message.src, message, info)


def recv_action(message: Message, info: Optional[Mapping[str, Any]] = None) -> Action:
    """Build the ``recv`` action of ``message`` (occurring at the receiver)."""
    return Action.make(ActionKind.RECV, message.dst, message, info)


def invoke_action(actor: str, info: Optional[Mapping[str, Any]] = None) -> Action:
    """Build an ``INV`` action at a client."""
    return Action.make(ActionKind.INVOKE, actor, None, info)


def respond_action(actor: str, info: Optional[Mapping[str, Any]] = None) -> Action:
    """Build a ``RESP`` action at a client."""
    return Action.make(ActionKind.RESPOND, actor, None, info)


def internal_action(actor: str, info: Optional[Mapping[str, Any]] = None) -> Action:
    """Build an internal action at an automaton."""
    return Action.make(ActionKind.INTERNAL, actor, None, info)


def actions_at(actions: Iterable[Action], actor: str) -> Tuple[Action, ...]:
    """Filter an iterable of actions down to those occurring at ``actor``."""
    return tuple(a for a in actions if a.actor == actor)
