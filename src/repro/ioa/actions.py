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

* ``Message`` is immutable.  A payload is stored as two tuples, its sorted
  ``keys`` and the ``values`` in the same order, so that messages are
  hashable and can be used in sets/dicts by the schedulers and adversaries.
  A full trace keeps every message, so a simulation interns one ``keys``
  tuple per key set (:class:`PayloadLayouts`) and the per-message cost is
  the values tuple alone; ``items`` (the ``(key, value)`` pairs) and
  ``payload`` (a read-only mapping) are views built on request.
* ``Action`` carries the acting automaton (``actor``), the kind, the message
  (for ``send``/``recv``) and a free-form ``info`` mapping used to tag
  transaction identifiers, phases and protocol-specific annotations (for
  example the number of versions carried by a reply, used by the O-property
  checker).  The info is stored the way a payload is: sorted ``info_keys``,
  interned by the simulation's :class:`PayloadLayouts`, and ``info_values``;
  ``info`` (the pairs) and ``info_map`` are views built on request.  The
  kernel records every action in one call, :meth:`Trace.record
  <repro.ioa.trace.Trace.record>`, with a layout's shared keys, so a retained
  action owns its values tuple and no ``(key, value)`` pair.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import FrozenInstanceError
from operator import attrgetter, itemgetter
from types import MappingProxyType
from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Tuple


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
Keys = Tuple[str, ...]
ValuesGetter = Callable[[Mapping[str, Any]], Tuple[Any, ...]]

#: the value types a freeze copies (subclasses included); the rest are kept
_MUTABLE = (list, set, dict)


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
        if isinstance(value, _MUTABLE):
            return tuple((key, _freeze_value(value)) for key, value in items)
    return items


def _freeze_values(values: Tuple[Any, ...]) -> Tuple[Any, ...]:
    """``values`` with each ``list``/``set``/``dict`` frozen as
    :func:`_freeze_payload` freezes it (``values`` itself when none is)."""
    for value in values:
        if isinstance(value, _MUTABLE):
            return tuple(map(_freeze_value, values))
    return values


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
    writes its fields, and the only other writers: the builders that skip
    ``__init__`` (:func:`new_action`, :meth:`PayloadLayouts.message`,
    ``Trace.record``, and the kernel's pending deliveries and invocations)
    and ``Trace.append``'s index stamp."""
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
    keys:
        The payload's keys, sorted (for a message built from ``items``, in
        the order given).  Every message one simulation sends with the same
        key set holds the same tuple (:class:`PayloadLayouts`).
    values:
        The payload's values in ``keys`` order, ``list``/``set``/``dict``
        values frozen one level deep.
    msg_id:
        Identifier unique within one simulation, passed in by the kernel
        (``None``, a message built outside one, draws a negative id); used
        to match ``send`` and ``recv`` actions of the same message and by
        adversary scripts to refer to specific messages.

    The constructor takes the payload as ``items``, a tuple of ``(key,
    value)`` pairs, and ``items`` (built on each read), ``repr`` and
    pickling show it in that form.
    """

    __slots__ = ("msg_type", "src", "dst", "keys", "values", "msg_id")
    _fields = attrgetter(*__slots__)

    def __init__(self, msg_type: str, src: str, dst: str, items: Items = (), msg_id: Optional[int] = None) -> None:
        _set_msg_type(self, msg_type)
        _set_src(self, src)
        _set_dst(self, dst)
        _set_keys(self, tuple([key for key, _ in items]))
        _set_values(self, tuple([value for _, value in items]))
        _set_msg_id(self, next(_message_counter) if msg_id is None else msg_id)

    @classmethod
    def make(cls, msg_type: str, src: str, dst: str, payload: Optional[Mapping[str, Any]] = None) -> "Message":
        """Construct a message, freezing ``payload``."""
        return cls(msg_type, src, dst, _freeze_payload(payload or {}))

    @property
    def items(self) -> Items:
        """The payload as a tuple of ``(key, value)`` pairs, built on each
        read; look a key up with :meth:`get`."""
        return tuple(zip(self.keys, self.values))

    @property
    def payload(self) -> Mapping[str, Any]:
        """Read-only mapping view of the payload."""
        return MappingProxyType(dict(zip(self.keys, self.values)))

    def get(self, key: str, default: Any = None) -> Any:
        """Return ``payload[key]`` or ``default``."""
        keys = self.keys
        return self.values[keys.index(key)] if key in keys else default

    def with_payload(self, **updates: Any) -> "Message":
        """Return a copy with payload keys updated (new ``msg_id``)."""
        merged: Dict[str, Any] = dict(zip(self.keys, self.values))
        merged.update(updates)
        return Message.make(self.msg_type, self.src, self.dst, merged)

    def describe(self) -> str:
        """Human-readable one-line description used in reports and errors."""
        return f"{self.msg_type}[{self.src}->{self.dst}]#{self.msg_id}"

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(msg_type={self.msg_type!r}, src={self.src!r}, "
            f"dst={self.dst!r}, items={self.items!r}, msg_id={self.msg_id!r})"
        )

    def __reduce__(self):
        return (type(self), (self.msg_type, self.src, self.dst, self.items, self.msg_id))


_set_msg_type, _set_src, _set_dst, _set_keys, _set_values, _set_msg_id = slot_setters(Message)
_new_record = object.__new__


def _values_getter(keys: Keys) -> ValuesGetter:
    """A C-level getter of a payload's values in ``keys`` order (a tuple
    whatever the count, which ``itemgetter`` alone gives from two keys on)."""
    if len(keys) > 1:
        return itemgetter(*keys)
    if keys:
        key = keys[0]
        return lambda payload: (payload[key],)
    return lambda payload: ()


class PayloadLayouts(dict):
    """One simulation's payload layouts, interned as its messages are sent
    and its actions recorded.

    Maps a payload's (or an action info's) keys in insertion order to
    ``(keys, take)``: the sorted key tuple that every message or action with
    that key set holds, and the getter of the values in that order.  Every
    insertion order of one key set maps to the same pair, so a key set is
    sorted once per simulation rather than once per record.
    """

    def __missing__(self, order: Keys) -> Tuple[Keys, ValuesGetter]:
        keys = tuple(sorted(order))
        layout = self.get(keys)
        if layout is None:
            layout = self[keys] = (keys, _values_getter(keys))
        self[order] = layout
        return layout

    def message(self, msg_type: str, src: str, dst: str, payload: Mapping[str, Any], msg_id: int) -> Message:
        """The message a simulation sends: equal to
        ``Message(msg_type, src, dst, _freeze_payload(payload), msg_id)``,
        holding its layout's shared ``keys``."""
        keys, take = self[tuple(payload)]
        values = take(payload)
        for value in values:  # _freeze_values, inline: one call less per send
            if isinstance(value, _MUTABLE):
                values = tuple(map(_freeze_value, values))
                break
        message = _new_record(Message)
        _set_msg_type(message, msg_type)
        _set_src(message, src)
        _set_dst(message, dst)
        _set_keys(message, keys)
        _set_values(message, values)
        _set_msg_id(message, msg_id)
        return message


class Action(FrozenRecord):
    """One step of an execution.

    ``index`` is the position of the action in the global trace (assigned by
    the trace when the action is appended), ``actor`` is the automaton at
    which the action occurs.  For ``SEND``/``RECV`` actions ``message`` holds
    the message; for ``INVOKE``/``RESPOND``/``INTERNAL`` actions the
    interesting data lives in the info: its sorted ``info_keys`` (one shared
    tuple per key set within a simulation) and its ``info_values`` in the
    same order, ``list``/``set``/``dict`` values frozen one level deep.

    The constructor takes the info as ``info``, a tuple of ``(key, value)``
    pairs, and ``info`` (built on each read), ``repr`` and pickling show it
    in that form.
    """

    __slots__ = ("kind", "actor", "message", "info_keys", "info_values", "index")
    _fields = attrgetter(*__slots__)

    def __init__(
        self, kind: ActionKind, actor: str, message: Optional[Message] = None, info: Items = (), index: int = -1
    ) -> None:
        _set_kind(self, kind)
        _set_actor(self, actor)
        _set_message(self, message)
        _set_info_keys(self, tuple([key for key, _ in info]))
        _set_info_values(self, tuple([value for _, value in info]))
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
    def info(self) -> Items:
        """The info as a tuple of ``(key, value)`` pairs, built on each read;
        look a key up with :meth:`get`."""
        return tuple(zip(self.info_keys, self.info_values))

    @property
    def info_map(self) -> Mapping[str, Any]:
        """Read-only mapping view of the info."""
        return MappingProxyType(dict(zip(self.info_keys, self.info_values)))

    def get(self, key: str, default: Any = None) -> Any:
        """Look up ``key`` first in the info then in the message payload."""
        keys = self.info_keys
        if key in keys:
            return self.info_values[keys.index(key)]
        if self.message is not None:
            return self.message.get(key, default)
        return default

    def with_index(self, index: int) -> "Action":
        """Return a copy of the action positioned at ``index``."""
        return new_action(self.kind, self.actor, self.message, self.info_keys, self.info_values, index)

    def is_external(self) -> bool:
        return self.kind.is_external()

    def is_input(self) -> bool:
        return self.kind.is_input()

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
            and self.info_keys == other.info_keys
            and self.info_values == other.info_values
        )

    def describe(self) -> str:
        """Human-readable description, e.g. ``recv@s_x read-val[r1->s_x]#12``."""
        parts = [f"{self.kind.value}@{self.actor}"]
        if self.message is not None:
            parts.append(self.message.describe())
        if self.info_keys:
            parts.append(str(dict(zip(self.info_keys, self.info_values))))
        return " ".join(parts)

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(kind={self.kind!r}, actor={self.actor!r}, "
            f"message={self.message!r}, info={self.info!r}, index={self.index!r})"
        )

    def __reduce__(self):
        return (type(self), (self.kind, self.actor, self.message, self.info, self.index))


_set_kind, _set_actor, _set_message, _set_info_keys, _set_info_values, _set_index = slot_setters(Action)


def new_action(
    kind: ActionKind,
    actor: str,
    message: Optional[Message] = None,
    info_keys: Keys = (),
    info_values: Tuple[Any, ...] = (),
    index: int = -1,
) -> Action:
    """The action with these fields, built without the constructor's split
    of ``info`` pairs: ``info_keys`` sorted and ``info_values`` already
    frozen (``Trace.record`` builds and stores one in a single call)."""
    action = _new_record(Action)
    _set_kind(action, kind)
    _set_actor(action, actor)
    _set_message(action, message)
    _set_info_keys(action, info_keys)
    _set_info_values(action, info_values)
    _set_index(action, index)
    return action


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
