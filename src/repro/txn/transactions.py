"""READ and WRITE transactions.

The transaction model is exactly the paper's (Sections 2 and 7.1):

* a **READ transaction** ``R(o_{i1}, …, o_{iq})`` is a set of read requests
  for a subset of objects and returns one value per requested object;
* a **WRITE transaction** ``W((o_{i1}, v_{i1}), …, (o_{ip}, v_{ip}))`` is a
  set of write requests updating a subset of objects and returns ``ok``;
* read clients issue only READ transactions, write clients only WRITE
  transactions (``Simulation.submit`` refuses the other kind); there are no
  aborts and no failures.

Transactions are plain immutable values; the protocol implementations turn
them into messages, and the histories/checkers consume them together with
their results.  A full run keeps every transaction and every read result, so
they are slotted frozen dataclasses (no instance ``__dict__``).  A derived
view (``WriteTransaction.objects``/``values``, ``ReadResult.as_dict``) is a
property over a private field declared ``init=False, repr=False,
compare=False``: filled on the first read with ``object.__setattr__`` and
shared by every later caller (read, don't mutate), while ``==``, ``hash``
and ``repr`` still see the declared fields only.

A transaction built without a ``txn_id`` keeps ``""`` until it is submitted:
``Simulation.submit`` names it from that simulation's own counter (``R<n>``,
``W<n>``) and queues the named copy, so ids are a function of the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple


@dataclass(frozen=True, slots=True)
class ReadTransaction:
    """``R(o_{i1}, …, o_{iq})``: read the listed objects."""

    objects: Tuple[str, ...]
    txn_id: str = ""
    kind: str = field(default="read", init=False)

    def __post_init__(self) -> None:
        if not self.objects:
            raise ValueError("a READ transaction must read at least one object")
        if len(set(self.objects)) != len(self.objects):
            raise ValueError("a READ transaction reads distinct objects")
        object.__setattr__(self, "objects", tuple(self.objects))

    def is_read(self) -> bool:
        return True

    def is_write(self) -> bool:
        return False

    def describe(self) -> str:
        return f"{self.txn_id}=READ({', '.join(self.objects)})"


@dataclass(frozen=True, slots=True)
class WriteTransaction:
    """``W((o_{i1}, v_{i1}), …)``: update the listed objects with new values."""

    updates: Tuple[Tuple[str, Any], ...]
    txn_id: str = ""
    kind: str = field(default="write", init=False)
    #: the caches behind :attr:`objects` and :attr:`values` (``None`` until
    #: first read; outside ``==``, ``hash`` and ``repr``)
    _objects: Optional[Tuple[str, ...]] = field(default=None, init=False, repr=False, compare=False)
    _values: Optional[Mapping[str, Any]] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.updates:
            raise ValueError("a WRITE transaction must write at least one object")
        objects = [obj for obj, _ in self.updates]
        if len(set(objects)) != len(objects):
            raise ValueError("a WRITE transaction writes distinct objects")
        object.__setattr__(self, "updates", tuple(tuple(u) for u in self.updates))

    @property
    def objects(self) -> Tuple[str, ...]:
        """The written objects in ``updates`` order, built once and shared."""
        objects = self._objects
        if objects is None:
            objects = tuple(obj for obj, _ in self.updates)
            object.__setattr__(self, "_objects", objects)
        return objects

    @property
    def values(self) -> Mapping[str, Any]:
        """Object→value view of ``updates``, built once and shared (read-only)."""
        values = self._values
        if values is None:
            values = dict(self.updates)
            object.__setattr__(self, "_values", values)
        return values

    def value_for(self, object_id: str) -> Any:
        return self.values[object_id]

    def is_read(self) -> bool:
        return False

    def is_write(self) -> bool:
        return True

    def describe(self) -> str:
        inner = ", ".join(f"{o}={v!r}" for o, v in self.updates)
        return f"{self.txn_id}=WRITE({inner})"


Transaction = Any  # ReadTransaction | WriteTransaction


def read(*objects: str, txn_id: str = "") -> ReadTransaction:
    """Convenience constructor: ``read("ox", "oy")``."""
    return ReadTransaction(objects=tuple(objects), txn_id=txn_id)


def write(txn_id: str = "", **updates: Any) -> WriteTransaction:
    """Convenience constructor: ``write(ox=1, oy=1)``.

    Keyword order is preserved (Python ≥3.7 keeps keyword argument order), so
    ``write(ox=1, oy=1)`` writes ``ox`` then ``oy`` in the description, though
    semantically a WRITE transaction is an unordered set of updates.
    """
    return WriteTransaction(updates=tuple(updates.items()), txn_id=txn_id)


def write_pairs(pairs: Sequence[Tuple[str, Any]], txn_id: str = "") -> WriteTransaction:
    """Constructor from explicit (object, value) pairs."""
    return WriteTransaction(updates=tuple(pairs), txn_id=txn_id)


@dataclass(frozen=True, slots=True)
class ReadResult:
    """The values returned by a READ transaction, one per requested object."""

    values: Tuple[Tuple[str, Any], ...]
    #: the cache behind :attr:`as_dict` (``None`` until first read; outside
    #: ``==``, ``hash`` and ``repr``)
    _as_dict: Optional[Dict[str, Any]] = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "ReadResult":
        return cls(values=tuple(sorted(mapping.items())))

    @property
    def as_dict(self) -> Dict[str, Any]:
        """Object→value view, built once per instance and shared (read-only)."""
        as_dict = self._as_dict
        if as_dict is None:
            as_dict = dict(self.values)
            object.__setattr__(self, "_as_dict", as_dict)
        return as_dict

    def value_for(self, object_id: str) -> Any:
        return self.as_dict[object_id]

    def objects(self) -> Tuple[str, ...]:
        return tuple(o for o, _ in self.values)

    def describe(self) -> str:
        inner = ", ".join(f"{o}={v!r}" for o, v in self.values)
        return f"({inner})"


WRITE_OK = "ok"
"""The response of a WRITE transaction (the paper's ``ok`` status)."""


def is_read_transaction(txn: Any) -> bool:
    return isinstance(txn, ReadTransaction)


def is_write_transaction(txn: Any) -> bool:
    return isinstance(txn, WriteTransaction)
