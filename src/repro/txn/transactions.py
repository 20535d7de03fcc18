"""READ and WRITE transactions.

The transaction model is exactly the paper's (Sections 2 and 7.1):

* a **READ transaction** ``R(o_{i1}, …, o_{iq})`` is a set of read requests
  for a subset of objects and returns one value per requested object;
* a **WRITE transaction** ``W((o_{i1}, v_{i1}), …, (o_{ip}, v_{ip}))`` is a
  set of write requests updating a subset of objects and returns ``ok``;
* read clients issue only READ transactions, write clients only WRITE
  transactions; there are no aborts and no failures.

Transactions are plain immutable values; the protocol implementations turn
them into messages, and the histories/checkers consume them together with
their results.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Iterable, Mapping, Optional, Sequence, Tuple

_txn_counter = itertools.count(1)


def _next_txn_id(prefix: str) -> str:
    return f"{prefix}{next(_txn_counter)}"


@dataclass(frozen=True)
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
        if not self.txn_id:
            object.__setattr__(self, "txn_id", _next_txn_id("R"))
        object.__setattr__(self, "objects", tuple(self.objects))

    def is_read(self) -> bool:
        return True

    def is_write(self) -> bool:
        return False

    def describe(self) -> str:
        return f"{self.txn_id}=READ({', '.join(self.objects)})"


@dataclass(frozen=True)
class WriteTransaction:
    """``W((o_{i1}, v_{i1}), …)``: update the listed objects with new values."""

    updates: Tuple[Tuple[str, Any], ...]
    txn_id: str = ""
    kind: str = field(default="write", init=False)

    def __post_init__(self) -> None:
        if not self.updates:
            raise ValueError("a WRITE transaction must write at least one object")
        objects = [obj for obj, _ in self.updates]
        if len(set(objects)) != len(objects):
            raise ValueError("a WRITE transaction writes distinct objects")
        if not self.txn_id:
            object.__setattr__(self, "txn_id", _next_txn_id("W"))
        object.__setattr__(self, "updates", tuple(tuple(u) for u in self.updates))

    # The derived views below are computed once per instance: a
    # ``cached_property`` is not a dataclass field, so ``==``, ``hash`` and
    # ``repr`` still see ``updates`` only.  The cached objects are shared by
    # every caller — read, don't mutate.
    @cached_property
    def objects(self) -> Tuple[str, ...]:
        return tuple(obj for obj, _ in self.updates)

    @cached_property
    def values(self) -> Mapping[str, Any]:
        return dict(self.updates)

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


@dataclass(frozen=True)
class ReadResult:
    """The values returned by a READ transaction, one per requested object."""

    values: Tuple[Tuple[str, Any], ...]

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "ReadResult":
        return cls(values=tuple(sorted(mapping.items())))

    @cached_property
    def as_dict(self) -> Dict[str, Any]:
        """Object→value view, built once per instance and shared (read-only;
        not a dataclass field, so ``==``/``hash``/``repr`` are unaffected)."""
        return dict(self.values)

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
