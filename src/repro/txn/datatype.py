"""The sequential data type ``OT`` of Section 7.1.

``OT`` is a ``k``-object read/write register array with two kinds of
invocations — READ transactions over a subset of objects and WRITE
transactions over a subset of objects — and the transition function ``f``:

* ``f(READ(o_{i1},…,o_{iq}), state) = ((state[o_{i1}],…,state[o_{iq}]), state)``
* ``f(WRITE((o_{i1},u_{i1}),…), state) = (ok, state[o_{ij} ↦ u_{ij}])``

A *serial* execution of ``OT`` applies transactions one at a time with ``f``;
the strict-serializability checkers search for a serial order whose responses
match the observed ones.  This module provides the sequential specification,
used both by the checkers and by property-based tests as the reference model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, Mapping, Sequence, Tuple

from .transactions import (
    ReadResult,
    ReadTransaction,
    Transaction,
    WriteTransaction,
    WRITE_OK,
)


@dataclass(frozen=True)
class OTState:
    """An immutable snapshot of the ``k`` object values."""

    values: Tuple[Tuple[str, Any], ...]

    @classmethod
    def initial(cls, objects: Sequence[str], initial_value: Any = 0) -> "OTState":
        """The initial state: every object holds ``initial_value`` (the paper's ``v⁰``)."""
        return cls(values=tuple((o, initial_value) for o in objects))

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "OTState":
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

    def read(self, objects: Sequence[str]) -> Dict[str, Any]:
        """What a READ of ``objects`` returns in this state (``f``'s READ case)."""
        current = self.as_dict
        try:
            return {obj: current[obj] for obj in objects}
        except KeyError as error:
            raise KeyError(f"READ of unknown object {error.args[0]!r}") from None

    def with_updates(self, updates: Mapping[str, Any]) -> "OTState":
        merged = dict(self.values)
        for obj, value in updates.items():
            if obj not in merged:
                raise KeyError(f"unknown object {obj!r}")
            merged[obj] = value
        return OTState(values=tuple(sorted(merged.items())))


def apply_transaction(state: OTState, txn: Transaction) -> Tuple[Any, OTState]:
    """The transition function ``f`` of the data type ``OT``.

    Returns ``(response, next_state)``.
    """
    if isinstance(txn, ReadTransaction):
        return ReadResult.from_mapping(state.read(txn.objects)), state
    if isinstance(txn, WriteTransaction):
        return WRITE_OK, state.with_updates(txn.values)
    raise TypeError(f"not a transaction: {txn!r}")


def run_serial(
    transactions: Sequence[Transaction],
    objects: Sequence[str],
    initial_value: Any = 0,
) -> Tuple[Tuple[Any, ...], OTState]:
    """Execute transactions serially from the initial state.

    Returns the tuple of responses (one per transaction, in order) and the
    final state.  This is the reference semantics used by the checkers and
    by the hypothesis-based differential tests.
    """
    state = OTState.initial(objects, initial_value)
    responses = []
    for txn in transactions:
        response, state = apply_transaction(state, txn)
        responses.append(response)
    return tuple(responses), state


def serial_read_expectation(
    order: Sequence[Transaction],
    read_txn: ReadTransaction,
    objects: Sequence[str],
    initial_value: Any = 0,
) -> ReadResult:
    """What ``read_txn`` must return if the serial order is ``order``.

    ``order`` must contain ``read_txn`` (itself, or a transaction with its
    id when it has one); the expectation is computed by replaying the prefix
    of ``order`` before it.
    """
    state = OTState.initial(objects, initial_value)
    for txn in order:
        if txn is read_txn or (read_txn.txn_id and getattr(txn, "txn_id", None) == read_txn.txn_id):
            response, _ = apply_transaction(state, read_txn)
            return response
        _, state = apply_transaction(state, txn)
    raise ValueError(f"read transaction {read_txn.txn_id} not found in the serial order")


def consistent_with_serial_order(
    order: Sequence[Transaction],
    observed: Mapping[str, Any],
    objects: Sequence[str],
    initial_value: Any = 0,
) -> bool:
    """Check observed responses against a candidate serial order.

    ``observed`` maps ``txn_id`` to the observed response (a
    :class:`~repro.txn.transactions.ReadResult` for reads, anything for
    writes — write responses are always ``ok`` and carry no information).
    Only read responses constrain the order.
    """
    state = OTState.initial(objects, initial_value)
    for txn in order:
        response, state = apply_transaction(state, txn)
        if isinstance(txn, ReadTransaction):
            seen = observed.get(txn.txn_id)
            if seen is None:
                continue
            seen_map = seen.as_dict if isinstance(seen, ReadResult) else dict(seen)
            if seen_map != response.as_dict:
                return False
    return True
