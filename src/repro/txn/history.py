"""Transaction histories: invocation/response events, precedence, results.

A *history* is the transaction-level view of an execution: for each
transaction we keep its invocation index, response index and result, which is
all the strict-serializability checkers need.  Histories are usually built
from a finished :class:`~repro.ioa.simulation.Simulation` via
:meth:`History.from_simulation`, but they can also be written down directly
(the Eiger counter-example of Figure 5 and many unit tests do this).

The real-time precedence relation ``φ →_rt π`` ("φ responds before π is
invoked") is what the S property must respect on top of the sequential
semantics of the data type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from .transactions import (
    ReadResult,
    ReadTransaction,
    Transaction,
    WriteTransaction,
    WRITE_OK,
    is_read_transaction,
    is_write_transaction,
)


@dataclass(frozen=True)
class HistoryEntry:
    """One completed (or still-running) transaction in a history."""

    txn: Transaction
    client: str
    invoke_index: Optional[int]
    respond_index: Optional[int]
    result: Any = None

    @property
    def txn_id(self) -> str:
        return self.txn.txn_id

    @property
    def complete(self) -> bool:
        return self.invoke_index is not None and self.respond_index is not None

    def precedes(self, other: "HistoryEntry") -> bool:
        """Real-time precedence: this transaction responds before ``other`` is invoked."""
        if self.respond_index is None or other.invoke_index is None:
            return False
        return self.respond_index < other.invoke_index

    def overlaps(self, other: "HistoryEntry") -> bool:
        """Concurrent in real time (neither precedes the other)."""
        return not self.precedes(other) and not other.precedes(self)

    def describe(self) -> str:
        span = f"[{self.invoke_index},{self.respond_index}]"
        if isinstance(self.result, ReadResult):
            result = self.result.describe()
        else:
            result = repr(self.result)
        return f"{self.txn.describe()} {span} -> {result}"


class History:
    """An ordered, immutable collection of :class:`HistoryEntry` records: a
    changed history is a *new* ``History`` (see :meth:`restricted_to_complete`),
    so what an analysis derives from one is kept in its :attr:`views` (today
    the verdict of :mod:`repro.core.serializability`) for every later caller.
    Two histories with equal entries share nothing."""

    def __init__(self, entries: Iterable[HistoryEntry], objects: Sequence[str], initial_value: Any = 0) -> None:
        self._entries: List[HistoryEntry] = list(entries)
        self.objects = tuple(objects)
        self.initial_value = initial_value
        #: derived views by owning function: read-only, never stale (nothing here changes)
        self.views: Dict[Any, Any] = {}
        self._by_id: Dict[str, HistoryEntry] = {e.txn_id: e for e in self._entries}
        if len(self._by_id) != len(self._entries):
            raise ValueError("duplicate transaction ids in history")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_simulation(cls, simulation: Any, objects: Optional[Sequence[str]] = None, initial_value: Any = 0) -> "History":
        """Build a history from a simulation's transaction records.

        ``objects`` defaults to the union of objects touched by the recorded
        transactions (sorted), which is correct whenever the workload touches
        every object at least once; experiments that need untouched objects
        pass the full object list explicitly.
        """
        entries = []
        touched: Set[str] = set()
        for record in simulation.transaction_records():
            txn = record.txn
            touched.update(getattr(txn, "objects", ()))
            entries.append(
                HistoryEntry(
                    txn=txn,
                    client=record.client,
                    invoke_index=record.invoke_index,
                    respond_index=record.respond_index,
                    result=record.result,
                )
            )
        if objects is None:
            objects = tuple(sorted(touched))
        return cls(entries, objects, initial_value)

    @classmethod
    def from_results(
        cls,
        results: Sequence[Tuple[Transaction, str, int, int, Any]],
        objects: Sequence[str],
        initial_value: Any = 0,
    ) -> "History":
        """Build a history from ``(txn, client, invoke, respond, result)`` tuples."""
        entries = [
            HistoryEntry(txn=t, client=c, invoke_index=i, respond_index=r, result=res)
            for (t, c, i, r, res) in results
        ]
        return cls(entries, objects, initial_value)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def entries(self) -> Tuple[HistoryEntry, ...]:
        return tuple(self._entries)

    def entry(self, txn_id: str) -> HistoryEntry:
        return self._by_id[txn_id]

    def complete_entries(self) -> Tuple[HistoryEntry, ...]:
        return tuple(e for e in self._entries if e.complete)

    def incomplete_entries(self) -> Tuple[HistoryEntry, ...]:
        return tuple(e for e in self._entries if not e.complete)

    def reads(self) -> Tuple[HistoryEntry, ...]:
        return tuple(e for e in self._entries if is_read_transaction(e.txn))

    def writes(self) -> Tuple[HistoryEntry, ...]:
        return tuple(e for e in self._entries if is_write_transaction(e.txn))

    def transactions(self) -> Tuple[Transaction, ...]:
        return tuple(e.txn for e in self._entries)

    def results(self) -> Dict[str, Any]:
        """Map from txn_id to observed result, for complete transactions."""
        out: Dict[str, Any] = {}
        for entry in self._entries:
            if entry.complete:
                out[entry.txn_id] = entry.result
        return out

    # ------------------------------------------------------------------
    # Real-time precedence
    # ------------------------------------------------------------------
    def precedence_pairs(self) -> Tuple[Tuple[str, str], ...]:
        """All real-time precedence pairs ``(earlier, later)`` among complete txns."""
        complete = self.complete_entries()
        pairs = []
        for a in complete:
            for b in complete:
                if a is b:
                    continue
                if a.precedes(b):
                    pairs.append((a.txn_id, b.txn_id))
        return tuple(pairs)

    def concurrent_pairs(self) -> Tuple[Tuple[str, str], ...]:
        """Unordered pairs of real-time concurrent complete transactions."""
        complete = self.complete_entries()
        pairs = []
        for i, a in enumerate(complete):
            for b in complete[i + 1 :]:
                if a.overlaps(b):
                    pairs.append((a.txn_id, b.txn_id))
        return tuple(pairs)

    def max_concurrent_writes(self, entry: HistoryEntry) -> int:
        """Number of WRITE transactions concurrent with ``entry``.

        Used by the Figure 1(b) analysis: algorithm C may return up to
        ``|W|`` versions where ``|W|`` is the number of WRITE transactions
        concurrent with the READ.
        """
        return sum(1 for w in self.writes() if w.complete and w.overlaps(entry))

    # ------------------------------------------------------------------
    def describe(self) -> str:
        lines = [f"History with {len(self._entries)} transactions over objects {list(self.objects)}:"]
        for entry in self._entries:
            lines.append("  " + entry.describe())
        return "\n".join(lines)

    def restricted_to_complete(self) -> "History":
        """The history of the complete transactions only — ``self`` when
        nothing is incomplete (histories are immutable, so no copy is needed)."""
        complete = self.complete_entries()
        if len(complete) == len(self._entries):
            return self
        return History(complete, self.objects, self.initial_value)
