"""The Figure 5 execution: Eiger's read-only transactions are not strictly serializable.

Section 6 corrects the earlier claim that Eiger's bounded-latency read-only
transactions provide strict serializability.  The root cause is that Eiger
orders operations with Lamport clocks, and logical clocks cannot observe the
*real-time* order of operations that are not causally related.

This module replays, on the concrete Eiger-style protocol
(:mod:`repro.protocols.eiger`), a schedule that the explorer
(:mod:`repro.proofs.exhaust`) finds in the system of Figure 5:

* two servers ``sx`` (object ``ox``, the figure's ``A``) and ``sy``
  (object ``oy``, the figure's ``B``);
* write client ``w1`` issues ``W1 = write(oy=b1)`` and then
  ``W2 = write(oy=b2)``;
* a *different* write client ``w2`` issues ``W3 = write(ox=a3)`` only after
  ``W2`` has completed — so ``W2`` precedes ``W3`` in real time, but no
  message chain connects them and their Lamport timestamps do not reflect
  the order;
* the reader's READ transaction ``R = read(ox, oy)`` is concurrent with all
  three writes.

Of the system's 14 traces, 4 are not strictly serializable; the schedule
replayed here is the first whose READ returns Figure 5's pair: the network
delivers its request to ``sy`` after ``W1`` but before ``W2``, and its
request to ``sx`` only after ``W3``.

Eiger's first-round validity-interval check then *accepts* the combination
``(ox = a3, oy = b1)`` — the returned logical intervals overlap — even though
any serialization that makes ``W3``'s value visible must also make ``W2``'s
value visible.  The strict-serializability checker rejects the resulting
history, reproducing the paper's counter-example end to end on a running
protocol rather than on paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

from ..core.serializability import SerializabilityResult
from ..core.snow import SnowReport
from ..txn.history import History
from ..txn.transactions import ReadResult
from .exhaust import figure5_system, replay

#: The explorer's first trace of Figure 5's system under Eiger whose READ
#: returns (a3, b1), as the keys of its events in the order they ran.
FIGURE5_SCHEDULE = (
    ("i", "W2"), ("i", "R1"), ("d", 0), ("d", 3), ("i", "W3"), ("d", 2), ("d", 5),
    ("d", 4), ("d", 6), ("i", "W4"), ("d", 7), ("d", 8), ("d", 1), ("d", 9),
)


@dataclass
class EigerExampleResult:
    """Everything the Figure 5 reproduction measures."""

    history: History
    snow_report: SnowReport
    serializability: SerializabilityResult
    read_result: Optional[ReadResult]
    accepted_first_round: bool
    read_txn_id: str
    w1_id: str
    w2_id: str
    w3_id: str

    @property
    def anomaly_reproduced(self) -> bool:
        """True when the read mixed W3's and W1's values and S is violated."""
        return (
            not self.serializability.ok
            and self.read_result is not None
            and self.read_result.value_for("ox") == "a3"
            and self.read_result.value_for("oy") == "b1"
        )

    def describe(self) -> str:
        lines = [
            "Figure 5 reproduction (Eiger-style read-only transaction):",
            f"  READ returned {self.read_result.describe() if self.read_result else 'nothing'}",
            f"  accepted in first round: {self.accepted_first_round}",
            f"  strict serializability: {self.serializability.describe()}",
            f"  anomaly reproduced: {self.anomaly_reproduced}",
        ]
        return "\n".join(lines)


def run_figure5() -> EigerExampleResult:
    """Replay :data:`FIGURE5_SCHEDULE` on the Eiger-style protocol."""
    handle = replay(partial(figure5_system, "eiger"), FIGURE5_SCHEDULE)
    read_record, w1, w2, w3 = handle.transaction_records()
    return EigerExampleResult(
        history=handle.history(),
        snow_report=handle.snow_report(),
        serializability=handle.serializability(),
        read_result=read_record.result,
        accepted_first_round=bool(read_record.annotations.get("accepted_first_round")),
        read_txn_id=read_record.txn_id,
        w1_id=w1.txn_id,
        w2_id=w2.txn_id,
        w3_id=w3.txn_id,
    )
