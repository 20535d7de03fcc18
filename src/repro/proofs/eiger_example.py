"""The Figure 5 execution: Eiger's read-only transactions are not strictly serializable.

Section 6 corrects the earlier claim that Eiger's bounded-latency read-only
transactions provide strict serializability.  The root cause is that Eiger
orders operations with Lamport clocks, and logical clocks cannot observe the
*real-time* order of operations that are not causally related.

This module drives the concrete Eiger-style protocol implementation
(:mod:`repro.protocols.eiger`) through exactly the scenario of Figure 5:

* two servers ``sx`` (object ``ox``, the figure's ``A``) and ``sy``
  (object ``oy``, the figure's ``B``);
* write client ``w1`` issues ``W1 = write(oy=b1)`` and then
  ``W2 = write(oy=b2)``;
* a *different* write client ``w2`` issues ``W3 = write(ox=a3)`` only after
  ``W2`` has completed — so ``W2`` precedes ``W3`` in real time, but no
  message chain connects them and their Lamport timestamps do not reflect
  the order;
* the reader's READ transaction ``R = read(ox, oy)`` is concurrent with all
  three writes; the network delivers its request to ``sy`` after ``W1`` but
  before ``W2``, and its request to ``sx`` only after ``W3``.

Eiger's first-round validity-interval check then *accepts* the combination
``(ox = a3, oy = b1)`` — the returned logical intervals overlap — even though
any serialization that makes ``W3``'s value visible must also make ``W2``'s
value visible.  The strict-serializability checker rejects the resulting
history, reproducing the paper's counter-example end to end on a running
protocol rather than on paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.serializability import SerializabilityResult, check_strict_serializability
from ..core.snow import SnowReport, check_snow
from ..ioa.scheduler import (
    AdversarialScheduler,
    DelayRule,
    holds_message,
    until_message_delivered,
)
from ..protocols.eiger import EigerProtocol
from ..txn.history import History
from ..txn.transactions import ReadResult


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


def run_figure5(initial_value: str = "init") -> EigerExampleResult:
    """Construct and run the Figure 5 execution on the Eiger-style protocol."""
    protocol = EigerProtocol()
    handle = protocol.build(
        num_readers=1,
        num_writers=2,
        num_objects=2,
        initial_value=initial_value,
    )
    sx, sy = handle.servers[0], handle.servers[1]
    writer1, writer2 = handle.writers[0], handle.writers[1]
    reader = handle.readers[0]

    # The workload of Figure 5 -------------------------------------------------
    read_id = handle.submit_read(["ox", "oy"], reader=reader)
    w1_id = handle.submit_write({"oy": "b1"}, writer=writer1)
    w2_id = handle.submit_write({"oy": "b2"}, writer=writer1)
    w3_id = handle.submit_write({"ox": "a3"}, writer=writer2, after=[w2_id])

    # The adversarial schedule of Figure 5 --------------------------------------
    rules = [
        DelayRule(
            name="read-at-sy-waits-for-w1",
            holds=holds_message(msg_type="eiger-read", dst=sy, predicate=lambda m: m.get("txn") == read_id),
            until=until_message_delivered("eiger-write", src=writer1, dst=sy),
        ),
        DelayRule(
            name="w2-waits-for-read-at-sy",
            holds=holds_message(msg_type="eiger-write", dst=sy, predicate=lambda m: m.get("txn") == w2_id),
            until=until_message_delivered("eiger-read", src=reader, dst=sy),
        ),
        DelayRule(
            name="read-at-sx-waits-for-w3",
            holds=holds_message(msg_type="eiger-read", dst=sx, predicate=lambda m: m.get("txn") == read_id),
            until=until_message_delivered("eiger-write", src=writer2, dst=sx),
        ),
    ]
    handle.simulation.scheduler = AdversarialScheduler(rules=rules, release_when_stuck=False)

    handle.run_to_completion()

    history = handle.history()
    read_record = handle.simulation.transaction_record(read_id)
    report = check_snow(handle.simulation, history)
    serializability = check_strict_serializability(history)
    return EigerExampleResult(
        history=history,
        snow_report=report,
        serializability=serializability,
        read_result=read_record.result if read_record else None,
        accepted_first_round=bool(read_record.annotations.get("accepted_first_round")) if read_record else False,
        read_txn_id=read_id,
        w1_id=w1_id,
        w2_id=w2_id,
        w3_id=w3_id,
    )
