"""Algorithm B (Section 8, Pseudocodes 5-6): SNW + one-version, two rounds, MWMR.

Algorithm B gives up the *one-round* half of the O property and in exchange
works for any number of readers and writers with **no client-to-client
communication**: READ transactions are strictly serializable, non-blocking,
return exactly one version per object, and always finish in **two** rounds —
the first bounded-latency strictly serializable READ transaction design
(together with algorithm C).

READ transaction of reader ``r``:

1. ``get-tag-array`` — ask the coordinator ``s*`` for, per requested object,
   the key of the latest completed WRITE that updated it (plus the read tag
   ``t_r``);
2. ``read-value`` — fetch exactly those keys from the replica groups, one
   version per reply; under replication the round fans out to every replica
   and completes on a read quorum per object (quorum intersection guarantees
   a hit, since the coordinator only names keys whose write quorum
   completed).

WRITE transactions are the shared Pseudocode 5 writer
(:class:`~repro.protocols.coordinated.CoordinatedWriter`).
"""

from __future__ import annotations

from typing import Any, Dict

from ..ioa.automaton import Await, Context, ReaderAutomaton, Send
from ..ioa.errors import SimulationError
from ..txn.objects import Key
from ..txn.transactions import ReadResult, ReadTransaction
from .coordinated import CoordinatedClient, CoordinatedProtocol
from .replication import key_read_round


class AlgorithmBReader(CoordinatedClient, ReaderAutomaton):
    """Two-round reader: consult the coordinator, then fetch exact versions."""

    def run_transaction(self, txn: ReadTransaction, ctx: Context):
        if not isinstance(txn, ReadTransaction):
            raise SimulationError(f"reader {self.name} received a non-READ transaction {txn!r}")
        # Round 1: get-tag-array (broadcast to the coordinator group; the
        # first — and with consensus, only committed — reply wins) -------------
        yield from [
            Send(
                dst=target,
                msg_type="get-tag-arr",
                payload={"txn": txn.txn_id, "read_set": tuple(txn.objects)},
                phase="get-tag-array",
            )
            for target in self.coordinators()
        ]
        replies = yield Await(
            matcher=lambda m, txn_id=txn.txn_id: m.msg_type == "tag-arr-reply" and m.get("txn") == txn_id,
            count=1,
            description="tag array",
        )
        tag = replies[0].get("tag")
        keys: Dict[str, Key] = dict(replies[0].get("keys", ()))
        # Round 2: read-value (a read quorum per replica group) -----------------
        chosen = {object_id: keys[object_id] for object_id in txn.objects}
        values, value_replies = yield from key_read_round(txn.txn_id, chosen, self.view, ctx)
        annotations: Dict[str, Any] = {"tag": tag, "protocol": "algorithm-b"}
        if not self.placement.is_trivial():
            annotations["quorum_replies"] = len(value_replies)
        ctx.annotate_transaction(txn.txn_id, **annotations)
        return ReadResult.from_mapping({obj: values[obj] for obj in txn.objects})


class AlgorithmB(CoordinatedProtocol):
    """SNW + one-version READ transactions in two non-blocking rounds (Theorem 4)."""

    name = "algorithm-b"
    description = "Paper's algorithm B: strictly serializable, non-blocking, one-version, two-round reads (MWMR, no C2C)"
    requires_c2c = False
    reader = AlgorithmBReader
    claimed_properties = "SNW + one-version (Theorem 4)"
    claimed_read_rounds = 2
    claimed_versions = 1
