"""The natural (and doomed) SNOW candidate: read the latest value everywhere.

This protocol does exactly what a designer unaware of the SNOW theorem would
try first: READ transactions send one parallel request per object and every
server immediately answers with its *current latest* value — one round, one
version, non-blocking, and WRITE transactions are plain per-server installs.

It satisfies N, O and W by construction.  It does **not** satisfy S: with at
least two servers a READ that races a multi-object WRITE can observe the new
value on one server and the old value on another ("fractured read"), and no
serial order explains that.  The feasibility analysis
(:mod:`repro.core.feasibility`) uses this protocol as the executable witness
of the impossible cells of Figure 1(a): for every setting in which SNOW is
impossible, an adversarial or randomized schedule quickly produces an
execution whose history the strict-serializability checker rejects — while
the same searches over algorithm A's executions (in the possible cells) find
nothing.

Under the placement layer, writes install at a write quorum per object and
reads take a read quorum per object, keeping the version with the largest
key among the quorum (replies carry the key only in replicated groups, so
single-copy traces stay byte-identical).  Replication changes nothing about
the protocol's character: it stays NOW-but-not-S.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..ioa.actions import Message
from ..ioa.automaton import Context, ReaderAutomaton, Send, WriterAutomaton
from ..txn.objects import Key
from ..txn.placement import Placement, QuorumPolicy
from ..txn.transactions import ReadResult, ReadTransaction, WriteTransaction, WRITE_OK
from .base import BuildConfig, Protocol
from .replication import ReplicaClient, ReplicatedStorageServer, quorum_round, write_value_round


class NaiveServer(ReplicatedStorageServer):
    """Installs writes immediately; answers reads with the latest value.

    The shared storage replica already speaks this wire (``write-val`` /
    ``read-latest``) — the only deviation from the seed's server is the
    ``phase`` label on write acks, restored here.
    """

    def handle_write_val(self, message: Message, ctx: Context) -> None:
        self.store.put(message.get("key"), message.get("value"))
        if message.get("repair"):
            return  # read-repair installs are fire-and-forget (no ack)
        ctx.send(message.src, "ack-write", self._ack_payload(message), phase="write")


class NaiveWriter(ReplicaClient, WriterAutomaton):
    """Installs each update at a write quorum of its replica group."""

    def __init__(
        self,
        name: str,
        objects: Sequence[str],
        placement: Optional[Placement] = None,
        policy: Optional[QuorumPolicy] = None,
    ) -> None:
        super().__init__(name, objects, placement, policy)
        self.z = 0

    def run_transaction(self, txn: WriteTransaction, ctx: Context):
        self.z += 1
        key = Key(self.z, self.name)
        yield from write_value_round(txn.txn_id, tuple(txn.updates), key, self.view, ctx, phase="write")
        return WRITE_OK


class NaiveReader(ReplicaClient, ReaderAutomaton):
    """One parallel round of read-latest requests over the replica groups."""

    def run_transaction(self, txn: ReadTransaction, ctx: Context):
        view = self.view
        read_set = tuple(txn.objects)
        replies, _ = yield from quorum_round(
            txn.txn_id,
            view,
            ctx,
            lambda stamp: [
                Send(
                    dst=replica,
                    msg_type="read-latest",
                    payload={"txn": txn.txn_id, "object": object_id, **stamp},
                    phase="read",
                )
                for object_id in read_set
                for replica in view.targets(object_id)
            ],
            ("read-latest-reply",),
            view.read_needed,
            read_set,
            description="read replies",
        )
        values: Dict[str, Any] = {}
        best_key: Dict[str, Key] = {}
        for reply in replies:
            object_id = reply.get("object")
            key = reply.get("key")
            if key is None:
                # Single-copy reply: exactly one per object, take it.
                values[object_id] = reply.get("value")
                continue
            # Replicated: keep the newest version among the quorum (first
            # reply wins key ties, which keeps the choice deterministic).
            if object_id in best_key and key <= best_key[object_id]:
                continue
            best_key[object_id] = key
            values[object_id] = reply.get("value")
        return ReadResult.from_mapping({obj: values[obj] for obj in txn.objects})


class NaiveSnowCandidate(Protocol):
    """N + O + W by construction, S only by luck — the executable impossibility witness."""

    name = "naive-snow"
    description = "Latest-value one-round reads: satisfies N, O, W but violates S under contention"
    requires_c2c = False
    claimed_properties = "NOW (S fails: fractured reads)"
    claimed_read_rounds = 1
    claimed_versions = 1

    def make_clients(self, config: BuildConfig, placement: Placement) -> List[Any]:
        objects = config.objects()
        policy = config.quorum_policy()
        return [NaiveReader(reader, objects, placement, policy) for reader in config.readers()] + [
            NaiveWriter(writer, objects, placement, policy) for writer in config.writers()
        ]

    def make_server(self, config: BuildConfig, object_id: str, name: str, group, coordinator: bool = False):
        return NaiveServer(name, object_id, config.initial_value, group=group)
