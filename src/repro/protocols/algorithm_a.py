"""Algorithm A (Section 5.2, Pseudocode 4): SNOW in the MWSR setting with C2C.

Algorithm A shows that **all four SNOW properties are achievable** in the
multi-writer single-reader setting, provided clients may send messages to
each other: after installing its values at the servers, a writer informs the
*reader* directly (the ``info-reader`` phase) which objects it updated and
under which key.  The reader therefore always knows, locally, the latest
completed key for every object, and its READ transactions are a single
non-blocking one-version round: ask each server for exactly the key recorded
in the reader's ``List``.

Roles
-----

* **Writer** ``w`` — two phases per WRITE transaction:
  ``write-value`` (install ``(κ, v_i)`` at every replica of every written
  object, await a write quorum of acks per object) then ``info-reader``
  (tell the reader which objects were written under ``κ``; the reader's
  acknowledgement carries the transaction's tag).
* **Reader** ``r`` — keeps ``List``, an append-only log of
  ``(κ, (b_1 … b_k))`` tuples; READ transactions pick, per requested object,
  the key of the latest list entry that wrote the object and fetch exactly
  that version from the object's replica group, in one parallel round
  (first hit within the read quorum wins; quorum intersection guarantees
  one).
* **Server** ``s_i`` — one replica of one object: the shared multi-version
  store ``Vals`` (:class:`~repro.protocols.replication.ReplicatedStorageServer`)
  answering ``read-val κ`` immediately with the value stored under ``κ``.

With ``replication_factor=1`` (the paper's setting) every quorum is of size
one and the wire protocol is byte-identical to the single-copy pseudocode.

Tags (for the Lemma 20 checker): a WRITE's tag is ``|List|`` after its entry
is appended; a READ's tag is the (1-based) index of the newest list entry it
used.  This matches the order used in the proof of Theorem 3.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..consensus.machines import CoordinatorList
from ..ioa.automaton import Await, Context, ReaderAutomaton, Send, WriterAutomaton
from ..ioa.actions import Message
from ..txn.objects import Key
from ..txn.placement import Placement, QuorumPolicy
from ..txn.transactions import ReadResult, ReadTransaction, WriteTransaction, WRITE_OK
from .base import BuildConfig, Protocol
from .replication import ReplicaClient, ReplicatedStorageServer, key_read_round, write_value_round


# ----------------------------------------------------------------------
# Reader
# ----------------------------------------------------------------------
class AlgorithmAReader(ReplicaClient, ReaderAutomaton):
    """The single reader of algorithm A.

    State: ``List`` — ordered entries ``(key, bits)`` where ``bits`` marks each
    object 1 if the corresponding WRITE updated it.  The initial entry is
    ``(κ₀, all-ones)`` standing for the initial versions.  It is the same
    :class:`~repro.consensus.machines.CoordinatorList` the coordinator of
    algorithms B and C keeps.
    """

    def __init__(
        self,
        name: str,
        objects: Sequence[str],
        placement: Optional[Placement] = None,
        policy: Optional[QuorumPolicy] = None,
    ) -> None:
        super().__init__(name, objects, placement, policy)
        self.list = CoordinatorList(self.objects)

    # -- info-reader handling (may arrive at any time) --------------------
    def on_message(self, message: Message, ctx: Context) -> None:
        if message.msg_type != "info-reader":
            return
        tag = self.list.append(message.get("key"), dict(message.get("bits", ())))
        ctx.send(
            message.src,
            "ack-info",
            {"txn": message.get("txn"), "tag": tag},
            phase="info-reader",
        )

    # -- READ transactions -------------------------------------------------
    def run_transaction(self, txn: ReadTransaction, ctx: Context):
        tag, chosen = self.list.tag_array_for(txn.objects)
        # read-value phase: one parallel round over the replica groups,
        # one version per reply, first hit per object within the quorum.
        values, replies = yield from key_read_round(txn.txn_id, chosen, self.view, ctx)
        annotations: Dict[str, Any] = {"tag": tag, "protocol": "algorithm-a"}
        if not self.placement.is_trivial():
            annotations["quorum_replies"] = len(replies)
        ctx.annotate_transaction(txn.txn_id, **annotations)
        return ReadResult.from_mapping({obj: values[obj] for obj in txn.objects})


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------
class AlgorithmAWriter(ReplicaClient, WriterAutomaton):
    """A writer of algorithm A: write-value phase then info-reader phase."""

    def __init__(
        self,
        name: str,
        objects: Sequence[str],
        reader: str,
        placement: Optional[Placement] = None,
        policy: Optional[QuorumPolicy] = None,
    ) -> None:
        super().__init__(name, objects, placement, policy)
        self.reader = reader
        self.z = 0

    def run_transaction(self, txn: WriteTransaction, ctx: Context):
        self.z += 1
        key = Key(self.z, self.name)
        # write-value phase (a write quorum per written object) --------------
        yield from write_value_round(txn.txn_id, tuple(txn.updates), key, self.view, ctx)
        # info-reader phase (client-to-client!) ------------------------------
        written = txn.values
        bits = tuple((obj, 1 if obj in written else 0) for obj in self.objects)
        yield Send(
            dst=self.reader,
            msg_type="info-reader",
            payload={"txn": txn.txn_id, "key": key, "bits": bits},
            phase="info-reader",
        )
        acks = yield Await(
            matcher=lambda m, txn_id=txn.txn_id: m.msg_type == "ack-info" and m.get("txn") == txn_id,
            count=1,
            description="info-reader ack",
            counts_as_round=False,
        )
        tag = acks[0].get("tag")
        ctx.annotate_transaction(txn.txn_id, tag=tag, protocol="algorithm-a")
        return WRITE_OK


# ----------------------------------------------------------------------
# Server
# ----------------------------------------------------------------------
class AlgorithmAServer(ReplicatedStorageServer):
    """A server of algorithm A: a multi-version store answering by exact key."""

    missing_key_hint = "algorithm A's reader should never request an uninstalled version"


# ----------------------------------------------------------------------
# Protocol package
# ----------------------------------------------------------------------
class AlgorithmA(Protocol):
    """SNOW READ transactions for MWSR with client-to-client communication."""

    name = "algorithm-a"
    description = "Paper's algorithm A: SNOW in the multi-writer single-reader setting using C2C"
    requires_c2c = True
    supports_multiple_readers = False
    claimed_properties = "SNOW (Theorem 3)"
    claimed_read_rounds = 1
    claimed_versions = 1

    def make_clients(self, config: BuildConfig, placement: Placement) -> List[Any]:
        objects = config.objects()
        policy = config.quorum_policy()
        reader = config.readers()[0]
        return [AlgorithmAReader(reader, objects, placement, policy)] + [
            AlgorithmAWriter(writer, objects, reader, placement, policy) for writer in config.writers()
        ]

    def make_server(self, config: BuildConfig, object_id: str, name: str, group, coordinator: bool = False):
        return AlgorithmAServer(name, object_id, config.initial_value, group=group)
