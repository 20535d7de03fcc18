"""Multi-round optimistic baseline: validating-retry one-version reads.

This is the executable witness of the ``(1 version, ∞ rounds)`` cell of
Figure 1(b): READ transactions that are strictly serializable, non-blocking
and one-version, at the price of an *unbounded* number of rounds under write
contention — the family of pre-existing designs the paper contrasts its
bounded algorithms B and C against.

Design
------

* WRITE transactions first obtain a globally unique, monotonically increasing
  **timestamp** from a timestamp server (we reuse the first server, ``s*``,
  for this role), then install ``(timestamp, value, write-set)`` at every
  written server; servers keep the value with the highest timestamp per
  object ("last writer wins" in timestamp order, which is consistent across
  servers because timestamps are issued centrally *before* any install).

* READ transactions repeatedly *collect* ``(value, timestamp, write-set,
  apply-counter)`` from every requested server and accept as soon as

  1. two consecutive collects observed the same apply-counter at every
     server (so the collected vector of latest versions coexisted at an
     instant inside the read's execution interval), and
  2. the snapshot is **write-set closed**: whenever the version returned for
     object *i* belongs to a WRITE transaction that also wrote object *j*
     (also being read), the version returned for *j* is at least as new —
     i.e. the read never observes a multi-object WRITE "half applied".

  Otherwise it retries; every concurrent conflicting WRITE can force another
  round, so the number of rounds is unbounded in theory and grows with
  contention in practice (measured by the contention benchmark).

Why this is strictly serializable (sketch): timestamps order all WRITE
transactions consistently with real time (a WRITE that completes before
another starts has a strictly smaller timestamp, because the timestamp is
obtained before any install and installs complete before the response);
condition (1) pins an instant ``t*`` inside the READ at which exactly the
returned values were the per-server newest; condition (2) rules out the only
way that instant can disagree with the timestamp order, namely a multi-object
WRITE applied at one read object but not yet at another.  Serializing every
WRITE at its timestamp and the READ just after the largest timestamp it
observed then reproduces the observed values.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..consensus.machines import TimestampStateMachine
from ..ioa.actions import Message
from ..ioa.automaton import Await, Context, ReaderAutomaton, Send, ServerAutomaton, WriterAutomaton
from ..ioa.errors import SimulationError
from ..txn.placement import Placement
from ..txn.transactions import ReadResult, ReadTransaction, WriteTransaction, WRITE_OK
from .base import BuildConfig, Protocol
from .coordinated import CoordinatedClient, coordinator_targets
from .replication import DirectoryAwareServer, ReplicaClient, quorum_round

#: how many collects a READ takes before it fails loudly (contention that
#: never quiesces; every collect after the first is one validation attempt)
MAX_COLLECTS = 128


class OccServer(DirectoryAwareServer, ServerAutomaton):
    """Timestamp-ordered latest-value store with an apply counter.

    The first server additionally acts as the timestamp oracle for writers.
    """

    def __init__(
        self,
        name: str,
        object_id: str,
        is_timestamp_server: bool,
        initial_value: Any = 0,
        group: Optional[Sequence[str]] = None,
    ) -> None:
        super().__init__(name)
        self.object_id = object_id
        self.is_timestamp_server = is_timestamp_server
        self.initial_value = initial_value
        self.group: Tuple[str, ...] = tuple(group) if group is not None else (name,)
        self.timestamp_counter = 0
        self.apply_counter = 0
        self.latest_value: Any = initial_value
        self.latest_timestamp = 0
        self.latest_write_set: Tuple[str, ...] = ()

    def forget(self) -> None:
        """Crash-with-amnesia hook: lose counters and the latest version."""
        self.timestamp_counter = 0
        self.apply_counter = 0
        self.latest_value = self.initial_value
        self.latest_timestamp = 0
        self.latest_write_set = ()

    # -- reconfiguration state transfer -----------------------------------
    def sync_versions(self) -> Tuple[Any, ...]:
        """OCC state is a latest-version register, not a multi-version store:
        stream the (timestamp, value, write-set) triple."""
        return ((self.latest_timestamp, self.latest_value, tuple(self.latest_write_set)),)

    def install_sync(self, versions: Sequence[Any]) -> int:
        installed = 0
        for timestamp, value, write_set in versions:
            if int(timestamp) > self.latest_timestamp:
                self.latest_timestamp = int(timestamp)
                self.latest_value = value
                self.latest_write_set = tuple(write_set)
                installed += 1
        return installed

    def on_message(self, message: Message, ctx: Context) -> None:
        if self.handle_directory_message(message, ctx):
            return
        if message.msg_type == "get-ts":
            if not self.is_timestamp_server:
                raise SimulationError(f"server {self.name} is not the timestamp server")
            self.timestamp_counter += 1
            ctx.send(
                message.src,
                "ts-reply",
                {"txn": message.get("txn"), "timestamp": self.timestamp_counter},
                phase="get-timestamp",
            )
        elif message.msg_type == "install":
            timestamp = int(message.get("timestamp", 0))
            self.apply_counter += 1
            if timestamp > self.latest_timestamp:
                self.latest_timestamp = timestamp
                self.latest_value = message.get("value")
                self.latest_write_set = tuple(message.get("write_set", ()))
            payload: Dict[str, Any] = {"txn": message.get("txn")}
            if self.directory is not None:
                # Per-object ack counting is what the epoch-aware partial
                # install quorums need; plain runs stay field-identical.
                payload["object"] = self.object_id
                self._echo_attempt(message, payload)
            ctx.send(message.src, "install-ack", payload, phase="install")
        elif message.msg_type == "collect":
            ctx.send(
                message.src,
                "collect-reply",
                {
                    "txn": message.get("txn"),
                    "object": self.object_id,
                    "value": self.latest_value,
                    "timestamp": self.latest_timestamp,
                    "write_set": self.latest_write_set,
                    "counter": self.apply_counter,
                    "attempt": message.get("attempt"),
                    "num_versions": 1,
                },
                phase="collect",
            )


class OccWriter(CoordinatedClient, WriterAutomaton):
    """Timestamp first, install second (at every replica — write-all).

    Timestamp-ordered last-writer-wins only converges when every replica
    sees every install, so partial write quorums are not an option here —
    except under a reconfiguration directory, where installs become an
    epoch-aware round (a write quorum per active configuration, with
    ``epoch-mismatch`` retries): quorum intersection with the collect
    quorums then carries the latest install to every read.  Retried
    installs are idempotent at the replicas (a duplicate install only bumps
    the apply counter, which at worst costs the reader one extra collect).
    The coordinator it addresses is the timestamp oracle.
    """

    def __init__(
        self,
        name: str,
        objects: Sequence[str],
        timestamp_server: str,
        placement: Optional[Placement] = None,
        timestamp_group: Optional[Sequence[str]] = None,
    ) -> None:
        super().__init__(name, objects, timestamp_server, placement, None, timestamp_group)

    def run_transaction(self, txn: WriteTransaction, ctx: Context):
        if not isinstance(txn, WriteTransaction):
            raise SimulationError(f"writer {self.name} received a non-WRITE transaction {txn!r}")
        view = self.view
        yield from [
            Send(
                dst=target,
                msg_type="get-ts",
                payload={"txn": txn.txn_id},
                phase="get-timestamp",
            )
            for target in self.coordinators()
        ]
        replies = yield Await(
            matcher=lambda m, txn_id=txn.txn_id: m.msg_type == "ts-reply" and m.get("txn") == txn_id,
            count=1,
            description="timestamp",
        )
        timestamp = int(replies[0].get("timestamp"))
        updates = tuple(txn.updates)
        write_set = tuple(obj for obj, _ in updates)
        # Write-all on fixed groups (see the class docstring); a write quorum
        # per configuration under a directory.
        needs = self.fixed.every_replica if self.directory is None else view.write_needed
        yield from quorum_round(
            txn.txn_id,
            view,
            ctx,
            lambda stamp: [
                Send(
                    dst=replica,
                    msg_type="install",
                    payload={
                        "txn": txn.txn_id,
                        "object": object_id,
                        "value": value,
                        "timestamp": timestamp,
                        "write_set": write_set,
                        **stamp,
                    },
                    phase="install",
                )
                for object_id, value in updates
                for replica in view.targets(object_id)
            ],
            ("install-ack",),
            needs,
            write_set,
            description="install acks",
        )
        ctx.annotate_transaction(txn.txn_id, protocol="occ", timestamp=timestamp)
        return WRITE_OK


class OccReader(ReplicaClient, ReaderAutomaton):
    """Collect-validate-retry reader (non-blocking, one-version, unbounded rounds).

    Under replication each collect gathers from **every** replica of every
    requested object (read-all — the counterpart of the writer's write-all);
    the per-replica apply counters must be stable between two consecutive
    collects at every replica, and the value chosen per object is the one
    with the highest timestamp among its replicas (they agree whenever the
    counters are stable and no install is in flight to part of the group).

    Under a reconfiguration directory each collect is instead a quorum round
    per active configuration (with ``epoch-mismatch`` retries); the
    double-collect validation then runs over the replicas common to both
    collects, which must still cover a read quorum — intersection with the
    install quorums keeps the chosen versions current.
    """

    def __init__(
        self,
        name: str,
        objects: Sequence[str],
        placement: Optional[Placement] = None,
    ) -> None:
        super().__init__(name, objects, placement)

    def _collect(self, txn: ReadTransaction, ctx: Context, attempt: int):
        """One collect; returns ``(snapshot, attempt)``.

        Under a directory the collect's number is the round's attempt
        counter, global across the transaction's collects, and the round
        matches only replies that echo it, so stale replies of an earlier
        collect never satisfy a later one.  On fixed groups the number is
        sent only because the wire has always carried it; the round matches
        on the transaction alone, and stale replies are ruled out instead
        because a collect returns only once every target answered and each
        target answers a request at most once.
        """
        view = self.view
        number = attempt + 1
        # Read-all on fixed groups (see the class docstring); a read quorum
        # per configuration under a directory.
        needs = self.fixed.every_replica if self.directory is None else view.read_needed
        replies, attempt = yield from quorum_round(
            txn.txn_id,
            view,
            ctx,
            lambda stamp: [
                Send(
                    dst=replica,
                    msg_type="collect",
                    payload={"txn": txn.txn_id, "object": object_id, "attempt": number, **stamp},
                    phase="collect",
                )
                for object_id in txn.objects
                for replica in view.targets(object_id)
            ],
            ("collect-reply",),
            needs,
            txn.objects,
            start_attempt=attempt,
            description="collect",
        )
        # Keyed by replica server: the double-collect validation is a
        # per-replica counter comparison (at replication factor 1 the key is
        # in bijection with the object, exactly the seed's snapshot).
        snapshot: Dict[str, Dict[str, Any]] = {}
        for reply in replies:
            snapshot[reply.src] = {
                "object": reply.get("object"),
                "value": reply.get("value"),
                "timestamp": int(reply.get("timestamp", 0)),
                "write_set": tuple(reply.get("write_set", ())),
                "counter": int(reply.get("counter", 0)),
            }
        return snapshot, attempt

    def _common_covers_quorum(self, common, read_set: Sequence[str]) -> bool:
        """Whether the replicas answering *both* collects still cover a read
        quorum per object per active configuration — the stability check's
        footing when membership moved between the collects."""
        view = self.view
        for object_id in read_set:
            for group, need in view.read_needed(object_id):
                if len(common.intersection(group)) < need:
                    return False
        return True

    def _chosen_per_object(
        self,
        snapshot: Dict[str, Dict[str, Any]],
        read_set: Sequence[str],
    ) -> Dict[str, Dict[str, Any]]:
        """Per object, the replica view with the highest timestamp.

        Group order breaks ties, which keeps the choice deterministic.
        """
        view = self.view
        chosen: Dict[str, Dict[str, Any]] = {}
        for object_id in read_set:
            best: Optional[Dict[str, Any]] = None
            for replica in view.targets(object_id):
                info = snapshot.get(replica)
                if info is None:
                    continue
                if best is None or info["timestamp"] > best["timestamp"]:
                    best = info
            if best is None:
                raise SimulationError(
                    f"occ reader {self.name} collected no reply for {object_id!r}"
                )
            chosen[object_id] = best
        return chosen

    @staticmethod
    def _write_set_closed(chosen: Dict[str, Dict[str, Any]], read_set: Sequence[str]) -> bool:
        """No multi-object WRITE is observed half-applied within the read set."""
        for object_i in read_set:
            info_i = chosen[object_i]
            for object_j in info_i["write_set"]:
                if object_j == object_i or object_j not in chosen:
                    continue
                if chosen[object_j]["timestamp"] < info_i["timestamp"]:
                    return False
        return True

    def run_transaction(self, txn: ReadTransaction, ctx: Context):
        if not isinstance(txn, ReadTransaction):
            raise SimulationError(f"reader {self.name} received a non-READ transaction {txn!r}")
        previous, attempt = yield from self._collect(txn, ctx, 0)
        collects = 1
        while collects < MAX_COLLECTS:
            collects += 1
            current, attempt = yield from self._collect(txn, ctx, attempt)
            common = previous.keys() & current.keys()
            counters_match = all(
                previous[replica]["counter"] == current[replica]["counter"]
                for replica in common
            )
            chosen = self._chosen_per_object(current, txn.objects)
            if (
                counters_match
                and self._common_covers_quorum(common, txn.objects)
                and self._write_set_closed(chosen, txn.objects)
            ):
                ctx.annotate_transaction(
                    txn.txn_id,
                    protocol="occ",
                    collects=collects,
                    snapshot_timestamp=max(chosen[obj]["timestamp"] for obj in txn.objects),
                )
                return ReadResult.from_mapping({obj: chosen[obj]["value"] for obj in txn.objects})
            previous = current
        raise SimulationError(
            f"occ reader {self.name} exhausted {MAX_COLLECTS} collects for {txn.txn_id}: "
            "write contention never quiesced"
        )


class OccProtocol(Protocol):
    """Strictly serializable, non-blocking, one-version reads with unbounded rounds."""

    name = "occ-double-collect"
    description = "Validating-retry snapshot reads: SNW + one-version but unbounded rounds under contention"
    requires_c2c = False
    has_coordinator = True  # the timestamp oracle is its metadata service
    claimed_properties = "S, N, W, one-version; rounds unbounded (Figure 1b, ∞ column)"
    claimed_read_rounds = None
    claimed_versions = 1

    def make_consensus_machine(self, config: BuildConfig) -> TimestampStateMachine:
        return TimestampStateMachine()

    def make_clients(self, config: BuildConfig, placement: Placement) -> List[Any]:
        objects = config.objects()
        timestamp_group = coordinator_targets(config, placement)
        return [
            OccReader(reader, objects, placement)
            for reader in config.readers()
        ] + [
            OccWriter(writer, objects, timestamp_group[0], placement, timestamp_group)
            for writer in config.writers()
        ]

    def make_server(self, config: BuildConfig, object_id: str, name: str, group, coordinator: bool = False):
        # only a founding server is the timestamp oracle: the role never
        # migrates through a replica-group change
        return OccServer(
            name,
            object_id,
            is_timestamp_server=coordinator,
            initial_value=config.initial_value,
            group=group,
        )
