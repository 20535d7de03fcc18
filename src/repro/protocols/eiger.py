"""An Eiger-style read-only transaction protocol (Section 6, Figure 5).

The SNOW paper [15] claimed Eiger [14] was the one existing system whose
READ transactions were both bounded-latency (non-blocking, at most three
rounds) and strictly serializable.  Section 6 of *SNOW Revisited* corrects
this: Eiger orders operations with **Lamport clocks**, and logical clocks
cannot observe the real-time order of causally unrelated operations, so its
read-only transactions are *not* strictly serializable.

This module implements the relevant part of Eiger's design — enough to show
both its bounded latency and its anomaly:

* every process keeps a Lamport clock, updated on every message;
* servers store multi-version values with logical validity intervals
  ``[write_ts, overwritten_ts)``;
* a READ transaction's first round asks every server for its latest version
  together with the version's validity interval (``evt`` = the logical time
  it became valid, ``lvt`` = the server's current logical time, up to which
  it is known to still be valid);
* the reader computes the *effective time* ``ET = max(evt)``; if every
  returned interval contains ``ET`` the values are accepted immediately
  (one round); otherwise a second round asks the out-of-date servers for the
  version valid at ``ET``.

Reads therefore finish in at most two non-blocking one-version rounds — but,
as :mod:`repro.proofs.eiger_example` shows on a schedule the explorer finds
in Figure 5's system, the accepted result can mix a new version from one
server with a stale version from another even though an intervening WRITE
completed strictly earlier in real time, violating strict serializability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..ioa.actions import Message
from ..ioa.automaton import Await, Context, ReaderAutomaton, Send, ServerAutomaton, WriterAutomaton
from ..txn.placement import Placement, QuorumPolicy
from ..txn.transactions import ReadResult, ReadTransaction, WriteTransaction, WRITE_OK
from .base import BuildConfig, Protocol
from .replication import (
    DirectoryAwareServer,
    ReplicaClient,
    attempt_stamp,
    check_epoch_retry_budget,
    note_epoch_retry,
    quorum_round,
    stamp_matches,
)


@dataclass
class EigerVersion:
    """A logically-timestamped version with a validity interval."""

    value: Any
    write_ts: int
    valid_until: Optional[int] = None  # None = still the latest version

    def valid_at(self, logical_time: int) -> bool:
        if logical_time < self.write_ts:
            return False
        return self.valid_until is None or logical_time < self.valid_until


class EigerServer(DirectoryAwareServer, ServerAutomaton):
    """A server with a Lamport clock and interval-versioned storage.

    One replica of one object; replicas apply writes independently, each on
    its own clock (Lamport clocks never promised cross-process agreement, so
    per-replica clocks change nothing about Eiger's guarantees — or its
    anomaly).
    """

    def __init__(
        self,
        name: str,
        object_id: str,
        initial_value: Any = 0,
        group: Optional[Sequence[str]] = None,
    ) -> None:
        super().__init__(name)
        self.object_id = object_id
        self.initial_value = initial_value
        self.group: Tuple[str, ...] = tuple(group) if group is not None else (name,)
        self.clock = 0
        self.versions: List[EigerVersion] = [EigerVersion(value=initial_value, write_ts=0)]

    def forget(self) -> None:
        """Crash-with-amnesia hook: lose clock and versions."""
        self.clock = 0
        self.versions = [EigerVersion(value=self.initial_value, write_ts=0)]

    # ------------------------------------------------------------------
    def _tick(self, incoming_ts: int) -> int:
        self.clock = max(self.clock, int(incoming_ts)) + 1
        return self.clock

    def latest(self) -> EigerVersion:
        return self.versions[-1]

    def version_at(self, logical_time: int) -> EigerVersion:
        for version in reversed(self.versions):
            if version.valid_at(logical_time):
                return version
        # Older than every version: the initial version is the floor.
        return self.versions[0]

    # -- reconfiguration state transfer -----------------------------------
    def sync_versions(self) -> Tuple[Any, ...]:
        """Eiger state is the interval-version list plus the Lamport clock."""
        return (
            self.clock,
            tuple((v.value, v.write_ts, v.valid_until) for v in self.versions),
        )

    def install_sync(self, versions: Sequence[Any]) -> int:
        """Install source history without ever discarding an applied write.

        A freshly spawned replica (only the initial version) adopts the
        source's list wholesale.  A replica that already applied writes of
        its own — possible when an epoch-aware write quorum completed at the
        new replica before the sync arrived — keeps every applied version
        (it acked them; dropping one would break quorum intersection) and
        only splices in the source versions that confidently predate its
        first applied write on the Lamport order.
        """
        clock, entries = versions
        incoming = [
            EigerVersion(value=value, write_ts=int(write_ts), valid_until=valid_until)
            for value, write_ts, valid_until in entries
        ]
        self.clock = max(self.clock, int(clock))
        if len(self.versions) == 1:
            if len(incoming) <= 1:
                return 0
            before = len(self.versions)
            self.versions = incoming
            return len(self.versions) - before
        first_applied = self.versions[1]
        older = [
            version
            for version in incoming[1:]
            if version.valid_until is not None
            and version.write_ts < first_applied.write_ts
        ]
        if not older:
            return 0
        initial = self.versions[0]
        initial.valid_until = older[0].write_ts
        older[-1].valid_until = first_applied.write_ts
        self.versions = [initial] + older + self.versions[1:]
        return len(older)

    # ------------------------------------------------------------------
    def on_message(self, message: Message, ctx: Context) -> None:
        if self.handle_directory_message(message, ctx):
            return
        if message.msg_type == "eiger-write":
            ts = self._tick(message.get("ts", 0))
            self.latest().valid_until = ts
            self.versions.append(EigerVersion(value=message.get("value"), write_ts=ts))
            payload: Dict[str, Any] = {"txn": message.get("txn"), "ts": self.clock}
            if self.directory is not None:
                # Per-object ack counting is what the epoch-aware partial
                # write quorums need; plain runs stay field-identical.
                payload["object"] = self.object_id
                self._echo_attempt(message, payload)
            ctx.send(message.src, "eiger-write-ack", payload, phase="write")
        elif message.msg_type == "eiger-read":
            self._tick(message.get("ts", 0))
            version = self.latest()
            payload = {
                "txn": message.get("txn"),
                "object": self.object_id,
                "value": version.value,
                "evt": version.write_ts,
                "lvt": self.clock,
                "ts": self.clock,
                "num_versions": 1,
            }
            self._echo_attempt(message, payload)
            ctx.send(message.src, "eiger-read-reply", payload, phase="read-round-1")
        elif message.msg_type == "eiger-read-at":
            self._tick(message.get("ts", 0))
            effective_time = int(message.get("effective_time", 0))
            version = self.version_at(effective_time)
            payload = {
                "txn": message.get("txn"),
                "object": self.object_id,
                "value": version.value,
                "evt": version.write_ts,
                "ts": self.clock,
                "num_versions": 1,
            }
            self._echo_attempt(message, payload)
            ctx.send(message.src, "eiger-read-at-reply", payload, phase="read-round-2")


class EigerWriter(ReplicaClient, WriterAutomaton):
    """A write client with a Lamport clock; writes apply independently per replica.

    Writes always install at **every** replica (write-all): Eiger's validity
    intervals are per-replica state, so a replica that missed a write would
    answer reads with a stale interval forever.  Under a reconfiguration
    directory the install becomes a quorum round per active configuration
    instead; the reader's largest-``evt``-within-the-quorum rule then rides
    on quorum intersection to observe every completed write.
    """

    def __init__(
        self,
        name: str,
        objects: Sequence[str],
        placement: Optional[Placement] = None,
    ) -> None:
        super().__init__(name, objects, placement)
        self.clock = 0

    def run_transaction(self, txn: WriteTransaction, ctx: Context):
        view = self.view
        updates = tuple(txn.updates)
        # Write-all on fixed groups (see the class docstring); a write quorum
        # per configuration under a directory.
        needs = self.fixed.every_replica if self.directory is None else view.write_needed
        acks, _ = yield from quorum_round(
            txn.txn_id,
            view,
            ctx,
            lambda stamp: [
                Send(
                    dst=replica,
                    msg_type="eiger-write",
                    payload={
                        "txn": txn.txn_id,
                        "object": object_id,
                        "value": value,
                        "ts": self.clock,
                        **stamp,
                    },
                    phase="write",
                )
                for object_id, value in updates
                for replica in view.targets(object_id)
            ],
            ("eiger-write-ack",),
            needs,
            [obj for obj, _ in updates],
            description="write acks",
        )
        self.clock = max([self.clock] + [int(a.get("ts", 0)) for a in acks]) + 1
        return WRITE_OK


class EigerReader(ReplicaClient, ReaderAutomaton):
    """Eiger's read-only transaction: validity-interval round, optional catch-up round.

    Under replication, round 1 fans out to every replica of each object and
    accepts a read quorum per object, keeping, per object, the reply with
    the largest ``evt`` (the most recently revalidated version among the
    quorum); the optional catch-up round goes back to exactly the replica
    whose reply was kept, since validity intervals only mean something on
    the clock of the replica that issued them.

    Under a reconfiguration directory an ``epoch-mismatch`` in either round
    (a replica retired under the read) restarts the read against the
    refreshed groups, bounded by the shared retry budget.
    """

    def __init__(
        self,
        name: str,
        objects: Sequence[str],
        placement: Optional[Placement] = None,
        policy: Optional[QuorumPolicy] = None,
    ) -> None:
        super().__init__(name, objects, placement, policy)
        self.clock = 0

    @staticmethod
    def _select_round1(replies) -> Tuple[Dict[str, Any], Dict[str, Tuple[int, int]], Dict[str, str]]:
        """Per object: keep the reply with the largest ``evt`` (ties: first)."""
        intervals: Dict[str, Tuple[int, int]] = {}
        values: Dict[str, Any] = {}
        chosen_replica: Dict[str, str] = {}
        for reply in replies:
            object_id = reply.get("object")
            evt = int(reply.get("evt", 0))
            if object_id in intervals and evt <= intervals[object_id][0]:
                continue
            values[object_id] = reply.get("value")
            intervals[object_id] = (evt, int(reply.get("lvt", 0)))
            chosen_replica[object_id] = reply.src
        return values, intervals, chosen_replica

    def run_transaction(self, txn: ReadTransaction, ctx: Context):
        view = self.view
        read_set = tuple(txn.objects)
        attempt = 0
        restarts = 0
        while True:
            restarts += 1
            check_epoch_retry_budget("read", txn.txn_id, restarts)
            # Round 1: latest values with validity intervals ------------------
            replies, attempt = yield from quorum_round(
                txn.txn_id,
                view,
                ctx,
                lambda stamp: [
                    Send(
                        dst=replica,
                        msg_type="eiger-read",
                        payload={"txn": txn.txn_id, "object": object_id, "ts": self.clock, **stamp},
                        phase="read-round-1",
                    )
                    for object_id in read_set
                    for replica in view.targets(object_id)
                ],
                ("eiger-read-reply",),
                view.read_needed,
                read_set,
                start_attempt=attempt,
                description="round-1 replies",
            )
            self.clock = max([self.clock] + [int(r.get("ts", 0)) for r in replies]) + 1
            values, intervals, chosen_replica = self._select_round1(replies)
            effective_time = max(evt for evt, _ in intervals.values())
            stale = [obj for obj, (evt, lvt) in intervals.items() if lvt < effective_time]

            rounds = 1
            if stale:
                # Round 2: ask the chosen replicas for the version valid at
                # ET.  A replica chosen in round 1 may have been retired (or
                # even removed from the kernel after its drain) between the
                # rounds — restart the read instead of addressing a ghost.
                if any(view.is_retired(chosen_replica[obj]) for obj in stale):
                    note_epoch_retry(txn.txn_id, attempt, view, ctx)
                    continue
                rounds = 2
                attempt += 1
                stamp = attempt_stamp(view, attempt)
                for object_id in stale:
                    yield Send(
                        dst=chosen_replica[object_id],
                        msg_type="eiger-read-at",
                        payload={
                            "txn": txn.txn_id,
                            "object": object_id,
                            "effective_time": effective_time,
                            "ts": self.clock,
                            **stamp,
                        },
                        phase="read-round-2",
                    )
                # a mismatch resumes the session at once, so it is the last reply
                catch_up = yield Await(
                    matcher=lambda m, t=txn.txn_id, s=stamp: m.msg_type
                    in ("eiger-read-at-reply", "epoch-mismatch")
                    and m.get("txn") == t
                    and stamp_matches(s, m),
                    until=lambda collected, n=len(stale): len(collected) >= n
                    or collected[-1].msg_type == "epoch-mismatch",
                    description="round-2 replies",
                )
                if catch_up[-1].msg_type == "epoch-mismatch":
                    note_epoch_retry(txn.txn_id, attempt, view, ctx)
                    continue
                self.clock = max([self.clock] + [int(r.get("ts", 0)) for r in catch_up]) + 1
                for reply in catch_up:
                    values[reply.get("object")] = reply.get("value")

            ctx.annotate_transaction(
                txn.txn_id,
                protocol="eiger",
                effective_time=effective_time,
                eiger_rounds=rounds,
                accepted_first_round=not stale,
            )
            return ReadResult.from_mapping({obj: values[obj] for obj in read_set})


class EigerProtocol(Protocol):
    """Eiger-style read-only transactions: bounded latency but only logical-clock ordering."""

    name = "eiger"
    description = "Eiger-style Lamport-clock read-only transactions (bounded latency, NOT strictly serializable)"
    requires_c2c = False
    claimed_properties = "NOW + bounded rounds; S claimed by [15] but refuted in Section 6"
    claimed_read_rounds = 2
    claimed_versions = 1

    def make_clients(self, config: BuildConfig, placement: Placement) -> List[Any]:
        objects = config.objects()
        policy = config.quorum_policy()
        return [EigerReader(reader, objects, placement, policy) for reader in config.readers()] + [
            EigerWriter(writer, objects, placement) for writer in config.writers()
        ]

    def make_server(self, config: BuildConfig, object_id: str, name: str, group, coordinator: bool = False):
        return EigerServer(name, object_id, config.initial_value, group=group)
