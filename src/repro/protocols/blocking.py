"""Lock-based (blocking) baseline: strict two-phase locking with ordered acquisition.

The SNOW theorem says a READ transaction system must give up either the
strongest guarantees (S and W) or optimal latency (N and O).  This baseline
is the classic way real systems give up **N**: transactions take locks, and a
server that holds a conflicting lock simply *defers* its reply until the lock
is released — the reader blocks.

Design (kept deliberately textbook):

* all transactions acquire locks **in a global object order** (so the system
  is deadlock-free without a deadlock detector);
* readers take per-object read locks one at a time, collecting the value as
  each lock is granted, and release all locks after the last value arrives;
* writers take write locks one at a time, then install every value in a
  commit round, which also releases the locks and answers any deferred
  requests.

Because every transaction holds all of its locks simultaneously at some
instant between its invocation and response, executions are strictly
serializable (strict 2PL).  The price is exactly what the N- and O-checkers
report: replies can be deferred behind lock holders (not non-blocking) and a
q-object READ takes q sequential rounds (not one-round).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from ..ioa.actions import Message
from ..ioa.automaton import Await, Context, ReaderAutomaton, Send, ServerAutomaton, WriterAutomaton
from ..ioa.errors import SimulationError
from ..txn.objects import Key, VersionStore
from ..txn.placement import Placement
from ..txn.transactions import ReadResult, ReadTransaction, WriteTransaction, WRITE_OK
from .base import BuildConfig, Protocol
from .replication import (
    DirectoryAwareServer,
    ReplicaClient,
    attempt_stamp,
    check_epoch_retry_budget,
    note_epoch_retry,
    stamp_matches,
)


@dataclass
class _PendingRequest:
    message: Message
    is_write: bool


class LockingServer(DirectoryAwareServer, ServerAutomaton):
    """Per-replica read/write locks with a FIFO queue of deferred requests.

    Replication note: each replica keeps its *own* lock table; clients take
    locks on every replica of an object (in a global ``(object, replica)``
    order, which keeps the system deadlock-free) and commits install at every
    replica, so all copies stay identical.

    Under a reconfiguration directory, a retired replica answers every lock
    or commit request with ``epoch-mismatch`` (via the shared mixin), which
    makes the client release its partial locks and restart the transaction
    against the refreshed groups; ``unlock-write`` exists for exactly that
    abort path (release a write lock without installing).
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
        self.store = VersionStore(object_id, initial_value)
        self.write_locked_by: Optional[str] = None
        self.read_lock_holders: List[str] = []
        self.queue: Deque[_PendingRequest] = deque()

    def forget(self) -> None:
        """Crash-with-amnesia hook: lose store, locks and queued requests."""
        self.store = VersionStore(self.object_id, self.initial_value)
        self.write_locked_by = None
        self.read_lock_holders = []
        self.queue = deque()

    # ------------------------------------------------------------------
    def _can_grant_read(self) -> bool:
        return self.write_locked_by is None

    def _can_grant_write(self) -> bool:
        return self.write_locked_by is None and not self.read_lock_holders

    def _grant_read(self, message: Message, ctx: Context) -> None:
        self.read_lock_holders.append(message.src)
        version = self.store.latest()
        payload = {
            "txn": message.get("txn"),
            "object": self.object_id,
            "value": version.value,
            "num_versions": 1,
        }
        self._echo_attempt(message, payload)
        ctx.send(message.src, "lock-read-granted", payload, phase="lock-read")

    def _grant_write(self, message: Message, ctx: Context) -> None:
        self.write_locked_by = message.src
        payload = {"txn": message.get("txn"), "object": self.object_id}
        self._echo_attempt(message, payload)
        ctx.send(message.src, "lock-write-granted", payload, phase="lock-write")

    def _purge_queue(self, unlock: Message) -> None:
        """Drop the deferred requests of the attempt ``unlock`` releases.

        Only that attempt's: a restarted transaction's next attempt may have
        queued a request here before this unlock arrived (channels are not
        FIFO), and its client waits for that one.
        """
        src, txn, attempt = unlock.src, unlock.get("txn"), unlock.get("attempt")
        self.queue = deque(
            pending
            for pending in self.queue
            if not (
                pending.message.src == src
                and pending.message.get("txn") == txn
                and pending.message.get("attempt") == attempt
            )
        )

    def handle_directory_message(self, message: Message, ctx: Context) -> bool:
        handled = super().handle_directory_message(message, ctx)
        if (
            handled
            and self.directory is not None
            and self.directory.is_retired(self.name)
        ):
            # Retirement flush: clients whose lock requests were *queued*
            # before this server retired would otherwise wait forever (no
            # grant, no mismatch) — bounce them all and drop the locks the
            # moment any post-retirement message proves we are still being
            # addressed.
            self._flush_retired(ctx)
        return handled

    def on_retire(self, ctx: Context) -> None:
        # Once removed, no message can reach this server to trigger the
        # flush above, and a client queued behind a held lock would wait
        # forever: bounce the queue before the kernel removes it.
        self._flush_retired(ctx)

    def _flush_retired(self, ctx: Context) -> None:
        while self.queue:
            pending = self.queue.popleft()
            payload = {
                "txn": pending.message.get("txn"),
                "object": self.object_id,
                "epoch": self.directory.epoch,
            }
            self._echo_attempt(pending.message, payload)
            ctx.send(pending.message.src, "epoch-mismatch", payload, phase="reconfig")
        self.write_locked_by = None
        self.read_lock_holders = []

    def _drain_queue(self, ctx: Context) -> None:
        """Grant deferred requests from the front while compatible."""
        progressed = True
        while progressed and self.queue:
            progressed = False
            head = self.queue[0]
            if head.is_write and self._can_grant_write():
                self.queue.popleft()
                self._grant_write(head.message, ctx)
                progressed = True
            elif not head.is_write and self._can_grant_read():
                self.queue.popleft()
                self._grant_read(head.message, ctx)
                progressed = True

    # ------------------------------------------------------------------
    def on_message(self, message: Message, ctx: Context) -> None:
        if self.handle_directory_message(message, ctx):
            return
        if message.msg_type == "lock-read":
            if self._can_grant_read():
                self._grant_read(message, ctx)
            else:
                self.queue.append(_PendingRequest(message=message, is_write=False))
        elif message.msg_type == "unlock-read":
            if message.src in self.read_lock_holders:
                self.read_lock_holders.remove(message.src)
            if self.directory is not None:
                self._purge_queue(message)
            self._drain_queue(ctx)
        elif message.msg_type == "lock-write":
            if self._can_grant_write():
                self._grant_write(message, ctx)
            else:
                self.queue.append(_PendingRequest(message=message, is_write=True))
        elif message.msg_type == "unlock-write":
            # Abort-path release (epoch retries only): drop the lock and any
            # still-queued requests of the aborted attempt, install nothing.
            if self.write_locked_by == message.src:
                self.write_locked_by = None
            self._purge_queue(message)
            self._drain_queue(ctx)
        elif message.msg_type == "commit-write":
            if self.write_locked_by != message.src:
                raise SimulationError(
                    f"server {self.name}: commit from {message.src} which does not hold the write lock"
                )
            self.store.put(message.get("key"), message.get("value"))
            self.write_locked_by = None
            payload = {"txn": message.get("txn"), "object": self.object_id} if (
                self.directory is not None
            ) else {"txn": message.get("txn")}
            self._echo_attempt(message, payload)
            ctx.send(message.src, "commit-ack", payload, phase="commit")
            self._drain_queue(ctx)


class LockingReader(ReplicaClient, ReaderAutomaton):
    """Acquire read locks in (object, replica) order, then release.

    Lock targets are read from the view per attempt (the union ``C_old ∪
    C_new`` while a change is joint), so a transaction crossing a membership
    change locks every live copy; an ``epoch-mismatch`` from a retired
    replica releases the partial lock set and restarts the transaction, and
    so does a replica that retired after granting one of the attempt's locks.
    """

    def __init__(
        self,
        name: str,
        objects: Sequence[str],
        placement: Optional[Placement] = None,
    ) -> None:
        super().__init__(name, objects, placement)

    def run_transaction(self, txn: ReadTransaction, ctx: Context):
        view = self.view
        attempt = 0
        while True:
            attempt += 1
            check_epoch_retry_budget("read", txn.txn_id, attempt)
            stamp = attempt_stamp(view, attempt)
            values: Dict[str, Any] = {}
            granted: List[Tuple[str, str]] = []
            mismatch = False
            for object_id in sorted(txn.objects):
                if mismatch:
                    break
                for replica in view.targets(object_id):
                    if view.is_retired(replica):
                        # Retired (possibly already removed) between the
                        # targets snapshot and this send: the config moved.
                        mismatch = True
                        break
                    yield Send(
                        dst=replica,
                        msg_type="lock-read",
                        payload={"txn": txn.txn_id, "object": object_id, **stamp},
                        phase="lock-read",
                    )
                    replies = yield Await(
                        matcher=lambda m, t=txn.txn_id, o=object_id, s=stamp: m.msg_type
                        in ("lock-read-granted", "epoch-mismatch")
                        and m.get("txn") == t
                        and m.get("object") == o
                        and stamp_matches(s, m),
                        count=1,
                        description=f"read lock on {object_id}",
                    )
                    if replies[0].msg_type == "epoch-mismatch":
                        mismatch = True
                        break
                    granted.append((object_id, replica))
                    if object_id not in values:
                        # All replicas hold the same committed value
                        # (write-all commits); the primary's grant arrives
                        # first.
                        values[object_id] = replies[0].get("value")
            if not mismatch and any(view.is_retired(replica) for _, replica in granted):
                # A lock held on a replica that has since retired no longer
                # excludes the new group's writers: what it granted may be
                # older than what the rest of this attempt read.
                mismatch = True
            for object_id, replica in granted:
                # A replica retired since its grant still gets the release
                # while it exists: the retirement flush the release triggers
                # bounces the requests queued behind this lock.  One removed
                # since took its locks along.
                if not view.is_retired(replica) or ctx.has_automaton(replica):
                    yield Send(
                        dst=replica,
                        msg_type="unlock-read",
                        payload={"txn": txn.txn_id, "object": object_id, **stamp},
                        phase="unlock",
                    )
            if mismatch:
                note_epoch_retry(txn.txn_id, attempt, view, ctx)
                continue
            return ReadResult.from_mapping({obj: values[obj] for obj in txn.objects})


class LockingWriter(ReplicaClient, WriterAutomaton):
    """Acquire write locks in (object, replica) order, then commit all values.

    Under a reconfiguration directory a mismatch restarts lock acquisition;
    commits go to exactly the granted replicas, and a replica retired
    between its grant and the commit answers the commit with
    ``epoch-mismatch``, which counts as released (it is leaving the group
    and its copy is irrelevant from the commit of the change on).
    """

    def __init__(
        self,
        name: str,
        objects: Sequence[str],
        placement: Optional[Placement] = None,
    ) -> None:
        super().__init__(name, objects, placement)
        self.z = 0

    def run_transaction(self, txn: WriteTransaction, ctx: Context):
        self.z += 1
        key = Key(self.z, self.name)
        view = self.view
        updates = dict(txn.updates)
        attempt = 0
        while True:
            attempt += 1
            check_epoch_retry_budget("write", txn.txn_id, attempt)
            stamp = attempt_stamp(view, attempt)
            granted: List[Tuple[str, str]] = []
            mismatch = False
            for object_id in sorted(updates):
                if mismatch:
                    break
                for replica in view.targets(object_id):
                    if view.is_retired(replica):
                        mismatch = True
                        break
                    yield Send(
                        dst=replica,
                        msg_type="lock-write",
                        payload={"txn": txn.txn_id, "object": object_id, **stamp},
                        phase="lock-write",
                    )
                    replies = yield Await(
                        matcher=lambda m, t=txn.txn_id, o=object_id, s=stamp: m.msg_type
                        in ("lock-write-granted", "epoch-mismatch")
                        and m.get("txn") == t
                        and m.get("object") == o
                        and stamp_matches(s, m),
                        count=1,
                        description=f"write lock on {object_id}",
                    )
                    if replies[0].msg_type == "epoch-mismatch":
                        mismatch = True
                        break
                    granted.append((object_id, replica))
            held = set(granted)
            if not mismatch:
                # Commit-set recheck: a change that joint-began *while we
                # were blocked in a lock queue* may have added replicas we
                # hold no lock on — committing to the grant set alone would
                # leave them permanently missing this write.  Restart so the
                # refreshed acquisition covers the live target set.
                mismatch = any(
                    (object_id, replica) not in held and not view.is_retired(replica)
                    for object_id in sorted(updates)
                    for replica in view.targets(object_id)
                )
            if mismatch:
                for object_id, replica in granted:
                    if not view.is_retired(replica) or ctx.has_automaton(replica):  # as the reader's release
                        yield Send(
                            dst=replica,
                            msg_type="unlock-write",
                            payload={"txn": txn.txn_id, "object": object_id, **stamp},
                            phase="unlock",
                        )
                note_epoch_retry(txn.txn_id, attempt, view, ctx)
                continue
            commit_set = [
                (object_id, replica)
                for object_id, replica in granted
                if not view.is_retired(replica) or ctx.has_automaton(replica)
            ]
            for object_id, replica in commit_set:
                yield Send(
                    dst=replica,
                    msg_type="commit-write",
                    payload={
                        "txn": txn.txn_id,
                        "object": object_id,
                        "key": key,
                        "value": updates[object_id],
                        **stamp,
                    },
                    phase="commit",
                )
            if commit_set:
                yield Await(
                    matcher=lambda m, t=txn.txn_id, s=stamp: m.msg_type
                    in ("commit-ack", "epoch-mismatch")
                    and m.get("txn") == t
                    and stamp_matches(s, m),
                    count=len(commit_set),
                    description="commit acks",
                )
            return WRITE_OK


class LockingProtocol(Protocol):
    """Strict 2PL baseline: strictly serializable but blocking and multi-round."""

    name = "s2pl"
    description = "Strict two-phase locking baseline: S and W but neither N nor one-round reads"
    requires_c2c = False
    claimed_properties = "S, W, one-version; gives up N and one-round"
    claimed_read_rounds = None  # q sequential lock rounds for a q-object read
    claimed_versions = 1

    def make_clients(self, config: BuildConfig, placement: Placement) -> List[Any]:
        objects = config.objects()
        return [LockingReader(reader, objects, placement) for reader in config.readers()] + [
            LockingWriter(writer, objects, placement) for writer in config.writers()
        ]

    def make_server(self, config: BuildConfig, object_id: str, name: str, group, coordinator: bool = False):
        return LockingServer(name, object_id, config.initial_value, group=group)
