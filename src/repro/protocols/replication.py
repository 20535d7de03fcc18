"""Shared replica-aware storage machinery for the protocol implementations.

This module is the protocol-side half of the placement layer
(:mod:`repro.txn.placement`): a common storage-server automaton that serves
one *replica* of one object, plus the quorum-round helpers the client
sessions are built from.

The byte-identity contract
--------------------------
With a trivial placement (every group of size one — the paper's setting) the
helpers emit exactly the sends, payloads and await-resumption points of the
pre-placement protocols, so ``replication_factor=1`` traces are byte-for-byte
identical to the single-copy seed (pinned by ``tests/replication``).  Two
rules implement the contract:

* replies gain replica-only payload fields (``object`` on write acks, ``key``
  on latest-value replies) **only when the serving group has more than one
  member**, and the ``read-val-miss`` message type exists only in replicated
  groups (a single-copy server still fails loudly on an unknown key);
* quorum awaits use a fixed ``count`` when the placement is trivial and an
  ``until`` predicate otherwise — both resume the session on the same
  delivery when quorums are of size one.

Quorum rounds
-------------
Requests are always sent to *every* replica of a group and the session
resumes once a quorum of replies per object arrived; the surplus replies are
delivered later and ignored (clients drop unmatched messages).  Sending to
all and awaiting ``R``/``W`` is what makes the rounds fault-tolerant: a
crashed or partitioned replica simply never replies, and as long as a quorum
survives the transaction completes.  Quorum intersection (validated by the
policy) guarantees an exact-key read quorum contains at least one replica
that holds the key of any completed write.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..ioa.actions import Message
from ..ioa.automaton import Await, Context, Send, SendBatch, ServerAutomaton
from ..ioa.errors import SimulationError
from ..txn.objects import Key, VersionStore
from ..txn.placement import Placement, QuorumPolicy, ReadOneWriteAll


# ----------------------------------------------------------------------
# The directory-aware server behaviour (shared by every protocol family)
# ----------------------------------------------------------------------
class DirectoryAwareServer:
    """Mixin giving any storage automaton the reconfiguration wire protocol.

    Three behaviours, all dormant (zero wire bytes) until the build injects a
    shared :class:`~repro.consensus.reconfig.PlacementDirectory`:

    * **retired replicas answer ``epoch-mismatch``** — once the directory
      marks this server retired, every transaction-carrying request is
      answered with the current epoch instead of data, so the client
      refreshes its view of the groups and retries against ``C_new``;
    * **state transfer** — ``sync-req`` streams this replica's state to each
      freshly added replica (via :meth:`sync_versions`), ``sync-state``
      installs it (via :meth:`install_sync`) and reports the transfer volume
      to the driver;
    * **controller probes** — ``ctl-probe`` is answered with ``ctl-ack`` so
      the rebalancing controller can observe liveness and round-trip
      latency without touching any transaction wire.

    Subclasses whose state is not a :class:`VersionStore` named ``store``
    override the two sync hooks.
    """

    #: the shared :class:`~repro.consensus.reconfig.PlacementDirectory` when
    #: the system was built with a reconfiguration plan (injected by the
    #: build); ``None`` — the default — keeps every wire byte identical to
    #: the placement-layer seed.
    directory = None

    def _echo_attempt(self, message: Message, payload: Dict[str, Any]) -> None:
        """Echo the reconfig-aware round's attempt counter, when present.

        Epoch-retried rounds tag requests with ``attempt`` so replies of a
        superseded attempt cannot satisfy the retried round's await; without
        a directory no request ever carries the field and no reply grows it.
        """
        attempt = message.get("attempt")
        if attempt is not None:
            payload["attempt"] = attempt

    def handle_directory_message(self, message: Message, ctx: Context) -> bool:
        """Consume reconfiguration-plane messages; ``True`` when handled.

        Call first from ``on_message``; with no directory installed this is a
        single attribute check and nothing else runs.
        """
        if self.directory is None:
            return False
        if message.msg_type == "sync-req":
            self._on_sync_req(message, ctx)
            return True
        if message.msg_type == "sync-state":
            self._on_sync_state(message, ctx)
            return True
        if message.msg_type == "ctl-probe":
            ctx.send(
                message.src,
                "ctl-ack",
                {
                    "object": message.get("object"),
                    "probe": message.get("probe"),
                    "sent": message.get("sent"),
                },
                phase="controller",
            )
            return True
        if self.directory.is_retired(self.name) and message.get("txn") is not None:
            # A retired replica serves nothing: it answers every
            # transaction-carrying request with the current epoch so the
            # client refreshes its view and retries against C_new.
            payload = {
                "txn": message.get("txn"),
                "object": self.object_id,
                "epoch": self.directory.epoch,
            }
            self._echo_attempt(message, payload)
            ctx.send(message.src, "epoch-mismatch", payload, phase="reconfig")
            return True
        return False

    # -- state transfer (reconfiguration) ---------------------------------
    def sync_versions(self) -> Tuple[Any, ...]:
        """The serialisable state streamed to a freshly added replica.

        Default: the ``(key, value)`` pairs of a :class:`VersionStore` named
        ``store`` — the representation of algorithms A/B/C, the naive
        baselines and the locking baseline.  Protocol families with a
        different storage shape (OCC's latest-version registers, Eiger's
        interval versions) override this together with :meth:`install_sync`.
        """
        return self.store.pairs()

    def install_sync(self, versions: Sequence[Any]) -> int:
        """Install a retained replica's streamed state; returns the number of
        versions actually installed (the transfer volume)."""
        installed = 0
        for key, value in versions:
            if self.store.get(key) is None:
                self.store.put(key, value)
                installed += 1
        return installed

    def _on_sync_req(self, message: Message, ctx: Context) -> None:
        """Stream this replica's versions to each freshly added replica."""
        versions = self.sync_versions()
        for target in message.get("targets", ()):
            ctx.send(
                target,
                "sync-state",
                {
                    "object": self.object_id,
                    "versions": versions,
                    "reconfig": message.get("reconfig"),
                    "admin": message.get("admin"),
                },
                phase="reconfig-sync",
            )

    def _on_sync_state(self, message: Message, ctx: Context) -> None:
        """Install a retained replica's versions, then report to the driver.

        ``count`` — versions actually installed (the initial version and any
        already-present key are skipped) — is the transfer volume the
        reconfiguration metrics aggregate.
        """
        installed = self.install_sync(message.get("versions", ()))
        ctx.send(
            message.get("admin"),
            "sync-done",
            {
                "object": self.object_id,
                "count": installed,
                "reconfig": message.get("reconfig"),
            },
            phase="reconfig-sync",
        )


# ----------------------------------------------------------------------
# The shared storage-server automaton
# ----------------------------------------------------------------------
class ReplicatedStorageServer(DirectoryAwareServer, ServerAutomaton):
    """One replica of one object: a multi-version store behind the common wire.

    Handles the shared message vocabulary (``write-val``, ``read-val``,
    ``read-latest``, ``read-vals``); anything else is offered to
    :meth:`on_unhandled` for protocol-specific subclasses (the coordinator
    role of algorithms B/C lives there).

    ``group`` is the full replica group this server belongs to; a group of
    one reproduces the seed's single-copy servers exactly.
    """

    #: error hint appended when a single-copy server is asked for an unknown
    #: key (replicated servers answer ``read-val-miss`` instead of raising).
    missing_key_hint = "the requested key was never installed at this server"

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

    # ------------------------------------------------------------------
    @property
    def replicated(self) -> bool:
        return len(self.group) > 1

    def forget(self) -> None:
        """Crash-with-amnesia hook: lose all volatile state (the store)."""
        self.store = VersionStore(self.object_id, self.initial_value)

    def _ack_payload(self, message: Message) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"txn": message.get("txn")}
        if self.replicated or self.directory is not None:
            # Per-object ack counting is what partial write quorums need;
            # single-copy acks stay field-for-field identical to the seed.
            payload["object"] = self.object_id
        self._echo_attempt(message, payload)
        return payload

    # ------------------------------------------------------------------
    def on_message(self, message: Message, ctx: Context) -> None:
        if self.handle_directory_message(message, ctx):
            return
        if message.msg_type == "write-val":
            self.handle_write_val(message, ctx)
        elif message.msg_type == "read-val":
            self.handle_read_val(message, ctx)
        elif message.msg_type == "read-latest":
            self.handle_read_latest(message, ctx)
        elif message.msg_type == "read-vals":
            self.handle_read_vals(message, ctx)
        else:
            self.on_unhandled(message, ctx)

    def on_unhandled(self, message: Message, ctx: Context) -> None:
        """Hook for protocol-specific message types (default: ignore)."""

    # -- writes -----------------------------------------------------------
    def handle_write_val(self, message: Message, ctx: Context) -> None:
        key: Key = message.get("key")
        self.store.put(key, message.get("value"))
        if message.get("repair"):
            # Read-repair install: a reader writing a freshest version back
            # to a stale replica.  Fire-and-forget — no ack, so repairs never
            # race a write transaction's quorum accounting.
            return
        ctx.send(message.src, "ack-write", self._ack_payload(message), phase="write-value")

    # -- reads ------------------------------------------------------------
    def handle_read_val(self, message: Message, ctx: Context) -> None:
        """Exact-key read (algorithms A and B)."""
        key: Key = message.get("key")
        version = self.store.get(key)
        if version is None:
            if not self.replicated and self.directory is None:
                raise SimulationError(
                    f"server {self.name} asked for unknown key {key!r}: {self.missing_key_hint}"
                )
            # A replica that has not (yet) installed the key: an honest miss.
            # Quorum intersection guarantees some replica in any read quorum
            # has it, so the reader treats misses as progress, not failure.
            payload: Dict[str, Any] = {
                "txn": message.get("txn"),
                "object": self.object_id,
                "num_versions": 0,
            }
            self._echo_attempt(message, payload)
            ctx.send(message.src, "read-val-miss", payload, phase="read-value")
            return
        payload = {
            "txn": message.get("txn"),
            "object": self.object_id,
            "value": version.value,
            "num_versions": 1,
        }
        self._echo_attempt(message, payload)
        ctx.send(message.src, "read-val-reply", payload, phase="read-value")

    def handle_read_latest(self, message: Message, ctx: Context) -> None:
        """Latest-value read (the naive / simple-rw wire)."""
        version = self.store.latest()
        payload: Dict[str, Any] = {
            "txn": message.get("txn"),
            "object": self.object_id,
            "value": version.value,
            "num_versions": 1,
        }
        if self.replicated or self.directory is not None:
            # The key lets readers pick the newest version across replicas.
            payload["key"] = version.key
        self._echo_attempt(message, payload)
        ctx.send(message.src, "read-latest-reply", payload, phase="read")

    def handle_read_vals(self, message: Message, ctx: Context) -> None:
        """Whole-``Vals`` read (algorithm C); subclasses may extend the payload."""
        versions = self.store.pairs()
        payload: Dict[str, Any] = {
            "txn": message.get("txn"),
            "object": self.object_id,
            "versions": versions,
            "num_versions": len(versions),
        }
        self._echo_attempt(message, payload)
        self.extend_read_vals_payload(message, payload)
        ctx.send(message.src, "read-vals-reply", payload, phase="read-values-and-tags")

    def extend_read_vals_payload(self, message: Message, payload: Dict[str, Any]) -> None:
        """Hook for coordinator piggy-backing (default: nothing)."""


# ----------------------------------------------------------------------
# Quorum round helpers (client-session side)
# ----------------------------------------------------------------------
def emit_sends(sends: Sequence[Send], batch: bool):
    """Yield a fan-out: one :class:`SendBatch` flight when batching, else the
    sends one by one.

    The single statement of the fan-out-batching contract
    (``BuildConfig.fanout_batching``): a batched fan-out's deliveries ride one
    kernel flight, so the scheduler spends one event on the whole round
    instead of one per replica.  ``batch=False`` (the default everywhere) is
    byte-identical to the plain loop.
    """
    if batch and len(sends) > 1:
        yield SendBatch(sends=tuple(sends))
        return
    for send in sends:
        yield send


def _count_by_object(messages: Sequence[Message], placement: Placement) -> Dict[str, int]:
    """Per-object message counts; acks from single-copy groups carry no
    ``object`` field, so fall back to resolving the sender's object (which
    keeps mixed-size placements — one replicated group next to a single-copy
    one — counting correctly)."""
    counts: Dict[str, int] = {}
    for message in messages:
        obj = message.get("object")
        if obj is None:
            obj = placement.object_of(message.src)
        counts[obj] = counts.get(obj, 0) + 1
    return counts


def write_quorum_await(
    txn_id: str,
    objects_written: Sequence[str],
    placement: Placement,
    policy: QuorumPolicy,
    ack_type: str = "ack-write",
    description: str = "write-value acks",
) -> Await:
    """The Await ending a write-value round.

    Trivial placement: the seed's fixed-count await (one ack per object).
    Replicated: resume once every written object has ``W`` acks.
    """
    matcher = lambda m, t=txn_id: m.msg_type == ack_type and m.get("txn") == t
    if placement.is_trivial():
        return Await(matcher=matcher, count=len(objects_written), description=description)
    needed = {
        obj: policy.write_quorum(len(placement.group(obj))) for obj in objects_written
    }

    def quorum_reached(collected: List[Message]) -> bool:
        counts = _count_by_object(collected, placement)
        return all(counts.get(obj, 0) >= need for obj, need in needed.items())

    return Await(matcher=matcher, until=quorum_reached, description=description + " (quorum)")


#: how many epoch-mismatch retries a round takes before failing loudly —
#: far above anything a single in-flight reconfiguration can cause.
MAX_EPOCH_RETRIES = 6


def _has_mismatch(collected: Sequence[Message]) -> bool:
    return any(m.msg_type == "epoch-mismatch" for m in collected)


def check_epoch_retry_budget(what: str, txn_id: str, attempts_used: int) -> None:
    """Fail loudly once a round (or transaction) restarted too often.

    One definition of the budget and its diagnostic for every epoch-aware
    retry loop — the generic round helper, the write/read rounds, Eiger's
    restartable read and the lock-based transaction restarts.
    """
    if attempts_used > MAX_EPOCH_RETRIES:
        raise SimulationError(
            f"{what} {txn_id} exhausted {MAX_EPOCH_RETRIES} epoch retries; "
            "the configuration should have stabilised long before this"
        )


def _group_counts_ok(
    collected: Sequence[Message],
    needs: Mapping[str, Tuple[Tuple[Tuple[str, ...], int], ...]],
    reply_types: Tuple[str, ...],
) -> bool:
    """Joint-quorum readiness: per object, per active configuration, at
    least the required number of ``reply_types`` replies from that group's
    members (a replica in both configs counts for both)."""
    for object_id, group_needs in needs.items():
        for group, need in group_needs:
            members = set(group)
            got = sum(
                1
                for m in collected
                if m.msg_type in reply_types
                and m.get("object") == object_id
                and m.src in members
            )
            if got < need:
                return False
    return True


def _note_epoch_retry(txn_id: str, attempt: int, directory, ctx) -> None:
    if ctx is not None:
        ctx.internal(reconfig="epoch-retry", txn=txn_id, attempt=attempt, vtime=ctx.vtime)
        directory.note_retry(txn_id, ctx.vtime)
    else:  # pragma: no cover - defensive: rounds without a ctx still retry
        directory.note_retry(txn_id, 0)


def write_value_round(
    txn_id: str,
    updates: Sequence[Tuple[str, Any]],
    key: Key,
    placement: Placement,
    policy: QuorumPolicy,
    phase: str = "write-value",
    directory=None,
    ctx=None,
    batch: bool = False,
):
    """Generator: install ``(key, value)`` at every replica, await W per object.

    Returns the collected acks (unused by the callers today, but the count is
    what quorum metrics annotate).

    With a :class:`~repro.consensus.reconfig.PlacementDirectory` the round is
    epoch-aware: requests go to ``C_old ∪ C_new`` and carry the current epoch
    plus an attempt counter, the await needs a write quorum in *every* active
    configuration, and an ``epoch-mismatch`` reply (a retired replica) makes
    the round refresh its view of the groups and start over.  Without a
    directory the round is byte-identical to the placement-layer seed.
    """
    if directory is None:
        yield from emit_sends(
            [
                Send(
                    dst=replica,
                    msg_type="write-val",
                    payload={"txn": txn_id, "object": object_id, "key": key, "value": value},
                    phase=phase,
                )
                for object_id, value in updates
                for replica in placement.group(object_id)
            ],
            batch,
        )
        acks = yield write_quorum_await(
            txn_id, [obj for obj, _ in updates], placement, policy
        )
        return acks

    attempt = 0
    while True:
        attempt += 1
        check_epoch_retry_budget("write", txn_id, attempt)
        epoch = directory.epoch
        needs = {obj: directory.write_needed(obj) for obj, _ in updates}
        yield from emit_sends(
            [
                Send(
                    dst=replica,
                    msg_type="write-val",
                    payload={
                        "txn": txn_id,
                        "object": object_id,
                        "key": key,
                        "value": value,
                        "epoch": epoch,
                        "attempt": attempt,
                    },
                    phase=phase,
                )
                for object_id, value in updates
                for replica in directory.targets(object_id)
            ],
            batch,
        )
        matcher = (
            lambda m, t=txn_id, a=attempt: m.msg_type in ("ack-write", "epoch-mismatch")
            and m.get("txn") == t
            and m.get("attempt") == a
        )
        ready = lambda collected, n=needs: _group_counts_ok(collected, n, ("ack-write",))
        acks = yield Await(
            matcher=matcher,
            until=lambda collected, r=ready: _has_mismatch(collected) or r(collected),
            description="write-value acks (epoch quorum)",
        )
        if ready(acks):
            return acks
        _note_epoch_retry(txn_id, attempt, directory, ctx)


def key_read_await(
    txn_id: str,
    read_set: Sequence[str],
    placement: Placement,
    policy: QuorumPolicy,
    description: str = "read-value replies",
) -> Await:
    """The Await ending an exact-key read round.

    Trivial placement: the seed's fixed-count await over ``read-val-reply``.
    Replicated: collect ``read-val-reply``/``read-val-miss`` until every
    object has ``R`` replies of which at least one is a hit (the hit is
    guaranteed by quorum intersection; see module docstring).
    """
    if placement.is_trivial():
        return Await(
            matcher=lambda m, t=txn_id: m.msg_type == "read-val-reply" and m.get("txn") == t,
            count=len(read_set),
            description=description,
        )
    needed = {obj: policy.read_quorum(len(placement.group(obj))) for obj in read_set}

    def quorum_reached(collected: List[Message]) -> bool:
        counts: Dict[str, int] = {}
        hits: Dict[str, int] = {}
        for m in collected:
            obj = m.get("object")
            counts[obj] = counts.get(obj, 0) + 1
            if m.msg_type == "read-val-reply":
                hits[obj] = hits.get(obj, 0) + 1
        return all(
            counts.get(obj, 0) >= need and hits.get(obj, 0) >= 1
            for obj, need in needed.items()
        )

    return Await(
        matcher=lambda m, t=txn_id: m.msg_type in ("read-val-reply", "read-val-miss")
        and m.get("txn") == t,
        until=quorum_reached,
        description=description + " (quorum)",
    )


def key_read_round(
    txn_id: str,
    chosen_keys: Mapping[str, Key],
    placement: Placement,
    policy: QuorumPolicy,
    phase: str = "read-value",
    read_repair: bool = True,
    directory=None,
    ctx=None,
    batch: bool = False,
):
    """Generator: fetch exact keys from every replica, await an R-quorum.

    Returns ``(values, replies)`` — per-object values from the first hit per
    object, plus the raw reply list (for quorum metrics).

    **Read-repair**: a ``read-val-miss`` in the collected quorum means a
    replica diverged from its group (it never installed — or, after a
    crash-with-amnesia, *forgot* — the version the metadata layer named).
    The round ends by writing the freshest version back to each such stale
    replica (a fire-and-forget ``repair`` install), restoring durability of
    the named version to the full group: after the repair even a
    ``read-one-write-all`` read served by the formerly-amnesiac replica finds
    it.  Single-copy groups never produce misses, so ``replication_factor=1``
    traces are untouched.

    With a :class:`~repro.consensus.reconfig.PlacementDirectory` the round is
    epoch-aware, exactly like :func:`write_value_round`: joint configurations
    need a read quorum per active config (plus at least one hit per object —
    guaranteed by intersection with the old group, which holds every
    completed write), and an ``epoch-mismatch`` reply restarts the round
    against the refreshed groups.
    """
    if directory is not None:
        result = yield from _epoch_key_read_round(
            txn_id, chosen_keys, directory, phase, read_repair, ctx, batch
        )
        return result
    yield from emit_sends(
        [
            Send(
                dst=replica,
                msg_type="read-val",
                payload={"txn": txn_id, "object": object_id, "key": key},
                phase=phase,
            )
            for object_id, key in chosen_keys.items()
            for replica in placement.group(object_id)
        ],
        batch,
    )
    replies = yield key_read_await(txn_id, tuple(chosen_keys), placement, policy)
    values: Dict[str, Any] = {}
    for reply in replies:
        if reply.msg_type == "read-val-reply" and reply.get("object") not in values:
            values[reply.get("object")] = reply.get("value")
    missing = [obj for obj in chosen_keys if obj not in values]
    if missing:
        raise SimulationError(
            f"read {txn_id} reached its quorum without a value for {missing!r}; "
            "quorum intersection should make this impossible"
        )
    if read_repair:
        for reply in replies:
            if reply.msg_type != "read-val-miss":
                continue
            object_id = reply.get("object")
            yield Send(
                dst=reply.src,
                msg_type="write-val",
                payload={
                    "txn": txn_id,
                    "object": object_id,
                    "key": chosen_keys[object_id],
                    "value": values[object_id],
                    "repair": True,
                },
                phase="read-repair",
            )
    return values, replies


def _epoch_key_read_round(
    txn_id: str,
    chosen_keys: Mapping[str, Key],
    directory,
    phase: str,
    read_repair: bool,
    ctx,
    batch: bool = False,
):
    """The epoch-aware body of :func:`key_read_round` (directory installed)."""
    attempt = 0
    while True:
        attempt += 1
        check_epoch_retry_budget("read", txn_id, attempt)
        epoch = directory.epoch
        needs = {obj: directory.read_needed(obj) for obj in chosen_keys}
        yield from emit_sends(
            [
                Send(
                    dst=replica,
                    msg_type="read-val",
                    payload={
                        "txn": txn_id,
                        "object": object_id,
                        "key": key,
                        "epoch": epoch,
                        "attempt": attempt,
                    },
                    phase=phase,
                )
                for object_id, key in chosen_keys.items()
                for replica in directory.targets(object_id)
            ],
            batch,
        )

        def ready(collected, n=needs):
            hits = {m.get("object") for m in collected if m.msg_type == "read-val-reply"}
            if not all(obj in hits for obj in n):
                return False  # at least one actual value per object
            return _group_counts_ok(collected, n, ("read-val-reply", "read-val-miss"))

        matcher = (
            lambda m, t=txn_id, a=attempt: m.msg_type
            in ("read-val-reply", "read-val-miss", "epoch-mismatch")
            and m.get("txn") == t
            and m.get("attempt") == a
        )
        replies = yield Await(
            matcher=matcher,
            until=lambda collected, r=ready: _has_mismatch(collected) or r(collected),
            description="read-value replies (epoch quorum)",
        )
        if not ready(replies):
            _note_epoch_retry(txn_id, attempt, directory, ctx)
            continue
        values: Dict[str, Any] = {}
        for reply in replies:
            if reply.msg_type == "read-val-reply" and reply.get("object") not in values:
                values[reply.get("object")] = reply.get("value")
        if read_repair:
            for reply in replies:
                if reply.msg_type != "read-val-miss" or directory.is_retired(reply.src):
                    continue
                object_id = reply.get("object")
                yield Send(
                    dst=reply.src,
                    msg_type="write-val",
                    payload={
                        "txn": txn_id,
                        "object": object_id,
                        "key": chosen_keys[object_id],
                        "value": values[object_id],
                        "repair": True,
                    },
                    phase="read-repair",
                )
        return values, replies


def epoch_quorum_round(
    txn_id: str,
    directory,
    ctx,
    send_factory: Callable[[int, int], List[Send]],
    reply_types: Tuple[str, ...],
    needs_factory: Callable[[], Mapping[str, Tuple[Tuple[Tuple[str, ...], int], ...]]],
    extra_ready: Optional[Callable[[List[Message]], bool]] = None,
    description: str = "replies",
    start_attempt: int = 0,
    unfiltered_types: Tuple[str, ...] = (),
    batch: bool = False,
):
    """Generator: one epoch-aware fan-out round with bounded mismatch retries.

    The shape shared by every reconfig-capable protocol round: ``send_factory
    (epoch, attempt)`` produces the round's sends (stamped with both), the
    await collects ``reply_types`` plus ``epoch-mismatch`` filtered by the
    attempt counter, and readiness is a quorum of ``reply_types`` per object
    per active configuration (``needs_factory`` re-reads the directory each
    attempt, so a retried round targets the refreshed groups) plus an
    optional ``extra_ready`` predicate (e.g. "the tag array arrived").  An
    ``epoch-mismatch`` in the collected set restarts the round; more than
    :data:`MAX_EPOCH_RETRIES` restarts fail loudly.

    ``unfiltered_types`` are additional reply types matched on the
    transaction id alone — for replies that cannot echo the attempt counter
    (a replicated coordinator's memoized ``tag-arr-reply``); they never count
    towards the per-group quorums, only towards ``extra_ready``.

    Returns ``(replies, attempt)`` — the attempt the round completed on, so
    multi-round protocols (OCC's repeated collects, Eiger's catch-up round)
    can keep their attempt counters strictly increasing across rounds and
    stale replies of an earlier round can never satisfy a later await.
    """
    attempt = start_attempt
    while True:
        attempt += 1
        check_epoch_retry_budget("round for", txn_id, attempt - start_attempt)
        epoch = directory.epoch
        needs = needs_factory()
        yield from emit_sends(tuple(send_factory(epoch, attempt)), batch)
        matcher = (
            lambda m, t=txn_id, a=attempt,
            ts=reply_types + ("epoch-mismatch",), us=unfiltered_types:
            (m.msg_type in ts and m.get("txn") == t and m.get("attempt") == a)
            or (m.msg_type in us and m.get("txn") == t)
        )

        def ready(collected, n=needs):
            if not _group_counts_ok(collected, n, reply_types):
                return False
            return extra_ready(collected) if extra_ready is not None else True

        replies = yield Await(
            matcher=matcher,
            until=lambda collected, r=ready: _has_mismatch(collected) or r(collected),
            description=description + " (epoch quorum)",
        )
        if ready(replies):
            return replies, attempt
        _note_epoch_retry(txn_id, attempt, directory, ctx)


def per_object_reply_await(
    txn_id: str,
    read_set: Sequence[str],
    placement: Placement,
    policy: QuorumPolicy,
    reply_type: str,
    description: str,
    extra_ready: Optional[Callable[[List[Message]], bool]] = None,
    extra_types: Tuple[str, ...] = (),
    extra_count: int = 0,
    force_quorum: bool = False,
) -> Await:
    """An Await for one reply round fanned out over replica groups.

    Trivial placement: fixed count ``len(read_set) + extra_count`` over
    ``reply_type`` plus ``extra_types`` (matching the seed's awaits exactly).
    Replicated — or whenever ``force_quorum`` is set (a replicated
    *coordinator* also makes reply counts variable, even over single-copy
    storage): until every object has ``R`` replies of ``reply_type`` and
    ``extra_ready`` (if given) is satisfied — used by algorithm C to also
    require the coordinator's tag array, and by Eiger's first round.
    """
    types = (reply_type,) + tuple(extra_types)
    matcher = lambda m, t=txn_id, ts=types: m.msg_type in ts and m.get("txn") == t
    if placement.is_trivial() and not force_quorum:
        return Await(
            matcher=matcher, count=len(read_set) + extra_count, description=description
        )
    needed = {obj: policy.read_quorum(len(placement.group(obj))) for obj in read_set}

    def quorum_reached(collected: List[Message]) -> bool:
        counts: Dict[str, int] = {}
        for m in collected:
            if m.msg_type == reply_type:
                obj = m.get("object")
                counts[obj] = counts.get(obj, 0) + 1
        if not all(counts.get(obj, 0) >= need for obj, need in needed.items()):
            return False
        return extra_ready(collected) if extra_ready is not None else True

    return Await(matcher=matcher, until=quorum_reached, description=description + " (quorum)")


def default_policy() -> QuorumPolicy:
    """The policy protocols fall back to when none is supplied."""
    return ReadOneWriteAll()


def placement_or_single_copy(
    objects: Sequence[str], placement: Optional[Placement]
) -> Placement:
    """The placement protocols fall back to: the paper's single-copy map.

    Every client automaton takes an optional ``placement`` so direct
    construction (unit tests, proofs) keeps working without one; this is the
    single statement of that default.
    """
    return placement if placement is not None else Placement.single_copy(objects)
