"""Shared replica-aware machinery for the protocol implementations.

This module is the protocol-side half of the placement layer
(:mod:`repro.txn.placement`): a common storage-server automaton that serves
one *replica* of one object, the :class:`ReplicaClient` base of every
protocol's readers and writers, and :func:`quorum_round`, the one round
structure their sessions are built from.

Membership views
----------------
A client round asks a *membership view* whom to address and how many
replies to await: a :class:`FixedMembership` over the build's groups, or —
when the system was built with a reconfiguration plan — the shared
:class:`~repro.consensus.reconfig.PlacementDirectory`.  Both answer the same
questions (``targets``, ``read_needed``/``write_needed``, ``is_retired``,
``epoch``), so every protocol has one round path.

The byte-identity contract
--------------------------
With a trivial placement (every group of size one — the paper's setting)
the rounds emit exactly the sends, payloads and await-resumption points of
the pre-placement protocols, so ``replication_factor=1`` traces are
byte-for-byte identical to the single-copy seed (pinned by
``tests/replication``); at any replication factor, a fixed-membership run
carries no reconfiguration byte.  Three rules implement the contract:

* :class:`FixedMembership` has no epoch, so :func:`quorum_round` stamps no
  ``epoch``/``attempt`` field and never retries;
* replies gain replica-only payload fields (``object`` on write acks, ``key``
  on latest-value replies) **only when the serving group has more than one
  member or a directory is installed**, and the ``read-val-miss`` message
  type exists only there (a single-copy server still fails loudly on an
  unknown key);
* a round whose every target must answer awaits a plain reply count, any
  other a quorum predicate — both resume the session on the same delivery,
  because each target answers a request at most once.

Quorum rounds
-------------
Requests are always sent to *every* target replica and the session resumes
once a quorum of replies per object arrived; the surplus replies are
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
from ..ioa.automaton import Await, ClientAutomaton, Context, Send, ServerAutomaton
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
# Membership views and the client base (client-session side)
# ----------------------------------------------------------------------
class FixedMembership:
    """The build's replica groups, as a membership view that never moves.

    It answers the read-side questions of
    :class:`~repro.consensus.reconfig.PlacementDirectory` for a system built
    without a reconfiguration plan, so a client round has one code path
    whichever view it is handed:

    * ``targets(object)`` — the object's replica group;
    * ``read_needed(object)`` / ``write_needed(object)`` — one requirement
      ``((group, quorum),)``; ``every_replica(object)`` — ``((group,
      len(group)),)``, the needs of a write-all or read-all round;
    * ``is_retired(name)`` — never; ``coordinator_targets()`` — none beyond
      the build's (the caller's own group stands);
    * ``epoch`` — ``None``, so :func:`quorum_round` stamps nothing and never
      retries.

    Every answer is computed at construction, and each question is a bound
    dict lookup: the rounds ask them per object, per round.
    """

    epoch = None

    def __init__(self, placement: Placement, policy: QuorumPolicy) -> None:
        groups = placement.groups
        self.targets = dict(groups).__getitem__
        self.read_needed = {
            obj: ((group, policy.read_quorum(len(group))),) for obj, group in groups
        }.__getitem__
        self.write_needed = {
            obj: ((group, policy.write_quorum(len(group))),) for obj, group in groups
        }.__getitem__
        self.every_replica = {obj: ((group, len(group)),) for obj, group in groups}.__getitem__
        self.is_retired = frozenset().__contains__

    def coordinator_targets(self) -> Tuple[str, ...]:
        return ()


class ReplicaClient(ClientAutomaton):
    """A client whose rounds fan out over replica groups: the base of every
    protocol's readers and writers.

    It holds what they share: the ``objects``, the ``placement`` (the
    paper's single-copy map when none is given, so unit tests and proofs can
    build a client bare), the quorum ``policy`` (read-one-write-all by
    default) and the membership :attr:`view` every round is driven from.
    """

    #: the shared :class:`~repro.consensus.reconfig.PlacementDirectory` when
    #: the system was built with a reconfiguration plan (injected by the
    #: build); ``None`` — the default — leaves the rounds on :attr:`fixed`.
    directory = None

    def __init__(
        self,
        name: str,
        objects: Sequence[str],
        placement: Optional[Placement] = None,
        policy: Optional[QuorumPolicy] = None,
    ) -> None:
        super().__init__(name)
        self.objects = tuple(objects)
        self.placement = placement if placement is not None else Placement.single_copy(self.objects)
        self.policy = policy if policy is not None else ReadOneWriteAll()
        #: the build's groups: the view whenever no directory is installed
        self.fixed = FixedMembership(self.placement, self.policy)

    @property
    def view(self):
        """The membership the next round addresses."""
        return self.fixed if self.directory is None else self.directory


# ----------------------------------------------------------------------
# The quorum round
# ----------------------------------------------------------------------
#: how many epoch-mismatch retries a round takes before failing loudly —
#: far above anything a single in-flight reconfiguration can cause.
MAX_EPOCH_RETRIES = 6


class RetryBudgetExhausted(SimulationError):
    """A transaction's retry loop used up its budget and gave up loudly.

    ``budget`` names the limit (``"MAX_EPOCH_RETRIES"``: rounds restarted
    because a replica retired; ``"MAX_COLLECTS"``: OCC's validating reads)
    and ``rounds`` is how many rounds ``txn_id`` took before giving up.
    """

    def __init__(self, txn_id: str, budget: str, rounds: int, message: str) -> None:
        super().__init__(message)
        self.txn_id = txn_id
        self.budget = budget
        self.rounds = rounds


def check_epoch_retry_budget(what: str, txn_id: str, attempts_used: int) -> None:
    """Fail loudly once a round (or transaction) restarted too often.

    One definition of the budget and its diagnostic for every retry loop:
    :func:`quorum_round`, Eiger's restartable read and the lock-based
    transaction restarts.  ``attempts_used`` counts the attempt about to
    start, so the rounds taken are one fewer.
    """
    if attempts_used > MAX_EPOCH_RETRIES:
        raise RetryBudgetExhausted(
            txn_id,
            "MAX_EPOCH_RETRIES",
            attempts_used - 1,
            f"{what} {txn_id} exhausted {MAX_EPOCH_RETRIES} epoch retries; "
            "the configuration should have stabilised long before this",
        )


def note_epoch_retry(txn_id: str, attempt: int, directory, ctx: Context) -> None:
    """Record that ``attempt`` of a round or transaction met a retired replica."""
    ctx.internal(reconfig="epoch-retry", txn=txn_id, attempt=attempt, vtime=ctx.vtime)
    directory.note_retry(txn_id, ctx.vtime)


def attempt_stamp(view, attempt: int) -> Dict[str, Any]:
    """The stamp of a request sent to one chosen replica (a lock, a commit,
    Eiger's catch-up read): its attempt counter under a directory, so the
    replies of a superseded attempt cannot satisfy a retried await; nothing
    on fixed membership, which never retries."""
    return {} if view.epoch is None else {"attempt": attempt}


def stamp_matches(stamp: Dict[str, Any], message: Message) -> bool:
    """Whether a reply answers the request sent with ``stamp`` (from
    :func:`attempt_stamp`): it echoes the stamped attempt, or the request
    was stamped with none."""
    attempt = stamp.get("attempt")
    return attempt is None or message.get("attempt") == attempt


def _quorum_until(requirements, reply_types: Tuple[str, ...], hit: Optional[str], objects):
    """The ``until`` predicate of a quorum round, folded one reply at a time.

    The kernel asks after each matched delivery, so the predicate reads only
    the replies it has not seen yet: per requirement, how many replies are
    still missing (a reply counts for every requirement whose group holds
    its sender); per object, whether a hit arrived; and whether an
    ``epoch-mismatch`` did, which resumes the round at once, for a retry.
    """
    short = [need for _, need in requirements]
    unmet = len(short)
    slots: Dict[str, Tuple[int, ...]] = {}
    for index, (group, _) in enumerate(requirements):
        for member in group:
            slots[member] = slots.get(member, ()) + (index,)
    unhit = set(objects) if hit is not None else None
    seen = 0

    def until(collected: List[Message]) -> bool:
        nonlocal seen, unmet
        for message in collected[seen:]:
            msg_type = message.msg_type
            if msg_type == "epoch-mismatch":
                return True
            if msg_type in reply_types:
                for slot in slots.get(message.src, ()):
                    short[slot] -= 1
                    if short[slot] == 0:
                        unmet -= 1
                if msg_type == hit:
                    unhit.discard(message.get("object"))
        seen = len(collected)
        return not unmet and not unhit

    return until


def _every_target_answers(needs, objects: Sequence[str], hit: Optional[str]) -> bool:
    """Whether every quorum is its whole group, so that readiness is one
    reply per request — and, for a round that needs a hit per object, every
    group is a single copy (which fails loudly rather than answer a miss)."""
    for obj in objects:
        for group, need in needs(obj):
            if need != len(group) or (hit is not None and need != 1):
                return False
    return True


def quorum_round(
    txn_id: str,
    view,
    ctx: Context,
    sends: Callable[[Dict[str, Any]], List[Send]],
    reply_types: Tuple[str, ...],
    needs: Callable[[str], Tuple[Tuple[Tuple[str, ...], int], ...]],
    objects: Sequence[str],
    *,
    hit: Optional[str] = None,
    unnumbered: Tuple[str, ...] = (),
    start_attempt: int = 0,
    description: str = "replies",
):
    """Generator: one fan-out round over the replica groups of ``objects``.

    The round structure of every protocol's clients.  ``sends(stamp)``
    builds the requests, merging ``stamp`` into each one addressed to a
    replica: ``{}`` on :class:`FixedMembership`, the epoch and attempt under
    a directory.  The round resumes once, for every object and every
    configuration ``needs(object)`` names (``((group, quorum), …)``, asked
    after each attempt's sends), the
    group's members sent ``quorum`` replies of ``reply_types`` (a replica in
    both configurations of a joint change counts for both) and, when given,
    one reply of type ``hit`` arrived per object (the other ``reply_types``
    are misses, which count towards the quorums only).  ``unnumbered`` are
    reply types matched on the transaction id alone, because they cannot
    echo the attempt (a replicated coordinator's memoized tag array).  When
    every quorum is its whole group, the round awaits a plain count: one
    reply per request.

    Under a directory an ``epoch-mismatch`` reply (a retired replica)
    restarts the round against the refreshed groups, at most
    :data:`MAX_EPOCH_RETRIES` times.  Returns ``(replies, attempt)``: the
    attempt the round completed on, so multi-round protocols (OCC's repeated
    collects, Eiger's catch-up round) keep their attempt counters strictly
    increasing and stale replies of an earlier round never satisfy a later
    await.
    """
    attempt = start_attempt
    while True:
        attempt += 1
        epoch = view.epoch
        if epoch is None:
            requests = sends({})
            yield from requests
            matcher = lambda m, t=txn_id, ts=reply_types: m.msg_type in ts and m.get("txn") == t
            if _every_target_answers(needs, objects, hit):
                replies = yield Await(matcher=matcher, count=len(requests), description=description)
                return replies, attempt
        else:
            check_epoch_retry_budget(description + " of", txn_id, attempt - start_attempt)
            yield from sends({"epoch": epoch, "attempt": attempt})
            matcher = (
                lambda m, t=txn_id, a=attempt, ts=reply_types + ("epoch-mismatch",),
                us=unnumbered: m.get("txn") == t
                and ((m.msg_type in ts and m.get("attempt") == a) or m.msg_type in us)
            )
        requirements = [requirement for obj in objects for requirement in needs(obj)]
        until = _quorum_until(requirements, reply_types, hit, objects)
        replies = yield Await(matcher=matcher, until=until, description=description)
        # a mismatch resumes the round at once, so it is the last reply
        if replies[-1].msg_type != "epoch-mismatch":
            return replies, attempt
        note_epoch_retry(txn_id, attempt, view, ctx)


def write_value_round(
    txn_id: str,
    updates: Sequence[Tuple[str, Any]],
    key: Key,
    view,
    ctx: Context,
    phase: str = "write-value",
):
    """The round installing ``(key, value)`` at every target replica and
    awaiting a write quorum per object (per configuration, under a
    directory): a :func:`quorum_round`, so ``yield from`` it for
    ``(acks, attempt)``."""
    return quorum_round(
        txn_id,
        view,
        ctx,
        lambda stamp: [
            Send(
                dst=replica,
                msg_type="write-val",
                payload={"txn": txn_id, "object": object_id, "key": key, "value": value, **stamp},
                phase=phase,
            )
            for object_id, value in updates
            for replica in view.targets(object_id)
        ],
        ("ack-write",),
        view.write_needed,
        [obj for obj, _ in updates],
        description="write-value acks",
    )


def key_read_round(
    txn_id: str,
    chosen_keys: Mapping[str, Key],
    view,
    ctx: Context,
    phase: str = "read-value",
):
    """Generator: fetch exact keys from every target replica, await a read
    quorum per object of which one reply is a hit.

    Returns ``(values, replies)`` — per-object values from the first hit per
    object, plus the raw reply list (for quorum metrics).

    **Read-repair**: a ``read-val-miss`` in the collected quorum means a
    replica diverged from its group (it never installed — or, after a
    crash-with-amnesia, *forgot* — the version the metadata layer named).
    The round ends by writing the freshest version back to each such stale
    replica that is not retired (a fire-and-forget ``repair`` install),
    restoring durability of the named version to the full group: after the
    repair even a ``read-one-write-all`` read served by the formerly-amnesiac
    replica finds it.  Single-copy groups never produce misses, so
    ``replication_factor=1`` traces are untouched.
    """
    replies, _ = yield from quorum_round(
        txn_id,
        view,
        ctx,
        lambda stamp: [
            Send(
                dst=replica,
                msg_type="read-val",
                payload={"txn": txn_id, "object": object_id, "key": key, **stamp},
                phase=phase,
            )
            for object_id, key in chosen_keys.items()
            for replica in view.targets(object_id)
        ],
        ("read-val-reply", "read-val-miss"),
        view.read_needed,
        tuple(chosen_keys),
        hit="read-val-reply",
        description="read-value replies",
    )
    values: Dict[str, Any] = {}
    for reply in replies:
        if reply.msg_type == "read-val-reply":
            values.setdefault(reply.get("object"), reply.get("value"))
    for reply in replies:
        if reply.msg_type != "read-val-miss" or view.is_retired(reply.src):
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
