"""Membership reconfiguration: joint-consensus changes of live groups.

The placement layer fixed every object's replica group and the consensus
layer fixed the coordinator group at build time; replacing a dead replica or
growing a hot group therefore meant tearing the system down.  This module
makes membership change a *first-class mid-run event* with the safety shape
of Raft's joint consensus:

* a :class:`ReconfigRequest` names a target configuration ``C_new`` for one
  replica group (or for the consensus group) and a virtual time at which to
  start it;
* between the start and the commit the system operates under the **joint
  configuration** ``C_old,new``: every read/write quorum must be satisfied
  in *both* the old and the new group, so any quorum taken during the
  transition intersects any quorum of either epoch — no split-brain window
  exists at any instant;
* the change *commits* only once every added replica has synced the object's
  versions from a retained replica (the measured **transfer volume**), after
  which the retired members answer every transaction-carrying request with
  ``epoch-mismatch`` until the kernel removes them.

Epoch semantics
---------------
The shared :class:`PlacementDirectory` is the single mutable source of truth
for "who serves what right now".  Every transition bumps its ``epoch``
(joint entry and commit each count one); clients stamp requests with the
epoch and retry a round from scratch when a reply shows the configuration
moved under them (``epoch-mismatch``).  At most one configuration change may
be in flight at a time — :meth:`PlacementDirectory.begin_joint` enforces it,
and the trace invariant checker re-checks it on every run.

Determinism and byte-identity
-----------------------------
All reconfiguration activity is driven by kernel virtual-time timeouts and
ordinary messages, so runs remain exactly replayable per seed.  With no
:class:`ReconfigPlan` installed (the default) nothing here is instantiated:
no directory, no driver, no extra payload fields — runs are byte-identical
to the seed, pinned by the golden-signature tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..ioa.actions import Message
from ..ioa.automaton import Automaton, Context
from ..ioa.errors import SimulationError
from ..txn.placement import Placement, QuorumPolicy

#: The driver automaton's well-known name.
ADMIN_NAME = "reconfig-admin"

#: Kinds of membership change a request may ask for.
REPLICA_GROUP = "replica-group"
CONSENSUS_GROUP = "consensus-group"

#: How long (virtual time) a retired automaton keeps answering
#: ``epoch-mismatch`` before the driver removes it from the kernel.
DEFAULT_DRAIN = 16


# ----------------------------------------------------------------------
# Requests and plans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReconfigRequest:
    """One membership change: move a group to ``C_new`` at virtual time ``at``."""

    kind: str
    group: Tuple[str, ...]
    object_id: str = ""
    at: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "group", tuple(self.group))
        if self.kind not in (REPLICA_GROUP, CONSENSUS_GROUP):
            raise ValueError(f"unknown reconfiguration kind {self.kind!r}")
        if not self.group:
            raise ValueError("a reconfiguration needs a non-empty target group")
        if len(set(self.group)) != len(self.group):
            raise ValueError(f"target group has duplicate members: {self.group}")
        if self.kind == REPLICA_GROUP and not self.object_id:
            raise ValueError("a replica-group reconfiguration names its object")
        if self.at < 0:
            raise ValueError("reconfiguration time must be >= 0")

    def describe(self) -> str:
        what = self.object_id if self.kind == REPLICA_GROUP else "consensus"
        return f"reconfig({what} -> [{','.join(self.group)}] @ {self.at})"


def set_replica_group(object_id: str, group: Sequence[str], at: int = 0) -> ReconfigRequest:
    """Move ``object_id``'s replica group to ``group`` at virtual time ``at``."""
    return ReconfigRequest(kind=REPLICA_GROUP, group=tuple(group), object_id=object_id, at=at)


def set_consensus_group(group: Sequence[str], at: int = 0) -> ReconfigRequest:
    """Move the replicated-coordinator group to ``group`` at time ``at``."""
    return ReconfigRequest(kind=CONSENSUS_GROUP, group=tuple(group), at=at)


@dataclass(frozen=True)
class ReconfigPlan:
    """A named schedule of membership changes for one run."""

    name: str = ""
    requests: Tuple[ReconfigRequest, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "requests", tuple(self.requests))

    def describe(self) -> str:
        if not self.requests:
            return f"{self.name or 'reconfig'}: none"
        return f"{self.name or 'reconfig'}: " + ", ".join(r.describe() for r in self.requests)


# ----------------------------------------------------------------------
# The shared placement directory (versioned epochs)
# ----------------------------------------------------------------------
class PlacementDirectory:
    """The live, epoch-versioned view of every group's membership.

    One instance is shared (by reference) between the clients, the storage
    replicas, the consensus members and the :class:`ReconfigDriver` of a
    built system; all mutation happens inside driver/consensus handler
    activations — single scheduled events — so determinism is preserved.

    ``epoch`` counts configuration transitions (a joint entry and its commit
    each bump it).  While a joint configuration is in flight the quorum
    helpers (:meth:`read_needed` / :meth:`write_needed`) demand quorums in
    *both* the old and the new group — the joint-consensus overlap rule.
    """

    def __init__(
        self,
        placement: Placement,
        policy: QuorumPolicy,
        consensus_group: Sequence[str] = (),
    ) -> None:
        self.placement = placement
        self.policy = policy
        self.epoch = 0
        #: object -> (old_group, new_group) while its change is in flight
        self.joint: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {}
        self._consensus_group: Tuple[str, ...] = tuple(consensus_group)
        self.consensus_joint: Optional[Tuple[Tuple[str, ...], Tuple[str, ...]]] = None
        self.retired: Set[str] = set()
        #: names no *derived* change may retire (the designated coordinator
        #: at consensus_factor=1 — its role does not migrate, so replacing
        #: it would strand every coordinator round; populated by the build)
        self.protected: Set[str] = set()
        #: transition records (kind/object/epoch/vtime/old/new) for metrics
        #: and the cross-epoch invariant checks
        self.transitions: List[Dict[str, Any]] = []
        #: (object, versions) per completed state transfer
        self.transfers: List[Tuple[str, int]] = []
        #: (txn, vtime) per epoch-mismatch retry a client had to take
        self.retries: List[Tuple[str, int]] = []

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def group(self, object_id: str) -> Tuple[str, ...]:
        """The object's *target* group: ``C_new`` while joint, else current."""
        if object_id in self.joint:
            return self.joint[object_id][1]
        return self.placement.group(object_id)

    def targets(self, object_id: str) -> Tuple[str, ...]:
        """Everyone a round must address: ``C_old ∪ C_new`` while joint."""
        if object_id in self.joint:
            old, new = self.joint[object_id]
            return old + tuple(s for s in new if s not in old)
        return self.placement.group(object_id)

    def read_needed(self, object_id: str) -> Tuple[Tuple[Tuple[str, ...], int], ...]:
        """``((group, R), …)`` — one requirement per active configuration."""
        if object_id in self.joint:
            old, new = self.joint[object_id]
            return (
                (old, self.policy.read_quorum(len(old))),
                (new, self.policy.read_quorum(len(new))),
            )
        group = self.placement.group(object_id)
        return ((group, self.policy.read_quorum(len(group))),)

    def write_needed(self, object_id: str) -> Tuple[Tuple[Tuple[str, ...], int], ...]:
        """``((group, W), …)`` — one requirement per active configuration."""
        if object_id in self.joint:
            old, new = self.joint[object_id]
            return (
                (old, self.policy.write_quorum(len(old))),
                (new, self.policy.write_quorum(len(new))),
            )
        group = self.placement.group(object_id)
        return ((group, self.policy.write_quorum(len(group))),)

    def consensus_group(self) -> Tuple[str, ...]:
        return self._consensus_group

    def coordinator_targets(self) -> Tuple[str, ...]:
        """Everyone coordinator requests must be broadcast to right now."""
        if self.consensus_joint is not None:
            old, new = self.consensus_joint
            return old + tuple(m for m in new if m not in old)
        return self._consensus_group

    def is_retired(self, name: str) -> bool:
        return name in self.retired

    def in_flight(self) -> bool:
        """Whether any configuration change is currently joint."""
        return bool(self.joint) or self.consensus_joint is not None

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def _require_idle(self) -> None:
        if self.in_flight():
            raise SimulationError(
                "at most one configuration change may be in flight; "
                "the previous joint configuration has not committed yet"
            )

    def begin_joint(self, object_id: str, new_group: Sequence[str], vtime: int = 0) -> None:
        """Enter ``C_old,new`` for one object's replica group."""
        self._require_idle()
        old = self.placement.group(object_id)
        new = tuple(new_group)
        self.policy.validate(len(new))
        self.epoch += 1
        # A name re-added by this change stops being retired: the rejoining
        # replica serves again (and re-syncs) instead of answering
        # epoch-mismatch forever.
        self.retired.difference_update(new)
        self.joint[object_id] = (old, new)
        self.transitions.append(
            {
                "kind": "joint-begin",
                "object": object_id,
                "epoch": self.epoch,
                "vtime": vtime,
                "old": old,
                "new": new,
            }
        )

    def commit_joint(self, object_id: str, vtime: int = 0) -> Tuple[str, ...]:
        """Commit ``C_new`` for the object; returns the retired replicas."""
        try:
            old, new = self.joint.pop(object_id)
        except KeyError:
            raise SimulationError(
                f"no joint configuration in flight for object {object_id!r}"
            ) from None
        removed = tuple(s for s in old if s not in new)
        self.retired.update(removed)
        self.placement = self.placement.with_group(object_id, new)
        self.epoch += 1
        self.transitions.append(
            {
                "kind": "commit",
                "object": object_id,
                "epoch": self.epoch,
                "vtime": vtime,
                "old": old,
                "new": new,
            }
        )
        return removed

    def begin_consensus_joint(self, new_group: Sequence[str], vtime: int = 0) -> None:
        """Enter ``C_old,new`` for the consensus group."""
        self._require_idle()
        if not self._consensus_group:
            raise SimulationError(
                "no consensus group to reconfigure (consensus_factor=1 has no members)"
            )
        old = self._consensus_group
        new = tuple(new_group)
        self.epoch += 1
        self.retired.difference_update(new)
        self.consensus_joint = (old, new)
        self.transitions.append(
            {
                "kind": "joint-begin",
                "object": "",
                "epoch": self.epoch,
                "vtime": vtime,
                "old": old,
                "new": new,
            }
        )

    def commit_consensus_joint(self, vtime: int = 0) -> Tuple[str, ...]:
        """Commit the consensus group's ``C_new``; returns retired members."""
        if self.consensus_joint is None:
            raise SimulationError("no consensus joint configuration in flight")
        old, new = self.consensus_joint
        self.consensus_joint = None
        removed = tuple(m for m in old if m not in new)
        self.retired.update(removed)
        self._consensus_group = new
        self.epoch += 1
        self.transitions.append(
            {
                "kind": "commit",
                "object": "",
                "epoch": self.epoch,
                "vtime": vtime,
                "old": old,
                "new": new,
            }
        )
        return removed

    # ------------------------------------------------------------------
    # Measurements
    # ------------------------------------------------------------------
    def record_transfer(self, object_id: str, versions: int) -> None:
        self.transfers.append((object_id, int(versions)))

    def note_retry(self, txn_id: Any, vtime: int) -> None:
        self.retries.append((str(txn_id), int(vtime)))

    def transfer_volume(self) -> int:
        return sum(count for _, count in self.transfers)

    def describe(self) -> str:
        joint = "; ".join(
            f"{obj or 'consensus'}: [{','.join(old)}] -> [{','.join(new)}]"
            for obj, (old, new) in (
                list(self.joint.items())
                + ([("", self.consensus_joint)] if self.consensus_joint else [])
            )
        )
        return (
            f"PlacementDirectory(epoch={self.epoch}, "
            f"{self.placement.describe()}"
            + (f", joint: {joint}" if joint else "")
            + (f", retired: {sorted(self.retired)}" if self.retired else "")
            + ")"
        )


# ----------------------------------------------------------------------
# The driver automaton
# ----------------------------------------------------------------------
class ReconfigDriver(Automaton):
    """The membership-change admin: executes a :class:`ReconfigPlan` mid-run.

    The driver is neither a client nor a server (``kind="admin"``): it owns
    no transactions and serves no objects; it arms one kernel timeout per
    scheduled request and runs the change as ordinary messages:

    1. **spawn** — added replicas / consensus members are registered on the
       kernel (their START action lands mid-trace);
    2. **joint** — the directory enters ``C_old,new``; every client round
       from here on needs quorums in both configurations;
    3. **sync** — a retained replica streams its versions to each added
       replica (``sync-req`` → ``sync-state`` → ``sync-done``); consensus
       members instead catch up through the leader's ordinary log replication
       (a consensus change commits via the replicated ``C_old,new``/``C_new``
       log entries, and the leader reports ``cns-reconfig-done``).  When the
       leader's log has been **compacted** (:mod:`repro.persist`
       checkpointing), an added member whose next needed entry falls below
       ``snapshot_index`` is brought up by a ``cns-snapshot`` message — the
       state-machine snapshot plus the retained log suffix — instead of
       full history, so state transfer stays bounded on long runs;
    4. **commit** — the directory flips to ``C_new``; replicas that left the
       group are marked retired (they answer ``epoch-mismatch`` from now on)
       and are removed from the kernel after a drain window.

    Requests that fire while another change is in flight are deferred — the
    at-most-one-config-in-flight rule — by re-arming their timer.

    Besides the build-time plan, the driver accepts **dynamically submitted**
    requests mid-run: a ``reconfig-submit`` message (from the rebalancing
    controller, :mod:`repro.consensus.controller`) appends the carried
    request to the executed list and schedules it immediately, through
    exactly the same joint-consensus state machine as planned changes.
    """

    kind = "admin"

    def __init__(
        self,
        plan: ReconfigPlan,
        directory: PlacementDirectory,
        replica_factory: Optional[Callable[[str, str, Tuple[str, ...]], Automaton]] = None,
        consensus_member_factory: Optional[Callable[[str, Tuple[str, ...]], Automaton]] = None,
        name: str = ADMIN_NAME,
        drain: int = DEFAULT_DRAIN,
    ) -> None:
        super().__init__(name)
        self.plan = plan
        #: every request this driver executes: the plan's, plus any submitted
        #: mid-run via ``reconfig-submit`` (indices are stable — timers and
        #: sync bookkeeping refer to positions in this list)
        self.requests: List[ReconfigRequest] = list(plan.requests)
        self.directory = directory
        self.replica_factory = replica_factory
        self.consensus_member_factory = consensus_member_factory
        self.drain = max(1, int(drain))
        self._active: Optional[int] = None
        self._done: Set[int] = set()
        self._awaiting_sync: Dict[int, Set[str]] = {}
        # state-transfer source rotation: candidates per request, and the
        # attempt counter driving failover to the next source on timeout
        self._sync_candidates: Dict[int, Tuple[str, ...]] = {}
        self._sync_attempt: Dict[int, int] = {}
        #: consensus-change retransmission counter (the storage path's sync
        #: rotation analogue: the request is re-broadcast until done arrives)
        self._cns_attempt: Dict[int, int] = {}
        #: set when a change parked for good (every sync source unreachable);
        #: later scheduled requests are then skipped instead of deferred
        self._abandoned = False
        self._retire_attempts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def on_start(self, ctx: Context) -> None:
        for index, request in enumerate(self.requests):
            self._validate(request)
            ctx.set_timeout(max(1, request.at), reconfig=index)

    def _validate(self, request: ReconfigRequest) -> None:
        if request.kind == REPLICA_GROUP:
            if request.object_id not in self.directory.placement.objects():
                raise SimulationError(
                    f"reconfiguration names unplaced object {request.object_id!r}"
                )
            if self.replica_factory is None:
                raise SimulationError(
                    "this system was built without a replica factory; "
                    "the protocol does not support replica-group reconfiguration"
                )
        else:
            if self.consensus_member_factory is None:
                raise SimulationError(
                    "this system was built without a consensus member factory; "
                    "consensus-group reconfiguration needs consensus_factor >= 2"
                )

    # ------------------------------------------------------------------
    def on_timeout(self, info: Mapping[str, Any], ctx: Context) -> None:
        if "retire" in info:
            self._try_retire(str(info["retire"]), ctx)
            return
        if "sync" in info:
            self._on_sync_timeout(int(info["sync"]), int(info["attempt"]), ctx)
            return
        if "cns" in info:
            self._on_cns_timeout(int(info["cns"]), int(info["attempt"]), ctx)
            return
        index = int(info["reconfig"])
        if index in self._done or index == self._active:
            return
        if self._active is not None:
            if self._abandoned:
                # The in-flight change parked for good (no reachable sync
                # source); skip instead of deferring forever.
                ctx.internal(reconfig="skipped", request=index, vtime=ctx.vtime)
                self._done.add(index)
                return
            # One change at a time: defer behind the in-flight one.
            ctx.set_timeout(self.drain, reconfig=index)
            return
        request = self.requests[index]
        if request.kind == REPLICA_GROUP:
            self._start_storage(index, request, ctx)
        else:
            self._start_consensus(index, request, ctx)

    # ------------------------------------------------------------------
    # Storage replica groups
    # ------------------------------------------------------------------
    def _start_storage(self, index: int, request: ReconfigRequest, ctx: Context) -> None:
        object_id = request.object_id
        old = self.directory.group(object_id)
        new = request.group
        if new == old:
            self._finish(index, ctx, noop=True)
            return
        self._active = index
        added = tuple(s for s in new if s not in old)
        for name in added:
            if ctx.has_automaton(name):
                # A rejoining replica whose retirement drain had not removed
                # it yet: reuse it (the sync below re-installs anything it
                # lacks) and cancel the pending retirement.
                self._retire_attempts.pop(name, None)
                continue
            replica = self.replica_factory(object_id, name, new)
            if hasattr(replica, "directory"):
                replica.directory = self.directory
            ctx.spawn(replica)
        self.directory.begin_joint(object_id, new, vtime=ctx.vtime)
        ctx.internal(
            reconfig="joint-begin",
            object=object_id,
            epoch=self.directory.epoch,
            vtime=ctx.vtime,
            old=",".join(old),
            new=",".join(new),
        )
        if added:
            retained = tuple(s for s in old if s in new)
            self._awaiting_sync[index] = set(added)
            # Source rotation: prefer retained replicas (they stay in C_new),
            # fall back to leaving ones; a timeout fails over to the next.
            self._sync_candidates[index] = retained + tuple(
                s for s in old if s not in retained
            )
            self._sync_attempt[index] = 0
            self._send_sync(index, ctx)
        else:
            self._commit_storage(index, request, ctx)

    def _send_sync(self, index: int, ctx: Context) -> None:
        request = self.requests[index]
        candidates = self._sync_candidates[index]
        attempt = self._sync_attempt[index]
        source = candidates[attempt % len(candidates)]
        ctx.send(
            source,
            "sync-req",
            {
                "object": request.object_id,
                "targets": tuple(sorted(self._awaiting_sync[index])),
                "reconfig": index,
                "admin": self.name,
            },
            phase="reconfig-sync",
        )
        ctx.set_timeout(self.drain * 2, sync=index, attempt=attempt)

    def _on_sync_timeout(self, index: int, attempt: int, ctx: Context) -> None:
        """A sync window elapsed without every added replica reporting in:
        fail over to the next source (the chosen one may be crashed or
        partitioned away).  After two full rotations with no progress the
        change parks in the joint configuration — safe (joint quorums keep
        intersecting both epochs) but degraded — and later scheduled
        requests are skipped rather than deferred forever."""
        if index not in self._awaiting_sync or attempt != self._sync_attempt[index]:
            return  # sync completed, or an older attempt's timer
        self._sync_attempt[index] += 1
        if self._sync_attempt[index] >= 2 * len(self._sync_candidates[index]):
            ctx.internal(
                reconfig="sync-abandoned",
                object=self.requests[index].object_id,
                request=index,
                vtime=ctx.vtime,
            )
            del self._awaiting_sync[index]
            self._abandoned = True
            return
        self._send_sync(index, ctx)

    def on_message(self, message: Message, ctx: Context) -> None:
        if message.msg_type == "sync-done":
            self._on_sync_done(message, ctx)
        elif message.msg_type == "cns-reconfig-done":
            self._on_consensus_done(message, ctx)
        elif message.msg_type == "reconfig-submit":
            self._on_submit(message, ctx)

    def _on_submit(self, message: Message, ctx: Context) -> None:
        """Accept a dynamically derived membership change (the controller's
        output): validate it like a planned request, append it to the
        executed list and schedule it for the next tick — the usual deferral
        applies if another change is in flight."""
        request = ReconfigRequest(
            kind=str(message.get("kind", REPLICA_GROUP)),
            group=tuple(message.get("group", ())),
            object_id=str(message.get("object", "")),
            at=ctx.vtime,
        )
        self._validate(request)
        if request.kind == REPLICA_GROUP:
            current = self.directory.group(request.object_id)
            stranded = [
                name
                for name in current
                if name in self.directory.protected and name not in request.group
            ]
            if stranded:
                ctx.internal(
                    reconfig="rejected",
                    object=request.object_id,
                    protected=",".join(stranded),
                    vtime=ctx.vtime,
                )
                return
        index = len(self.requests)
        self.requests.append(request)
        ctx.internal(
            reconfig="submitted",
            request=index,
            source=message.src,
            object=request.object_id,
            group=",".join(request.group),
            vtime=ctx.vtime,
        )
        ctx.set_timeout(1, reconfig=index)

    def _on_sync_done(self, message: Message, ctx: Context) -> None:
        index = int(message.get("reconfig", -1))
        waiting = self._awaiting_sync.get(index)
        if waiting is None or message.src not in waiting:
            return
        waiting.discard(message.src)
        self.directory.record_transfer(message.get("object", ""), int(message.get("count", 0)))
        ctx.internal(
            reconfig="sync-done",
            object=message.get("object", ""),
            replica=message.src,
            transferred=int(message.get("count", 0)),
            vtime=ctx.vtime,
        )
        if not waiting:
            del self._awaiting_sync[index]
            self._commit_storage(index, self.requests[index], ctx)

    def _commit_storage(self, index: int, request: ReconfigRequest, ctx: Context) -> None:
        removed = self.directory.commit_joint(request.object_id, vtime=ctx.vtime)
        ctx.topology.update_replica_group(
            request.object_id, self.directory.group(request.object_id)
        )
        ctx.internal(
            reconfig="commit",
            object=request.object_id,
            epoch=self.directory.epoch,
            vtime=ctx.vtime,
            removed=",".join(removed),
        )
        for name in removed:
            ctx.set_timeout(self.drain, retire=name)
        self._finish(index, ctx)

    # ------------------------------------------------------------------
    # The consensus group
    # ------------------------------------------------------------------
    def _start_consensus(self, index: int, request: ReconfigRequest, ctx: Context) -> None:
        old = self.directory.consensus_group()
        new = request.group
        if new == old:
            self._finish(index, ctx, noop=True)
            return
        self._active = index
        union = old + tuple(m for m in new if m not in old)
        for name in union:
            if name in old or ctx.has_automaton(name):
                if name not in old:
                    self._retire_attempts.pop(name, None)  # rejoining member
                continue
            ctx.spawn(self.consensus_member_factory(name, union))
        self.directory.begin_consensus_joint(new, vtime=ctx.vtime)
        ctx.internal(
            reconfig="cns-joint-begin",
            epoch=self.directory.epoch,
            vtime=ctx.vtime,
            old=",".join(old),
            new=",".join(new),
        )
        self._cns_attempt[index] = 0
        self._broadcast_cns(index, old, new, ctx)

    def _broadcast_cns(self, index: int, old, new, ctx: Context) -> None:
        """(Re)broadcast the membership request to the live member set and
        arm the retransmission timer.  Members dedup by request id and the
        leader re-sends the memoized done reply, so retransmission is
        idempotent — it only papers over lost broadcasts or a done reply
        that died with its leader."""
        for member in self.directory.coordinator_targets():
            ctx.send(
                member,
                "cns-reconfig",
                {"old": tuple(old), "new": tuple(new), "reconfig": index, "admin": self.name},
                phase="reconfig",
            )
        ctx.set_timeout(self.drain * 2, cns=index, attempt=self._cns_attempt[index])

    def _on_cns_timeout(self, index: int, attempt: int, ctx: Context) -> None:
        if (
            index != self._active
            or self.directory.consensus_joint is None
            or attempt != self._cns_attempt[index]
        ):
            return  # the change committed, or an older attempt's timer
        self._cns_attempt[index] += 1
        if self._cns_attempt[index] >= 8:
            # No quorum of the joint configuration is reachable: park (the
            # joint config stays safe) and skip later scheduled requests.
            ctx.internal(reconfig="cns-abandoned", request=index, vtime=ctx.vtime)
            self._abandoned = True
            return
        old, new = self.directory.consensus_joint
        self._broadcast_cns(index, old, new, ctx)

    def _on_consensus_done(self, message: Message, ctx: Context) -> None:
        index = int(message.get("reconfig", -1))
        if index != self._active or self.directory.consensus_joint is None:
            return  # duplicate done (a re-sent memoized reply)
        removed = self.directory.commit_consensus_joint(vtime=ctx.vtime)
        ctx.topology.set_consensus_group(self.directory.consensus_group())
        ctx.internal(
            reconfig="cns-commit",
            epoch=self.directory.epoch,
            vtime=ctx.vtime,
            removed=",".join(removed),
        )
        for name in removed:
            ctx.set_timeout(self.drain, retire=name)
        self._finish(index, ctx)

    # ------------------------------------------------------------------
    def _finish(self, index: int, ctx: Context, noop: bool = False) -> None:
        self._done.add(index)
        if self._active == index:
            self._active = None
        if noop:
            ctx.internal(reconfig="noop", request=index, vtime=ctx.vtime)

    def _try_retire(self, name: str, ctx: Context) -> None:
        if not self.directory.is_retired(name) or not ctx.has_automaton(name):
            # The name rejoined a group (a later change re-added it), or a
            # concurrent retire timer already removed it: nothing to do.
            self._retire_attempts.pop(name, None)
            return
        attempts = self._retire_attempts.get(name, 0) + 1
        self._retire_attempts[name] = attempts
        # After a few drain windows any still-pending delivery is a straggler
        # addressed to a server that already answers only epoch-mismatch;
        # force-dropping it is safe and keeps retirement finite.
        if ctx.retire(name, force=attempts >= 3):
            self._retire_attempts.pop(name, None)
        else:
            ctx.set_timeout(self.drain, retire=name)
