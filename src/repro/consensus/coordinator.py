"""``ReplicatedCoordinator``: the consensus member automaton.

A group of these automata replaces the designated coordinator server of the
coordinator-dependent protocols (the ``List`` of algorithms B/C, OCC's
timestamp oracle) with a replicated state machine.  Clients *broadcast* each
coordinator request to every member — exactly the send-to-all discipline the
quorum rounds of the placement layer use — and the current leader replicates
the request through the log; once committed, it applies the request to the
state machine and sends the single reply.  Followers buffer the broadcast
copies they receive: if the leader dies before committing, the buffered
requests are what the next leader re-proposes, so no request is lost with the
crashed leader.

How a member is made
--------------------
One function builds every member: ``Protocol.make_consensus_member``
(:mod:`repro.protocols.base`), called by ``Protocol.make_automata`` for the
founding group and by the reconfiguration driver for each member it spawns
mid-run.  Everything a build decides about a member
— its own state-machine copy, the election window, the bootstrap leader,
``leases``, its stable store and ``compact_every`` — is a constructor
argument, so a spawned member cannot differ from a founding one and nothing
writes to a member after it is built.  A member handed a store that already
holds state (surviving storage a rebuilt system was pointed at) recovers from
it inside the constructor.

Exactly-once application
------------------------
A request may legally appear twice in the log (an old leader appended it, a
new leader re-proposed it from its buffer before learning of the append).
``request_id`` (``"<msg_type>/<txn>"``) dedups at apply time: the state
machine transition runs once, the reply is memoized, and later applications
of the same id just re-send the memoized reply.  Surplus replies are dropped
by the clients (their awaits match the first), so client-visible behaviour is
exactly the single-coordinator behaviour.

Elections
---------
Event-driven Raft: a member arms its (seeded, randomized) election timer only
while it holds buffered requests that have not been committed — an election
is only needed when progress is blocked — and a firing timer re-arms instead
of electing if the leader showed signs of life since it was armed.  This
keeps fault-free executions election-free and lets every run quiesce (no
heartbeat traffic, no timer churn after the workload drains), while a dead
leader is replaced within a bounded number of timeout windows (the
``leaderless window`` regression tests pin the bound).

Leader leases
-------------
With ``leases`` on, the leader serves read-only requests from its applied
state machine inside a window its append rounds proved
(:mod:`repro.consensus.lease`): once it has parked a read in its term, every
``cns-append`` carries its send vtime ``at``, a follower that heeds one
promises one lease duration of refused foreign votes and echoes ``at`` in its
ack, and the ids of locally served reads ride the unacknowledged
``cns-committed`` notice.  There is no lease message of its own.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Mapping, Optional, Sequence, Set, Tuple

from ..ioa.actions import Message, _freeze_payload
from ..ioa.automaton import Context, ServerAutomaton
from ..ioa.errors import SimulationError
from .election import CANDIDATE, DEFAULT_TIMEOUT_RANGE, LEADER, LeaderElection
from .lease import LeaderLeaseState
from .log import NOOP, ConsensusLog, LogEntry, StableStore
from .machines import CoordinatorStateMachine

#: Re-exported under the name the rest of the repository uses.
DEFAULT_ELECTION_TIMEOUT: Tuple[int, int] = DEFAULT_TIMEOUT_RANGE

#: Client-side message type asking the group to change its own membership.
RECONFIG = "cns-reconfig"

#: Log entry type carrying a configuration (``C_old,new`` or ``C_new``).
#: Configuration entries take effect as soon as they are *in the log*
#: (Raft's rule), not when they commit; while the latest config entry is a
#: joint one, elections and commits need majorities in both configurations.
CONFIG = "cns-config"


class _PendingRequest:
    """A buffered client request awaiting commitment."""

    __slots__ = ("msg_type", "payload", "client")

    def __init__(self, msg_type: str, payload: Tuple[Tuple[str, Any], ...], client: str) -> None:
        self.msg_type = msg_type
        self.payload = payload
        self.client = client


class ReplicatedCoordinator(ServerAutomaton):
    """One member of the replicated coordinator group.

    Every client request the leader commits is one log entry of its own,
    and every replication or lease fan-out is one message per peer.
    """

    def __init__(
        self,
        name: str,
        group: Sequence[str],
        machine: CoordinatorStateMachine,
        seed: int = 0,
        election_timeout: Tuple[int, int] = DEFAULT_ELECTION_TIMEOUT,
        bootstrap_leader: Optional[str] = None,
        leases: bool = False,
        stable_store: Optional[StableStore] = None,
        compact_every: Optional[int] = None,
    ) -> None:
        super().__init__(name)
        group = tuple(group)
        if name not in group:
            raise SimulationError(f"consensus member {name!r} is not in its group {group}")
        self.machine = machine
        self.seed = seed
        self.election_timeout = tuple(election_timeout)
        #: the configuration this member was constructed with; the live
        #: ``self.group`` is re-derived from the newest config entry in the
        #: log (``_refresh_config``) and falls back to this one.
        self._initial_group: Tuple[str, ...] = group
        #: a late-joining member names a *current* member as its bootstrap
        #: leader so it never believes itself leader of term 1
        self.bootstrap_leader = bootstrap_leader if bootstrap_leader is not None else group[0]
        #: ``BuildConfig.leases``
        self.leases = leases
        #: The request types the leader answers locally from its applied
        #: state machine under a quorum-proven lease instead of committing a
        #: log entry (see :mod:`repro.consensus.lease`): the machine's
        #: read-only types with leases on, none with them off — then no
        #: append is ever stamped, and golden traces pin that lease-free shape.
        self._local_reads: Tuple[str, ...] = machine.read_only_types if leases else ()
        #: Stable storage: term/vote/log/commit write through before they
        #: take effect, and ``forget()`` recovers from the store.  A durable
        #: store (``BuildConfig.persistence``) makes crash-with-amnesia
        #: ordinary crash-recovery, restoring Raft's persistence assumption;
        #: without one the member writes to a :class:`StableStore` that keeps
        #: nothing, and recovers blank.
        self.stable_store = stable_store or StableStore()
        #: When set, checkpoint the state machine and compact the log every
        #: time the applied-but-uncompacted prefix reaches this many entries
        #: (``PersistencePolicy.compact_every``).
        self.compact_every = None if compact_every is None else int(compact_every)
        #: times this member recovered from stable storage (stats)
        self.recoveries = 0
        #: checkpoints this member took (stats)
        self.checkpoints = 0
        # Election-timer bookkeeping (at most one live timer per member).
        # The timer is the kernel's, not the member's memory: one armed
        # before a crash still fires (deferred to the recovery), so these
        # survive amnesia and ``_wipe`` leaves them alone.
        self._armed_at = 0
        self._last_heard = 0
        self._timer_live = False
        self._wipe()
        if self.stable_store.is_empty():
            # Seal the bootstrap vote, so a crash before any mutation still
            # recovers it; every later mutation writes through.
            self.stable_store.save_meta(self.election.term, self.election.voted_for)
        else:
            self._recover()

    def _wipe(self) -> None:
        """Set every volatile field to its initial value: the state a member
        is built with, and what crash-with-amnesia leaves behind."""
        self.group = self._initial_group
        #: ``(old, new)`` while the newest config entry in the log is joint
        self.joint: Optional[Tuple[Tuple[str, ...], Tuple[str, ...]]] = None
        self.election = LeaderElection(
            member=self.name,
            index=self.group.index(self.name),
            group_size=len(self.group),
            initial_leader=self.bootstrap_leader,
            seed=self.seed,
            timeout_range=self.election_timeout,
            store=self.stable_store,
        )
        self.log = ConsensusLog(self.stable_store)
        #: known leader of the current term (None while electing)
        self.leader: Optional[str] = self.bootstrap_leader
        #: set when this leader committed a C_new that excludes it: hand off
        #: leadership once the commit has been broadcast
        self._handoff_pending = False
        #: buffered client requests not yet known committed (insertion order)
        self.pending: "OrderedDict[str, _PendingRequest]" = OrderedDict()
        #: request_id -> (client, reply_type, reply_payload) for every applied
        #: request — the RSM reply cache that makes re-application idempotent
        self.applied_replies: Dict[str, Tuple[str, str, Dict[str, Any]]] = {}
        # leader-side replication cursors
        self.next_index: Dict[str, int] = {}
        self.match_index: Dict[str, int] = {}
        #: peer -> the snapshot index last shipped to it that it has not
        #: answered yet: a silent (e.g. fail-stopped) peer gets each
        #: snapshot once, not once per replicate
        self._snapshot_sent: Dict[str, int] = {}
        #: follower side: the newest ``(index, term)`` a leader announced
        #: committed; applied once this log holds that pair (log matching
        #: then vouches for the whole prefix), so a notice that overtakes
        #: its entry takes effect when the entry lands
        self._commit_anchor: Tuple[int, int] = (0, 0)
        self.machine.reset()
        #: set when this member refused a vote to a candidate with an
        #: inferior log while no leader is known: the group needs a healthy
        #: member to campaign (and re-replicate) or the stale candidate
        #: disrupts forever — see ``_on_vote_request``
        self._repair = False
        #: the newest state-machine snapshot this member holds (its own
        #: checkpoint, a leader-installed one, or the recovered one); the
        #: log's compacted prefix is exactly what this covers
        self._snapshot: Optional[Dict[str, Any]] = None
        # Lease state (all inert while ``_local_reads`` is empty):
        #: leader-side lease bookkeeping, fresh for each leadership term
        self._lease = LeaderLeaseState(self._lease_duration())
        #: first log index of this member's current leadership term; local
        #: reads are refused until the commit index reaches it (the leader
        #: must know its applied state covers every earlier-term commit)
        self._term_start_index = 0
        #: follower-side promise: grant no votes to members other than
        #: ``_promise_holder`` while ``vtime < _promise_until`` — the other
        #: half of the lease proof (volatile, like term/vote without a
        #: stable store: amnesia resets it, the documented hazard)
        self._promise_until = 0
        self._promise_holder: Optional[str] = None
        #: locally-served reads a leader's commit notice named before this
        #: member's broadcast copy of the request arrived; the late copy is
        #: then dropped, not buffered (nothing would ever clear it)
        self._served_early: Set[str] = set()

    # ------------------------------------------------------------------
    @property
    def peers(self) -> Tuple[str, ...]:
        return tuple(m for m in self.group if m != self.name)

    # ------------------------------------------------------------------
    # Configuration (joint consensus)
    # ------------------------------------------------------------------
    def _quorum_ok(self, supporters) -> bool:
        """Whether ``supporters`` form a quorum of the *current* config.

        Under a joint configuration a quorum must hold in **both** the old
        and the new group (members in both count for both) — the rule that
        makes any quorum taken during the transition intersect any quorum of
        either epoch, so two leaders (or two commits) can never coexist
        across the change.
        """
        members = set(supporters)

        def majority_of(group: Tuple[str, ...]) -> bool:
            return len(members & set(group)) >= len(group) // 2 + 1

        if self.joint is not None:
            old, new = self.joint
            return majority_of(old) and majority_of(new)
        return majority_of(self.group)

    def _adopt_config(self, payload: Mapping[str, Any]) -> None:
        if payload.get("phase") == "new":
            self.group = tuple(payload["group"])
            self.joint = None
        else:
            old, new = tuple(payload["old"]), tuple(payload["new"])
            self.joint = (old, new)
            self.group = old + tuple(m for m in new if m not in old)

    def _config_at(self, through: int) -> Optional[Tuple[Tuple[str, Any], ...]]:
        """The configuration in force at index ``through``: the newest
        CONFIG payload at an index <= ``through``, falling back to the one
        the snapshot carries (None: the construction-time group)."""
        _index, entry = self.log.newest(CONFIG, through)
        if entry is not None:
            return entry.payload
        return self._snapshot.get("config") if self._snapshot is not None else None

    def _refresh_config(self) -> None:
        """Adopt the newest configuration in the log (Raft's rule: a
        configuration takes effect when it is appended, not committed)."""
        config = self._config_at(self.log.last_index)
        if config is not None:
            self._adopt_config(dict(config))
            return
        self.group = self._initial_group
        self.joint = None

    def _append_config(
        self,
        request_id: str,
        phase: str,
        payload: Mapping[str, Any],
        client: str,
        ctx: Context,
    ) -> None:
        """Append one configuration entry and adopt it (the caller
        replicates)."""
        self.log.append(
            LogEntry(
                term=self.election.term,
                request_id=request_id,
                msg_type=CONFIG,
                payload=_freeze_payload({"phase": phase, **payload}),
                client=client,
                proposed_at=ctx.vtime,
            )
        )
        self._refresh_config()
        ctx.internal(
            consensus="config",
            phase=phase,
            term=self.election.term,
            member=self.name,
            group=",".join(self.joint[1] if self.joint else self.group),
        )

    def forget(self) -> None:
        """Crash-with-amnesia hook: lose *all* volatile state, then
        :meth:`_recover` what the stable store kept.

        Raft's safety argument assumes term/vote/log survive crashes; an
        amnesiac member can double-vote, so replicated-coordinator systems
        model crash-recovery with durable state.  A durable store
        (``BuildConfig.persistence``) gives amnesia back as ordinary
        crash-recovery; the store that keeps nothing gives back a blank
        member, which keeps the fault plane's contract honest (tests
        document the hazard).
        """
        self._wipe()
        self.leader = None
        if self.name == self.bootstrap_leader:
            # A blank bootstrap leader must not resume leading: it lost its log.
            self.election.step_down(self.election.term)
        self._recover()

    # ------------------------------------------------------------------
    # Stable storage (persistence plane)
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Reload term/vote/log from the stable store and replay the
        committed prefix into the (reset) state machine.  Trace-invisible:
        no sends, no internal actions — recovery changes what the member
        *knows*, and only its later behaviour shows it."""
        store = self.stable_store
        meta = store.load_meta()
        if meta is not None:
            self.election.restore(*meta)
        self.leader = None
        snapshot = store.load_snapshot()
        index = term = 0
        if snapshot is not None:
            self._snapshot = snapshot
            self.machine.restore(snapshot["machine"])
            self.applied_replies = dict(snapshot["replies"])
            index, term = int(snapshot["index"]), int(snapshot["term"])
        self.log.restore(index, term, store.load_entries(), store.load_commit())
        self._refresh_config()
        self._replay_committed()
        if store.durable:
            self.recoveries += 1

    def _replay_committed(self) -> None:
        """Recovery twin of :meth:`_apply_committed`: same exactly-once
        dedup, but applied silently — no replies are re-sent (clients got
        them before the crash; a retransmitted request finds the memoized
        reply) and no trace records are appended."""
        for _index, entry in self.log.take_unapplied():
            if entry.is_noop():
                continue
            if entry.msg_type != CONFIG:
                self._apply_request(entry.request_id, entry)
                continue
            payload = dict(entry.payload)
            if payload.get("phase") == "new":
                self._memoize_reconfig_done(entry, payload)

    # ------------------------------------------------------------------
    # Checkpointing / log compaction
    # ------------------------------------------------------------------
    def checkpoint(self) -> int:
        """Snapshot the applied state machine and compact the log through
        ``last_applied``; returns the number of entries discarded.

        Deliberately refused while the newest configuration is joint: the
        joint entry must stay addressable until C_new is proposed, or a
        post-election leader could never finish the membership change.
        Trace-invisible (no sends, no internal actions), so compaction is a
        pure space optimisation — verdict tests pin that it never changes
        committed state.
        """
        if self.joint is not None:
            return 0
        through = self.log.last_applied
        if through <= self.log.snapshot_index:
            return 0
        snapshot: Dict[str, Any] = {
            "index": through,
            "term": self.log.term_at(through),
            "machine": self.machine.snapshot(),
            "replies": dict(self.applied_replies),
            "config": self._config_at(through),
        }
        dropped = self.log.compact(snapshot)
        if dropped:
            self._snapshot = snapshot
            self.checkpoints += 1
        return dropped

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def on_message(self, message: Message, ctx: Context) -> None:
        msg_type = message.msg_type
        if msg_type in self.machine.request_types or msg_type == RECONFIG:
            self._on_client_request(message, ctx)
        elif msg_type == "cns-append":
            self._on_append(message, ctx)
        elif msg_type == "cns-snapshot":
            self._on_snapshot(message, ctx)
        elif msg_type == "cns-append-ack":
            self._on_append_ack(message, ctx)
        elif msg_type == "cns-committed":
            self._on_committed(message, ctx)
        elif msg_type == "cns-vote-req":
            self._on_vote_request(message, ctx)
        elif msg_type == "cns-vote":
            self._on_vote(message, ctx)
        if self._lease.notify:
            # reads served while handling it, with no commit notice to ride
            self._announce(self.peers, ctx)

    def _heed_leader(self, message: Message, ctx: Context) -> bool:
        """Raft's rule for a message from a leader (append, commit notice,
        snapshot): a stale term is refused — False, and the caller
        answers so — while a current or newer one makes this member the
        sender's follower, which also counts as a sign of life for the
        election timer."""
        term = int(message.get("term", 0))
        if term < self.election.term:
            return False
        if term > self.election.term or not self.election.is_follower:
            self._step_down(term, leader=message.src, ctx=ctx)
        self.leader = message.src
        self._last_heard = ctx.vtime
        self._repair = False  # a live leader is doing the re-replication
        return True

    def _reply_in_term(self, message: Message, role: str, ctx: Context) -> bool:
        """Whether a reply (an ack or a vote) answers the term this member
        holds ``role`` in.  A newer term deposes this member first; a stale
        reply, or one that finds the member in another role, is ignored."""
        term = int(message.get("term", 0))
        if term > self.election.term:
            self._step_down(term, leader=None, ctx=ctx)
            return False
        return term == self.election.term and self.election.role == role

    def _send(self, peer: str, msg_type: str, ctx: Context, **fields: Any) -> None:
        """Send a consensus message: every one carries the sender's term."""
        ctx.send(peer, msg_type, {"term": self.election.term, **fields}, phase="consensus")

    # ------------------------------------------------------------------
    # Client requests
    # ------------------------------------------------------------------
    def _on_client_request(self, message: Message, ctx: Context) -> None:
        ident = message.get("txn") if message.msg_type != RECONFIG else message.get("reconfig")
        request_id = f"{message.msg_type}/{ident}"
        if request_id in self.applied_replies:
            # Already served; only the leader re-sends (followers stay quiet
            # so the client sees at most a few copies, never a quorum storm).
            if self.election.is_leader:
                self._send_reply(request_id, ctx)
            return
        if request_id in self._served_early:
            # A leader served this read and said so before this copy came.
            self._served_early.discard(request_id)
            return
        if self.election.is_leader:
            if self.log.contains_request(request_id):
                return
            if message.msg_type in self._local_reads:
                self._on_read_request(request_id, message, ctx)
                return
            if message.msg_type == RECONFIG:
                if self.log.contains_request(f"{request_id}/new"):
                    # A re-sent copy of a change whose C_new is appended: a
                    # checkpoint may have compacted its joint entry, and
                    # proposing it again would reopen the change.
                    return
                if self.joint is not None:
                    raise SimulationError(
                        "a second membership change arrived while C_old,new is "
                        "in flight: at most one configuration change at a time"
                    )
            self._propose(request_id, message.msg_type, message.items, message.src, ctx)
            self._replicate(ctx)
            self._maybe_commit(ctx)
            return
        # Follower / candidate: buffer the broadcast copy and make sure an
        # election timer is running — if the leader never commits this, the
        # timer is what converts the buffered copy into a re-proposal.
        self.pending.setdefault(
            request_id,
            _PendingRequest(message.msg_type, message.items, message.src),
        )
        self._ensure_timer(ctx)

    def _propose(
        self,
        request_id: str,
        msg_type: str,
        payload: Tuple[Tuple[str, Any], ...],
        client: str,
        ctx: Context,
    ) -> None:
        """Append one client request to the log (the caller replicates): a
        membership change enters as the joint configuration C_old,new,
        adopted on append; any other request as an entry of its own."""
        if msg_type == RECONFIG:
            request = dict(payload)
            self._append_config(
                request_id,
                "joint",
                {"old": tuple(request.get("old", ())), "new": tuple(request.get("new", ()))},
                client,
                ctx,
            )
            return
        self.log.append(
            LogEntry(
                term=self.election.term,
                request_id=request_id,
                msg_type=msg_type,
                payload=payload,
                client=client,
                proposed_at=ctx.vtime,
            )
        )

    # ------------------------------------------------------------------
    # Replication (leader side)
    # ------------------------------------------------------------------
    def _replicate(self, ctx: Context) -> None:
        for peer in self.peers:
            self._send_append(peer, ctx)

    def _send_append(self, peer: str, ctx: Context) -> None:
        next_index = self.next_index.get(peer, self.log.last_index + 1)
        if next_index <= self.log.snapshot_index:
            # The entries this peer needs were compacted away: ship the
            # snapshot instead (Raft's InstallSnapshot); ordinary appends
            # resume from the snapshot index once the peer acks it.
            self._send_snapshot(peer, ctx)
            return
        prev_index = next_index - 1
        # A leader that has parked a read this term makes every append a
        # lease round: its ack proves the window from this send vtime.
        lease = self._lease
        stamp = {"at": ctx.vtime} if lease.expiry or lease.round_open else {}
        if stamp:
            self._ack_own_round(ctx)
        self._send(
            peer,
            "cns-append",
            ctx,
            prev_index=prev_index,
            prev_term=self.log.term_at(prev_index) if prev_index <= self.log.last_index else 0,
            entries=self.log.entries_from(next_index),
            commit=self.log.commit_index,
            **stamp,
        )

    def _send_snapshot(self, peer: str, ctx: Context) -> None:
        """Ship the snapshot to ``peer`` once per snapshot index: until the
        peer answers, a later replicate has nothing new to tell it."""
        if self._snapshot is None:
            raise SimulationError(
                f"{self.name} compacted its log without retaining a snapshot"
            )
        index = self._snapshot["index"]
        if self._snapshot_sent.get(peer) == index:
            return
        self._snapshot_sent[peer] = index
        self._send(peer, "cns-snapshot", ctx, snapshot=self._snapshot)

    def _maybe_commit(self, ctx: Context) -> None:
        """Advance the commit index to the highest current-term entry
        replicated on a majority (counting self), then apply.

        An advanced commit is announced at once: each peer gets one
        unacknowledged ``cns-committed`` notice carrying the commit index
        and its term (and the reads served since the last notice), and
        applies through it as soon as its log holds that pair.  Followers
        thereby drop the request from their buffers, which is what lets
        their election timers quiesce — without it the *last* request of a
        burst would sit uncommitted at the followers forever and trigger a
        needless election at idle.  Entries a peer still lacks ride on the
        next append, as in Raft (§5.3).
        """
        before = self.log.commit_index
        for index in range(self.log.last_index, self.log.commit_index, -1):
            if self.log.term_at(index) != self.election.term:
                break
            supporters = {self.name} | {
                p for p in self.peers if self.match_index.get(p, 0) >= index
            }
            if self._quorum_ok(supporters):
                self.log.advance_commit(index)
                break
        # The members of the configuration the entries committed under: a
        # committed joint entry's apply appends C_new, and the members that
        # C_new drops must still hear that the joint entry committed.
        peers = self.peers
        self._apply_committed(ctx)
        if self.log.commit_index > before:
            # An advanced commit may satisfy the current-term guard that
            # parked reads were waiting on.
            self._lease_pump(ctx)
            self._announce(peers, ctx)
        if self._handoff_pending and self.election.is_leader:
            # This leader committed a C_new that excludes it: the commit has
            # been announced above, so abdicate — the remaining members hold
            # an election the next time progress needs a leader.
            self._handoff_pending = False
            ctx.internal(
                consensus="leader-handoff", term=self.election.term, member=self.name
            )
            self._step_down(self.election.term, leader=None, ctx=ctx)

    def _announce(self, peers: Sequence[str], ctx: Context) -> None:
        """One unacknowledged ``cns-committed`` notice per peer: the commit
        index and its term, and the ids of the reads served locally since
        the last notice, so followers drop their broadcast copies."""
        lease, commit = self._lease, self.log.commit_index
        served = {"served": tuple(lease.notify)} if lease.notify else {}
        lease.notify = []
        for peer in peers:
            self._send(peer, "cns-committed", ctx, commit=commit, commit_term=self.log.term_at(commit), **served)

    def _on_append_ack(self, message: Message, ctx: Context) -> None:
        if not self._reply_in_term(message, LEADER, ctx):
            return
        peer = message.src
        self._snapshot_sent.pop(peer, None)
        at = message.get("at")
        if at is not None:
            self._lease.record_ack(peer, int(at))
            self._refresh_lease(ctx)
        if message.get("ok"):
            match = int(message.get("match", 0))
            self.match_index[peer] = max(self.match_index.get(peer, 0), match)
            self.next_index[peer] = self.match_index[peer] + 1
            self._maybe_commit(ctx)
        else:
            # Fast backtrack to the follower's committed prefix, which the
            # log-matching property guarantees agrees with ours.
            self.next_index[peer] = int(message.get("match", 0)) + 1
            self._send_append(peer, ctx)

    # ------------------------------------------------------------------
    # Leader leases (see repro.consensus.lease)
    # ------------------------------------------------------------------
    def _lease_duration(self) -> int:
        """The low end of the election-timeout range: a lease lapses before
        any successor's election timer can fire."""
        return max(1, int(self.election_timeout[0]))

    def _on_read_request(self, request_id: str, message: Message, ctx: Context) -> None:
        """Leader fast path for a read-only request: park it on the lease
        and pump — a live proven lease serves it immediately (latency 0),
        otherwise the extension round in flight proves the window for every
        read parked behind it in one evaluation."""
        lease = self._lease
        if request_id in lease.reads:
            return
        if lease.expiry and not lease.live(ctx.vtime) and not lease.expired_logged:
            lease.expired_logged = True
            ctx.internal(
                consensus="lease-expired",
                term=self.election.term,
                member=self.name,
                until=lease.expiry,
                vtime=ctx.vtime,
            )
        lease.reads[request_id] = (
            _PendingRequest(message.msg_type, message.items, message.src),
            ctx.vtime,
        )
        self._lease_pump(ctx)

    def _serve_read_locally(
        self, request_id: str, request: _PendingRequest, arrived_at: int, ctx: Context
    ) -> None:
        """Answer a read from the applied state machine without a log entry.

        Read-only transitions are pure, so applying one touches no state;
        the reply is memoized like a committed one (retransmissions dedup)
        and the request id queues for the next served notice, so followers
        drop their broadcast copies and quiesce."""
        self._apply_request(request_id, request)
        self.pending.pop(request_id, None)
        lease = self._lease
        lease.notify.append(request_id)
        ctx.internal(
            consensus="local-read",
            term=self.election.term,
            member=self.name,
            request=request_id,
            until=lease.expiry,
            vtime=ctx.vtime,
            read_latency=max(0, ctx.vtime - arrived_at),
        )
        self._send_reply(request_id, ctx)

    def _lease_pump(self, ctx: Context) -> None:
        """Serve every parked read the proven window covers (the caller
        announces them), then start an extension round if the window
        lapsed with reads still parked: an append round to every peer."""
        lease = self._lease
        if (
            lease.reads
            and lease.live(ctx.vtime)
            and self.log.commit_index >= self._term_start_index
        ):
            parked = list(lease.reads.items())
            lease.reads = OrderedDict()
            for request_id, (request, arrived_at) in parked:
                if request_id in self.applied_replies:
                    self._send_reply(request_id, ctx)
                    continue
                self._serve_read_locally(request_id, request, arrived_at, ctx)
        if lease.reads and not lease.round_open and not lease.live(ctx.vtime):
            # (Under a live window parked reads wait only for the commit
            # guard, and the commit that passes it pumps again.)
            lease.round_open = True
            lease.round_sent_at = ctx.vtime
            self._ack_own_round(ctx)
            self._replicate(ctx)
            self._refresh_lease(ctx)  # single-member groups prove instantly

    def _ack_own_round(self, ctx: Context) -> None:
        """The leader's own ack of a lease round it sends now, and the
        promise it stands for: deposed inside the window, it elects nobody
        else either, or the quorum that proved the window would not hold."""
        self._lease.record_ack(self.name, ctx.vtime)
        self._promise_until = max(self._promise_until, ctx.vtime + self._lease.duration)
        self._promise_holder = self.name

    def _refresh_lease(self, ctx: Context) -> None:
        """Recompute the proven lease window from the ack times, close the
        open round once a quorum has acknowledged it, and serve what a
        longer window covers."""
        lease = self._lease
        start = lease.proven_start(self._quorum_ok)
        if start is not None:
            new_expiry = start + lease.duration
            if new_expiry > lease.expiry:
                kind = (
                    "lease-renewed"
                    if lease.expiry and lease.live(ctx.vtime)
                    else "lease-acquired"
                )
                lease.expiry = new_expiry
                lease.expired_logged = False
                ctx.internal(
                    consensus=kind,
                    term=self.election.term,
                    member=self.name,
                    start=start,
                    until=new_expiry,
                    vtime=ctx.vtime,
                )
                if lease.round_open and new_expiry >= lease.round_sent_at + lease.duration:
                    lease.round_open = False
                self._lease_pump(ctx)

    # ------------------------------------------------------------------
    # Replication (follower side)
    # ------------------------------------------------------------------
    def _on_append(self, message: Message, ctx: Context) -> None:
        """Follower side of an append.  One stamped with the leader's send
        vtime ``at`` is also a lease round: a member that heeds it promises
        not to elect anyone else for one lease duration from *local* receive
        time (the virtual clock is skew-free, so receive time >= send time
        and the promise covers the leader's window), whether or not its log
        matches, and echoes ``at`` in its ack."""
        prev_index, at = int(message.get("prev_index", 0)), message.get("at")
        echo = {} if at is None else {"at": at}
        heeded = self._heed_leader(message, ctx)
        if heeded and echo:
            self._promise_until = max(self._promise_until, ctx.vtime + self._lease_duration())
            self._promise_holder = message.src
        if not heeded or not self.log.matches(prev_index, int(message.get("prev_term", 0))):
            # (a stale leader's echo is moot: the refusal's newer term deposes it)
            self._send(message.src, "cns-append-ack", ctx, ok=False, match=self.log.commit_index, **echo)
            return
        entries = tuple(message.get("entries", ()))
        if entries:
            self.log.merge(prev_index, entries)
            # A merge may have installed *or truncated* a configuration
            # entry; re-derive the active config from the log (cheap: the
            # log indexes its entries by type).  An empty append cannot
            # change the log, so it skips both.
            self._refresh_config()
        self.log.advance_commit(int(message.get("commit", 0)))
        self._advance_to_anchor()
        self._apply_committed(ctx)
        # Acknowledge exactly the prefix this append established — a stale
        # longer suffix past it must not inflate the leader's match cursor.
        # Floor at the local snapshot index (a no-op without compaction):
        # entries below it were skipped as already-committed, and acking
        # less would walk the leader's next_index into the compacted prefix
        # forever.
        match = max(prev_index + len(entries), self.log.snapshot_index)
        self._send(message.src, "cns-append-ack", ctx, ok=True, match=match, **echo)

    def _on_committed(self, message: Message, ctx: Context) -> None:
        """Follower side of a commit notice: keep the newest announced
        ``(commit, commit_term)`` and apply through it if this log holds
        that pair, and drop the copies of the reads it names as served; a
        stale term is refused as a stale append is, which deposes its
        sender.  Never acknowledged otherwise."""
        if not self._heed_leader(message, ctx):
            self._send(message.src, "cns-append-ack", ctx, ok=False, match=self.log.commit_index)
            return
        for request_id in message.get("served", ()):
            if self.pending.pop(request_id, None) is None:
                # the broadcast copy is still in flight: keep it out on arrival
                self._served_early.add(request_id)
        commit = int(message.get("commit", 0))
        if commit > self._commit_anchor[0]:
            self._commit_anchor = (commit, int(message.get("commit_term", 0)))
        if self._advance_to_anchor():
            self._apply_committed(ctx)

    def _advance_to_anchor(self) -> bool:
        """Advance the commit index to the announced anchor if this log
        holds its ``(index, term)`` pair; returns whether it moved."""
        index, term = self._commit_anchor
        if self.log.commit_index < index <= self.log.last_index and self.log.term_at(index) == term:
            self.log.advance_commit(index)
            return True
        return False

    def _on_snapshot(self, message: Message, ctx: Context) -> None:
        """Install a leader-shipped snapshot (the compacted counterpart of
        :meth:`_on_append`): adopt machine state, reply cache and config as
        of the snapshot index, then ack so ordinary appends resume."""
        heeded = self._heed_leader(message, ctx)
        snapshot = dict(message.get("snapshot") or {})
        if heeded and int(snapshot.get("index", 0)) > self.log.snapshot_index:
            if self.log.install_snapshot(snapshot):
                self.machine.restore(snapshot["machine"])
                self.applied_replies = dict(snapshot["replies"])
            else:
                # Already applied past the snapshot: keep the newer machine,
                # just absorb any replies we never saw.
                for request_id, reply in dict(snapshot["replies"]).items():
                    self.applied_replies.setdefault(request_id, reply)
            self._snapshot = snapshot
            self._refresh_config()
            for request_id in [r for r in self.pending if r in self.applied_replies]:
                self.pending.pop(request_id, None)
        self._send(message.src, "cns-append-ack", ctx, ok=heeded, match=self.log.commit_index)

    # ------------------------------------------------------------------
    # Elections
    # ------------------------------------------------------------------
    def _on_vote_request(self, message: Message, ctx: Context) -> None:
        term = int(message.get("term", 0))
        candidate = message.src
        was_leader = self.election.is_leader
        if term > self.election.term:
            self._step_down(term, leader=None, ctx=ctx)
        granted = (
            self.election.may_grant(candidate, term)
            and not self.election.is_leader
            and candidate in self.group  # elections are restricted to the current config
            and self.log.up_to_date(
                int(message.get("last_index", 0)), int(message.get("last_term", 0))
            )
            and not self._promised_away(candidate, ctx)
        )
        if granted:
            self.election.grant(candidate)
            self._last_heard = ctx.vtime  # a live candidacy counts as liveness
        self._send(candidate, "cns-vote", ctx, granted=granted)
        if not granted and self.name in self.group and not self.election.is_leader:
            # A stale member (e.g. back from a healed partition, campaigning
            # on requests the group long committed) can depose a quiescent
            # leader it cannot replace: without heartbeats nobody would ever
            # re-replicate, so the stale candidate campaigns forever.  The
            # refusers hold better logs — a deposed leader reclaims
            # leadership immediately (asymmetric, so no duel), and refusing
            # followers arm their randomized repair timers; whichever
            # campaigns first wins, and the new term's replication catches
            # the stale member up, drains its buffer and restores quiescence.
            if was_leader:
                self._start_election(ctx)
            else:
                self._repair = True
                self._ensure_timer(ctx)

    def _promised_away(self, candidate: str, ctx: Context) -> bool:
        """Lease promise: while this member vouches for a lease holder it
        elects nobody else — by quorum intersection no election can complete
        inside a proven lease window, so a candidate waits the old lease out.
        (The holder itself may reclaim: a same-member re-election cannot
        produce a stale read.)"""
        return self._promise_until > ctx.vtime and candidate != self._promise_holder

    def _on_vote(self, message: Message, ctx: Context) -> None:
        if self._reply_in_term(message, CANDIDATE, ctx) and message.get("granted"):
            self.election.record_vote(message.src)
            if self._quorum_ok(self.election.votes):
                self._become_leader(ctx)

    def _start_election(self, ctx: Context) -> None:
        term = self.election.start_candidacy()
        self.leader = None
        ctx.internal(consensus="candidacy", term=term, member=self.name)
        for peer in self.peers:
            self._send(
                peer, "cns-vote-req", ctx, last_index=self.log.last_index, last_term=self.log.last_term
            )
        self.election.record_vote(self.name)
        if self._quorum_ok(self.election.votes):  # single-survivor groups
            self._become_leader(ctx)

    def _become_leader(self, ctx: Context) -> None:
        self.election.become_leader()
        self.leader = self.name
        self._repair = False
        self.next_index = {p: self.log.last_index + 1 for p in self.peers}
        self.match_index = {p: 0 for p in self.peers}
        self._snapshot_sent = {}
        # A fresh leader holds no lease and serves no local read until its
        # current-term no-op commits (its applied state must cover every
        # earlier-term commit before a local read can reflect them).
        self._lease = LeaderLeaseState(self._lease_duration())
        self._term_start_index = self.log.last_index + 1
        ctx.internal(
            consensus="became-leader",
            term=self.election.term,
            member=self.name,
            vtime=ctx.vtime,
        )
        # A no-op of the new term commits every prior-term entry beneath it
        # (Raft §5.4.2), and the buffered requests the old leader never
        # committed are re-proposed behind it.
        self.log.append(
            LogEntry(
                term=self.election.term,
                request_id=f"{NOOP}/{self.election.term}/{self.name}",
                msg_type=NOOP,
                proposed_at=ctx.vtime,
            )
        )
        for request_id, request in self.pending.items():
            if self.log.contains_request(request_id) or request_id in self.applied_replies:
                continue
            if request.msg_type == RECONFIG and (
                self.joint is not None or self.log.contains_request(f"{request_id}/new")
            ):
                continue  # a change is mid-flight (this one past its joint entry); stays buffered
            self._propose(request_id, request.msg_type, request.payload, request.client, ctx)
        self._maybe_advance_config(ctx)
        self._replicate(ctx)
        self._maybe_commit(ctx)

    def _step_down(self, term: int, leader: Optional[str], ctx: Context) -> None:
        was_leader = self.election.is_leader
        self.election.step_down(term)
        self.leader = leader
        if was_leader:
            # Unserved parked reads survive a deposition: they join the
            # follower buffer and are re-proposed (as ordinary committed
            # entries) if no other copy reaches the new leader.
            for request_id, (request, _arrived_at) in self._lease.reads.items():
                self.pending.setdefault(request_id, request)
            ctx.internal(consensus="stepped-down", term=term, member=self.name)

    # ------------------------------------------------------------------
    # Election timer
    # ------------------------------------------------------------------
    def _ensure_timer(self, ctx: Context) -> None:
        if self._timer_live or self.election.is_leader:
            return
        self._timer_live = True
        self._armed_at = ctx.vtime
        ctx.set_timeout(self.election.next_timeout(), kind="election")

    def on_timeout(self, info: Mapping[str, Any], ctx: Context) -> None:
        self._timer_live = False
        if self.election.is_leader or not (self.pending or self._repair):
            return  # nothing blocked on a leader: quiesce
        if self.name not in self.group:
            return  # removed from the config: never campaign, await retirement
        if self._promised_away(self.name, ctx):
            # Campaigning now would be refused by the promiser quorum
            # anyway — wait the old lease out, then retry.
            self._ensure_timer(ctx)
            return
        if self.election.is_follower and self._last_heard >= self._armed_at:
            # The leader (or an election) showed signs of life during this
            # window — grant another full window before interfering.
            self._ensure_timer(ctx)
            return
        self._start_election(ctx)
        self._ensure_timer(ctx)

    # ------------------------------------------------------------------
    # Apply + reply
    # ------------------------------------------------------------------
    def _maybe_advance_config(self, ctx: Context) -> None:
        """Leader rule: once the joint entry C_old,new is committed, append
        C_new (also run at election time, in case the previous leader died
        between committing the joint entry and proposing C_new)."""
        if not self.election.is_leader or self.joint is None:
            return
        # The scan stops at the snapshot: checkpoint() never compacts while
        # the newest config is joint, so a joint entry is always in the suffix.
        index, entry = self.log.newest(CONFIG, self.log.last_index)
        if entry is None:
            return
        payload = dict(entry.payload)
        if (
            payload.get("phase") != "joint"  # newest config is already C_new
            or index > self.log.commit_index  # joint entry not committed yet
            or self.log.contains_request(f"{entry.request_id}/new")
        ):
            return
        self._append_config(
            f"{entry.request_id}/new",
            "new",
            {"group": tuple(payload["new"]), "request": entry.request_id},
            client=entry.client,
            ctx=ctx,
        )
        self._replicate(ctx)
        self._maybe_commit(ctx)

    def _memoize_reconfig_done(self, entry: LogEntry, payload: Mapping[str, Any]) -> str:
        """Memoize the answer to the ``cns-reconfig`` request a committed
        C_new completes, under the *request's* id (so a request re-sent
        after failover gets the same done message back); returns that id."""
        request_id = str(payload.get("request", ""))
        if request_id and request_id not in self.applied_replies:
            self.applied_replies[request_id] = (
                entry.client,
                "cns-reconfig-done",
                {
                    "reconfig": int(request_id.rsplit("/", 1)[-1]),
                    "group": tuple(payload.get("group", ())),
                },
            )
        return request_id

    def _apply_config(self, entry: LogEntry, ctx: Context) -> None:
        """Apply a committed configuration entry (both phases are config-
        only: the coordinator state machine never sees them)."""
        payload = dict(entry.payload)
        if payload.get("phase") == "joint":
            self._maybe_advance_config(ctx)
            return
        # C_new committed: answer the original cns-reconfig request once.
        request_id = self._memoize_reconfig_done(entry, payload)
        self.pending.pop(request_id, None)
        if self.election.is_leader:
            if request_id:
                self._send_reply(request_id, ctx)
            if self.name not in tuple(payload.get("group", ())):
                self._handoff_pending = True

    def _apply_request(self, request_id: str, request) -> None:
        """Run a request (a log entry or a parked read) through the state
        machine once: the reply is memoized under ``request_id``, and a
        later application of the same id only finds the memo."""
        if request_id not in self.applied_replies:
            reply_type, reply_payload = self.machine.apply(request.msg_type, dict(request.payload))
            self.applied_replies[request_id] = (request.client, reply_type, reply_payload)

    def _apply_committed(self, ctx: Context) -> None:
        for index, entry in self.log.take_unapplied():
            if entry.is_noop():
                continue
            info = dict(
                consensus="apply",
                index=index,
                term=entry.term,
                request=entry.request_id,
                commit_latency=max(0, ctx.vtime - entry.proposed_at),
            )
            if entry.msg_type == CONFIG:
                # a configuration's reply goes out before its apply record
                self._apply_config(entry, ctx)
                ctx.internal(**info)
                continue
            self._apply_request(entry.request_id, entry)
            self.pending.pop(entry.request_id, None)
            if entry.msg_type in self._local_reads:
                info["read"] = True
            ctx.internal(**info)
            if self.election.is_leader:
                self._send_reply(entry.request_id, ctx)
        if (
            self.compact_every is not None
            and self.log.last_applied - self.log.snapshot_index >= self.compact_every
        ):
            self.checkpoint()

    def _send_reply(self, request_id: str, ctx: Context) -> None:
        client, reply_type, reply_payload = self.applied_replies[request_id]
        msg_type = request_id.split("/", 1)[0]
        phase = "reconfig" if msg_type == RECONFIG else self.machine.reply_phase(msg_type)
        ctx.send(client, reply_type, reply_payload, phase=phase)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        return (
            f"{self.name}: {self.election.describe().split(': ', 1)[1]}, "
            f"{self.log.describe()}, pending={len(self.pending)}, {self.machine.describe()}"
        )
