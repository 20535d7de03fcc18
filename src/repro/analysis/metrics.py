"""Metric collection and aggregation for protocol experiments.

Latency in the simulator is measured in two complementary ways:

* **rounds** — the number of sequential client↔server round trips a READ
  transaction needed (the paper's latency measure: the O property's
  "one round" and the bounded-round guarantees of algorithms B and C);
* **trace steps** — the number of scheduler steps between invocation and
  response, a finer-grained proxy for wall-clock latency on an asynchronous
  network (every message delivery costs one step).

Message cost (requests + replies attributable to a transaction) captures the
throughput/overhead side: algorithm A pushes per-write work to the reader,
algorithms B and C to the coordinator, and the benchmark harness reports both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..ioa.simulation import Simulation
from ..txn.transactions import ReadTransaction


@dataclass(frozen=True)
class TransactionMetrics:
    """Per-transaction measurements."""

    txn_id: str
    kind: str  # "read" | "write"
    client: str
    rounds: int
    messages_sent: int
    latency_steps: Optional[int]
    #: versions in the largest reply; ``None`` for a READ on a partial trace
    versions: Optional[int] = 1
    annotations: Tuple[Tuple[str, Any], ...] = ()


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation surprises)."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return float(ordered[rank - 1])


@dataclass
class AggregateStats:
    """Summary statistics over one metric."""

    count: int
    mean: float
    minimum: float
    maximum: float
    p50: float
    p95: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "AggregateStats":
        if not values:
            return cls(count=0, mean=float("nan"), minimum=float("nan"), maximum=float("nan"), p50=float("nan"), p95=float("nan"))
        return cls(
            count=len(values),
            mean=sum(values) / len(values),
            minimum=float(min(values)),
            maximum=float(max(values)),
            p50=percentile(values, 0.50),
            p95=percentile(values, 0.95),
        )

    def __eq__(self, other: object) -> Any:
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.count == 0 and other.count == 0:
            return True  # empty aggregates hold NaNs, which never compare equal
        return (self.count, self.mean, self.minimum, self.maximum, self.p50, self.p95) == (
            other.count, other.mean, other.minimum, other.maximum, other.p50, other.p95
        )

    def describe(self) -> str:
        if self.count == 0:
            return "n=0"
        return f"n={self.count} mean={self.mean:.2f} min={self.minimum:.0f} p50={self.p50:.0f} p95={self.p95:.0f} max={self.maximum:.0f}"


@dataclass(frozen=True)
class FaultMetrics:
    """Availability and network-fault measurements of one execution.

    Only populated when the simulation ran with a fault plane installed.
    ``availability`` is the fraction of submitted transactions that completed
    (a run under drops/partitions/crashes may legally go idle with
    transactions outstanding); the latency aggregates of the surrounding
    :class:`ExperimentMetrics` then cover *completed* transactions only,
    which is exactly "latency under fault".
    """

    plan: str
    submitted: int
    completed: int
    read_submitted: int
    read_completed: int
    write_submitted: int
    write_completed: int
    messages_dropped: int
    messages_duplicated: int
    duplicates_suppressed: int
    retransmissions: int
    held_by_partition: int
    held_by_crash: int
    abandoned_messages: int
    crashes: int
    recoveries: int
    #: latency on the *virtual* clock (kernel steps + fault-plane time
    #: jumps), completed transactions only.  Trace-step latency cannot see
    #: a latency model's delays — a delayed delivery adds no trace actions —
    #: so this is the clock "latency under fault" is measured on.
    read_latency_virtual: AggregateStats
    write_latency_virtual: AggregateStats

    @property
    def availability(self) -> float:
        return self.completed / self.submitted if self.submitted else 1.0

    @property
    def read_availability(self) -> float:
        return self.read_completed / self.read_submitted if self.read_submitted else 1.0

    @property
    def write_availability(self) -> float:
        return self.write_completed / self.write_submitted if self.write_submitted else 1.0

    def describe(self) -> str:
        return (
            f"faults[{self.plan}]: availability={self.availability:.2f} "
            f"(reads {self.read_completed}/{self.read_submitted}, "
            f"writes {self.write_completed}/{self.write_submitted}), "
            f"dropped={self.messages_dropped}, retransmitted={self.retransmissions}, "
            f"duplicated={self.messages_duplicated}, crash-held={self.held_by_crash}, "
            f"partition-held={self.held_by_partition}, abandoned={self.abandoned_messages}\n"
            f"  read latency (virtual): {self.read_latency_virtual.describe()}"
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "plan": self.plan,
            "submitted": self.submitted,
            "completed": self.completed,
            "availability": round(self.availability, 4),
            "read_availability": round(self.read_availability, 4),
            "write_availability": round(self.write_availability, 4),
            "messages_dropped": self.messages_dropped,
            "messages_duplicated": self.messages_duplicated,
            "duplicates_suppressed": self.duplicates_suppressed,
            "retransmissions": self.retransmissions,
            "held_by_partition": self.held_by_partition,
            "held_by_crash": self.held_by_crash,
            "abandoned_messages": self.abandoned_messages,
            "crashes": self.crashes,
            "recoveries": self.recoveries,
            "read_latency_virtual_mean": round(self.read_latency_virtual.mean, 2)
            if self.read_latency_virtual.count
            else None,
            "read_latency_virtual_p95": self.read_latency_virtual.p95
            if self.read_latency_virtual.count
            else None,
            "write_latency_virtual_mean": round(self.write_latency_virtual.mean, 2)
            if self.write_latency_virtual.count
            else None,
        }


@dataclass(frozen=True)
class ReplicationMetrics:
    """Placement/quorum measurements of one replicated execution.

    Only populated when the system was built with ``replication_factor > 1``.
    ``read_quorum_replies`` aggregates the ``quorum_replies`` annotation the
    replica-aware readers report — how many replies each READ actually
    collected before its quorum predicate fired (its minimum is the quorum
    size reached; under a replica outage it shows reads completing on fewer
    replies than the full fan-out).
    """

    replication_factor: int
    quorum: str
    read_quorum: int
    write_quorum: int
    num_replica_servers: int
    read_quorum_replies: AggregateStats

    def describe(self) -> str:
        return (
            f"replication: factor={self.replication_factor} quorum={self.quorum} "
            f"(R={self.read_quorum}, W={self.write_quorum}, servers={self.num_replica_servers}); "
            f"read quorum replies: {self.read_quorum_replies.describe()}"
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "replication_factor": self.replication_factor,
            "quorum": self.quorum,
            "read_quorum": self.read_quorum,
            "write_quorum": self.write_quorum,
            "num_replica_servers": self.num_replica_servers,
            "read_quorum_replies_mean": round(self.read_quorum_replies.mean, 2)
            if self.read_quorum_replies.count
            else None,
            "read_quorum_replies_min": self.read_quorum_replies.minimum
            if self.read_quorum_replies.count
            else None,
        }


@dataclass(frozen=True)
class ConsensusMetrics:
    """Replicated-coordinator measurements of one execution.

    Only populated when the system was built with ``consensus_factor > 1``.
    Everything is extracted from the self-describing internal actions the
    consensus members record (``candidacy`` / ``became-leader`` / ``apply``),
    so the block works uniformly across protocols and fault regimes.

    ``commit_latency`` is measured on the virtual clock from a request's
    (re)proposal to its application — the consensus tax each coordinator
    round pays; ``leader_elected_at`` records the virtual time of each
    election win, from which leaderless windows are derived (election vtime
    minus the crash time; see ``tests/consensus/test_leaderless_window.py``).
    """

    members: int
    elections: int
    leaders_elected: int
    max_term: int
    entries_applied: int
    commit_latency: AggregateStats
    #: virtual times at which new leaders were elected (for window bounds)
    leader_elected_at: Tuple[int, ...] = ()
    # Lease block (``BuildConfig.leases``; all zero without a lease policy):
    #: lease windows first proven / extended while live / noticed lapsed
    lease_acquisitions: int = 0
    lease_renewals: int = 0
    lease_expiries: int = 0
    #: reads the lease holder served locally (no log entry committed)
    local_reads: int = 0
    #: read-only requests that still went through a commit round
    read_applies: int = 0
    #: virtual-clock latency of locally-served reads (arrival → reply) —
    #: the commit-bypass counterpart of ``commit_latency``
    lease_read_latency: AggregateStats = field(
        default_factory=lambda: AggregateStats.from_values(())
    )

    @property
    def local_read_ratio(self) -> Optional[float]:
        """Fraction of coordinator reads the lease fast path absorbed."""
        total = self.local_reads + self.read_applies
        if total == 0:
            return None
        return self.local_reads / total

    def describe(self) -> str:
        base = (
            f"consensus: members={self.members} elections={self.elections} "
            f"leaders_elected={self.leaders_elected} max_term={self.max_term} "
            f"applied={self.entries_applied}; commit latency: {self.commit_latency.describe()}"
        )
        if self.local_reads or self.lease_acquisitions:
            ratio = self.local_read_ratio
            base += (
                f"; leases: acquired={self.lease_acquisitions} "
                f"renewed={self.lease_renewals} expired={self.lease_expiries} "
                f"local_reads={self.local_reads}"
                + (f" ({ratio:.0%} of reads)" if ratio is not None else "")
                + f"; local-read latency: {self.lease_read_latency.describe()}"
            )
        return base

    def as_dict(self) -> Dict[str, Any]:
        out = {
            "consensus_members": self.members,
            "elections": self.elections,
            "leaders_elected": self.leaders_elected,
            "max_term": self.max_term,
            "entries_applied": self.entries_applied,
            "commit_latency_mean": round(self.commit_latency.mean, 2)
            if self.commit_latency.count
            else None,
            "commit_latency_p95": self.commit_latency.p95
            if self.commit_latency.count
            else None,
        }
        # Lease columns appear only when the run had lease activity, so the
        # committed BENCH_*.json rows of lease-free grids stay unchanged.
        if self.local_reads or self.lease_acquisitions:
            ratio = self.local_read_ratio
            out.update(
                {
                    "lease_acquisitions": self.lease_acquisitions,
                    "lease_renewals": self.lease_renewals,
                    "lease_expiries": self.lease_expiries,
                    "local_reads": self.local_reads,
                    "read_applies": self.read_applies,
                    "local_read_ratio": round(ratio, 4) if ratio is not None else None,
                    "lease_read_latency_mean": round(self.lease_read_latency.mean, 2)
                    if self.lease_read_latency.count
                    else None,
                    "lease_read_latency_p95": self.lease_read_latency.p95
                    if self.lease_read_latency.count
                    else None,
                }
            )
        return out


@dataclass(frozen=True)
class ReconfigMetrics:
    """Membership-reconfiguration measurements of one execution.

    Only populated when the system was built with a
    :class:`~repro.consensus.reconfig.ReconfigPlan`.  ``epochs`` is the final
    placement epoch (each change contributes a joint entry and a commit, so
    one completed change = two epochs); ``transfer_versions`` totals the
    versions streamed to freshly added replicas; ``epoch_retries`` counts the
    client rounds that had to restart after an ``epoch-mismatch``; and
    ``unavailability_window`` is the longest virtual-time span any single
    transaction spent blocked on such retries (0 when no round ever had to
    retry — the "membership change as a non-event" target the
    replace-dead-replica scenario pins in ``BENCH_reconfig.json``).
    """

    epochs: int
    reconfigs_completed: int
    joint_windows: int
    transfer_versions: int
    epoch_retries: int
    unavailability_window: int
    retired_servers: int

    def describe(self) -> str:
        return (
            f"reconfig: epochs={self.epochs} completed={self.reconfigs_completed} "
            f"transferred={self.transfer_versions} retries={self.epoch_retries} "
            f"unavailability_window={self.unavailability_window} retired={self.retired_servers}"
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "epochs": self.epochs,
            "reconfigs_completed": self.reconfigs_completed,
            "joint_windows": self.joint_windows,
            "transfer_versions": self.transfer_versions,
            "epoch_retries": self.epoch_retries,
            "unavailability_window": self.unavailability_window,
            "retired_servers": self.retired_servers,
        }


@dataclass(frozen=True)
class PersistenceMetrics:
    """Stable-storage measurements of one execution.

    Only populated when consensus members ran with a
    :class:`~repro.persist.PersistencePlane` attached.  ``recoveries`` counts
    the crash-recovery paths actually taken (``forget()`` with a durable
    store), ``checkpoints``/``compacted_entries`` the log-compaction
    activity, and ``retained_entries`` the *largest* in-memory log suffix
    any member ended with — the number compaction is supposed to bound
    (compare against ``log_length``, the full history length).
    ``journal_bytes`` totals the on-disk journal sizes for file-backed
    stores (``None`` for the in-sim backend)."""

    members: int
    recoveries: int
    checkpoints: int
    compacted_entries: int
    log_length: int
    retained_entries: int
    store_appends: int
    store_snapshots: int
    journal_bytes: Optional[int] = None

    def compaction_ratio(self) -> float:
        """Fraction of the history discarded behind snapshots (0 = nothing)."""
        if self.log_length <= 0:
            return 0.0
        return self.compacted_entries / self.log_length

    def describe(self) -> str:
        base = (
            f"persistence: members={self.members} recoveries={self.recoveries} "
            f"checkpoints={self.checkpoints} compacted={self.compacted_entries} "
            f"retained={self.retained_entries}/{self.log_length}"
        )
        if self.journal_bytes is not None:
            base += f" journal_bytes={self.journal_bytes}"
        return base

    def as_dict(self) -> Dict[str, Any]:
        return {
            "persistent_members": self.members,
            "recoveries": self.recoveries,
            "checkpoints": self.checkpoints,
            "compacted_entries": self.compacted_entries,
            "log_length": self.log_length,
            "retained_entries": self.retained_entries,
            "compaction_ratio": round(self.compaction_ratio(), 4),
            "store_appends": self.store_appends,
            "store_snapshots": self.store_snapshots,
            "journal_bytes": self.journal_bytes,
        }


@dataclass
class ExperimentMetrics:
    """Aggregated measurements of one protocol execution."""

    protocol: str
    transactions: Tuple[TransactionMetrics, ...]
    read_rounds: AggregateStats
    read_latency_steps: AggregateStats
    read_messages: AggregateStats
    read_versions: AggregateStats
    write_latency_steps: AggregateStats
    write_messages: AggregateStats
    total_messages: int
    total_steps: int
    #: populated only for runs with a fault plane installed
    faults: Optional[FaultMetrics] = None
    #: populated only for runs with replication_factor > 1
    replication: Optional[ReplicationMetrics] = None
    #: populated only for runs with consensus_factor > 1
    consensus: Optional[ConsensusMetrics] = None
    #: populated only for runs built with a reconfiguration plan
    reconfig: Optional[ReconfigMetrics] = None
    #: populated only for runs with a persistence plane attached
    persistence: Optional[PersistenceMetrics] = None

    def reads(self) -> Tuple[TransactionMetrics, ...]:
        return tuple(t for t in self.transactions if t.kind == "read")

    def writes(self) -> Tuple[TransactionMetrics, ...]:
        return tuple(t for t in self.transactions if t.kind == "write")

    def max_read_rounds(self) -> int:
        return int(self.read_rounds.maximum) if self.read_rounds.count else 0

    def max_versions(self) -> Optional[int]:
        """Versions in the largest READ reply; ``None`` when some READ's count
        is unknown (its replies left a partial trace's window)."""
        if any(t.versions is None for t in self.reads()):
            return None
        return int(self.read_versions.maximum) if self.read_versions.count else 1

    def describe(self) -> str:
        lines = [
            f"metrics[{self.protocol}]: {len(self.reads())} reads, {len(self.writes())} writes, "
            f"{self.total_messages} messages, {self.total_steps} steps",
            f"  read rounds   : {self.read_rounds.describe()}",
            f"  read latency  : {self.read_latency_steps.describe()}",
            f"  read messages : {self.read_messages.describe()}",
            f"  read versions : {self.read_versions.describe()}",
            f"  write latency : {self.write_latency_steps.describe()}",
        ]
        if self.faults is not None:
            lines.append("  " + self.faults.describe())
        if self.replication is not None:
            lines.append("  " + self.replication.describe())
        if self.consensus is not None:
            lines.append("  " + self.consensus.describe())
        if self.reconfig is not None:
            lines.append("  " + self.reconfig.describe())
        if self.persistence is not None:
            lines.append("  " + self.persistence.describe())
        return "\n".join(lines)


def _collect_fault_metrics(simulation: Simulation) -> Optional[FaultMetrics]:
    """Build the availability/fault block when a fault injector is installed."""
    from ..faults.injector import FaultInjector

    plane = getattr(simulation, "fault_plane", None)
    if not isinstance(plane, FaultInjector):
        return None
    records = simulation.transaction_records()
    reads = [r for r in records if isinstance(r.txn, ReadTransaction)]
    writes = [r for r in records if not isinstance(r.txn, ReadTransaction)]
    stats = plane.stats
    read_vlat = [r.latency_virtual() for r in reads if r.latency_virtual() is not None]
    write_vlat = [r.latency_virtual() for r in writes if r.latency_virtual() is not None]
    return FaultMetrics(
        plan=plane.plan.name or "faults",
        submitted=len(records),
        completed=sum(1 for r in records if r.complete),
        read_submitted=len(reads),
        read_completed=sum(1 for r in reads if r.complete),
        write_submitted=len(writes),
        write_completed=sum(1 for r in writes if r.complete),
        messages_dropped=stats.dropped,
        messages_duplicated=stats.duplicated,
        duplicates_suppressed=stats.duplicates_suppressed,
        retransmissions=stats.retransmissions,
        held_by_partition=stats.held_by_partition,
        held_by_crash=stats.held_by_crash,
        abandoned_messages=stats.abandoned,
        crashes=stats.crashes,
        recoveries=stats.recoveries,
        read_latency_virtual=AggregateStats.from_values(read_vlat),
        write_latency_virtual=AggregateStats.from_values(write_vlat),
    )


def _collect_replication_metrics(
    simulation: Simulation, placement, quorum_policy
) -> Optional[ReplicationMetrics]:
    """Build the replication block for a non-trivial placement."""
    if placement is None or quorum_policy is None or placement.is_trivial():
        return None
    factor = placement.replication_factor
    replies = [
        record.annotations["quorum_replies"]
        for record in simulation.transaction_records()
        if isinstance(record.txn, ReadTransaction) and "quorum_replies" in record.annotations
    ]
    return ReplicationMetrics(
        replication_factor=factor,
        quorum=quorum_policy.describe(),
        read_quorum=quorum_policy.read_quorum(factor),
        write_quorum=quorum_policy.write_quorum(factor),
        num_replica_servers=len(placement.servers()),
        read_quorum_replies=AggregateStats.from_values(replies),
    )


def _registry(simulation: Simulation):
    """The run's metrics registry: the live plane's when it had one, else
    the same registry replayed from the retained trace (one walk, shared by
    every block through :meth:`Trace.derived`; refuses a partial trace).

    Which internal action counts as what is decided in one place only —
    :meth:`repro.obs.ObservabilityPlane.on_action`.
    """
    plane = getattr(simulation, "obs", None)
    if plane is not None:
        return plane.registry
    from ..obs.plane import derive_registry

    return simulation.trace.derived(derive_registry)


def _collect_consensus_metrics(simulation: Simulation) -> Optional[ConsensusMetrics]:
    """Build the consensus block when a replicated coordinator is registered."""
    group = getattr(simulation.topology, "consensus_group", lambda: ())()
    if not group:
        return None
    registry = _registry(simulation)
    return ConsensusMetrics(
        members=len(group),
        elections=registry.counter_value("consensus.events", kind="candidacy"),
        leaders_elected=registry.counter_value("consensus.events", kind="became-leader"),
        max_term=max(1, int(registry.gauge_value("consensus.max_term") or 1)),
        entries_applied=registry.counter_value("consensus.events", kind="apply"),
        commit_latency=AggregateStats.from_values(
            [int(v) for v in registry.histogram_values("consensus.commit_latency")]
        ),
        leader_elected_at=tuple(
            int(v) for v in registry.histogram_values("consensus.leader_elected_vtime")
        ),
        lease_acquisitions=registry.counter_value("consensus.events", kind="lease-acquired"),
        lease_renewals=registry.counter_value("consensus.events", kind="lease-renewed"),
        lease_expiries=registry.counter_value("consensus.events", kind="lease-expired"),
        local_reads=registry.counter_value("consensus.events", kind="local-read"),
        read_applies=registry.counter_value("consensus.read_applies"),
        lease_read_latency=AggregateStats.from_values(
            [int(v) for v in registry.histogram_values("consensus.lease_read_latency")]
        ),
    )


def _collect_reconfig_metrics(simulation: Simulation, directory) -> Optional[ReconfigMetrics]:
    """Build the reconfiguration block from the shared placement directory."""
    if directory is None:
        return None
    joints = sum(1 for t in directory.transitions if t["kind"] == "joint-begin")
    commits = sum(1 for t in directory.transitions if t["kind"] == "commit")
    # The longest span any one transaction was blocked behind epoch retries:
    # from its first retry to its response (or to the final clock if it never
    # responded; to its last retry when no virtual clock was recorded).
    window = 0
    first_retry: Dict[str, int] = {}
    last_retry: Dict[str, int] = {}
    for txn, vtime in directory.retries:
        first_retry.setdefault(txn, vtime)
        last_retry[txn] = vtime
    records = {str(r.txn_id): r for r in simulation.transaction_records()}
    for txn, started in first_retry.items():
        record = records.get(txn)
        if record is not None and record.respond_vtime is not None:
            span = record.respond_vtime - started
        elif record is not None and not record.complete:
            span = simulation.now() - started
        else:
            span = last_retry[txn] - started + 1
        window = max(window, span)
    return ReconfigMetrics(
        epochs=directory.epoch,
        reconfigs_completed=commits,
        joint_windows=joints,
        transfer_versions=directory.transfer_volume(),
        epoch_retries=len(directory.retries),
        unavailability_window=window,
        retired_servers=len(directory.retired),
    )


def _collect_persistence_metrics(simulation: Simulation) -> Optional[PersistenceMetrics]:
    """Build the persistence block when members carry durable stores."""
    group = getattr(simulation.topology, "consensus_group", lambda: ())()
    members = [simulation.automaton(name) for name in group]
    members = [m for m in members if m.stable_store.durable]
    if not members:
        return None
    stores = [m.stable_store for m in members]
    journal_bytes = None
    file_stores = [s for s in stores if getattr(s, "backend", "") == "file"]
    if file_stores:
        journal_bytes = sum(
            s.path.stat().st_size for s in file_stores if s.path.exists()
        )
    return PersistenceMetrics(
        members=len(members),
        recoveries=sum(m.recoveries for m in members),
        checkpoints=sum(m.checkpoints for m in members),
        compacted_entries=sum(m.log.compacted_entries for m in members),
        log_length=max(m.log.last_index for m in members),
        retained_entries=max(len(m.log.entries) for m in members),
        store_appends=sum(s.appends for s in stores),
        store_snapshots=sum(s.snapshots for s in stores),
        journal_bytes=journal_bytes,
    )


def collect_metrics(
    simulation: Simulation,
    protocol_name: str = "",
    placement=None,
    quorum_policy=None,
    directory=None,
) -> ExperimentMetrics:
    """Aggregate per-transaction measurements from a finished simulation.

    ``placement`` / ``quorum_policy`` (optional) enable the replication
    block; ``directory`` (optional) the reconfiguration block; pass them
    from the built system's handle.

    Cost: one pass over the transaction records; a READ's versions are a
    lookup in the trace's :class:`~repro.core.traffic.TrafficIndex`, built
    here on first use and reused by ``check_snow``.
    """
    # looked up per call, not per module: a test serves it from a reference walker
    from ..core.snow import versions_in_replies

    trace = simulation.trace
    # a READ's versions are read off the trace's replies: ``None`` on a partial
    # trace, where they may have left the window and "no reply seen" would
    # read as one version
    full = trace.is_full()
    servers = frozenset(simulation.servers())
    transactions: List[TransactionMetrics] = []
    total_messages = 0
    for record in simulation.transaction_records():
        txn_id = str(record.txn_id)
        if isinstance(record.txn, ReadTransaction):
            kind = "read"
            versions = versions_in_replies(trace, txn_id, record.client, servers)[0] if full else None
        else:
            kind, versions = "write", 1
        total_messages += record.messages_sent
        invoke, respond, annotations = record.invoke_index, record.respond_index, record.annotations
        transactions.append(
            TransactionMetrics(
                txn_id,
                kind,
                record.client,
                record.rounds,
                record.messages_sent,
                None if invoke is None or respond is None else respond - invoke,  # record.latency_steps(), inline
                versions,
                tuple(sorted(annotations.items())) if annotations else (),
            )
        )

    reads = [t for t in transactions if t.kind == "read"]
    writes = [t for t in transactions if t.kind == "write"]
    return ExperimentMetrics(
        protocol=protocol_name,
        transactions=tuple(transactions),
        read_rounds=AggregateStats.from_values([t.rounds for t in reads]),
        read_latency_steps=AggregateStats.from_values(
            [t.latency_steps for t in reads if t.latency_steps is not None]
        ),
        read_messages=AggregateStats.from_values([t.messages_sent for t in reads]),
        read_versions=AggregateStats.from_values([t.versions for t in reads if t.versions is not None]),
        write_latency_steps=AggregateStats.from_values(
            [t.latency_steps for t in writes if t.latency_steps is not None]
        ),
        write_messages=AggregateStats.from_values([t.messages_sent for t in writes]),
        total_messages=total_messages,
        total_steps=simulation.steps_taken,
        faults=_collect_fault_metrics(simulation),
        replication=_collect_replication_metrics(simulation, placement, quorum_policy),
        consensus=_collect_consensus_metrics(simulation),
        reconfig=_collect_reconfig_metrics(simulation, directory),
        persistence=_collect_persistence_metrics(simulation),
    )
