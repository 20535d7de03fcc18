"""Checkers for the N, O and W properties of SNOW (Definitions 2.1-2.3).

These checkers work on the *trace* of a finished simulation plus its
transaction history, so they apply uniformly to every protocol in
:mod:`repro.protocols` (including the blocking / multi-round baselines, which
is how the latency comparison benchmarks quantify exactly which property each
baseline gives up).

Conventions the protocol implementations follow (and the checkers rely on):

* every message that belongs to a transaction carries a ``txn`` payload field
  with the transaction id;
* every server reply to a read request carries a ``num_versions`` payload
  field stating how many versions of the object value the reply contains
  (1 for algorithms A and B, up to ``|Vals|`` for algorithm C).

The S property has its own module (:mod:`repro.core.serializability`).

Cost: the N and O questions about *all* transactions are answered from one
pass over the trace — the :class:`~repro.core.traffic.TrafficIndex`, built on
first use and cached on the trace — so :func:`blocking_servers_for`,
:func:`round_trips_per_server` and :func:`versions_in_replies` are lookups
proportional to the transaction's own messages, and :func:`check_snow` is
linear in the trace plus one serializability search per ``History`` object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..ioa.simulation import Simulation, TransactionRecord
from ..ioa.trace import Trace, TraceError
from ..txn.history import History
from ..txn.transactions import ReadTransaction
from .serializability import SerializabilityResult, check_strict_serializability
from .traffic import TrafficIndex, traffic_index


# ----------------------------------------------------------------------
# Per-read-transaction report
# ----------------------------------------------------------------------
@dataclass
class ReadTransactionReport:
    """SNOW-relevant measurements of a single READ transaction."""

    txn_id: str
    reader: str
    non_blocking: bool
    blocking_servers: Tuple[str, ...]
    rounds: int
    round_trips_per_server: Dict[str, int] = field(default_factory=dict)
    max_versions_in_reply: int = 1
    replies_seen: int = 0
    completed: bool = True

    @property
    def one_round(self) -> bool:
        """O's one-round half: each read is a single client↔server round trip."""
        return self.rounds <= 1 and all(count <= 1 for count in self.round_trips_per_server.values())

    @property
    def one_version(self) -> bool:
        """O's one-version half: every reply carries exactly one version."""
        return self.max_versions_in_reply <= 1

    @property
    def satisfies_o(self) -> bool:
        return self.one_round and self.one_version

    def describe(self) -> str:
        return (
            f"{self.txn_id}: non_blocking={self.non_blocking} rounds={self.rounds} "
            f"max_versions={self.max_versions_in_reply} one_round={self.one_round} "
            f"one_version={self.one_version}"
        )


@dataclass
class SnowReport:
    """Aggregate SNOW verdict for one execution of one protocol."""

    strict_serializable: bool
    non_blocking: bool
    one_round: bool
    one_version: bool
    writes_complete: bool
    conflicting_writes_present: bool
    read_reports: Tuple[ReadTransactionReport, ...] = ()
    serializability: Optional[SerializabilityResult] = None
    notes: Tuple[str, ...] = ()

    @property
    def satisfies_s(self) -> bool:
        return self.strict_serializable

    @property
    def satisfies_n(self) -> bool:
        return self.non_blocking

    @property
    def satisfies_o(self) -> bool:
        return self.one_round and self.one_version

    @property
    def satisfies_w(self) -> bool:
        return self.writes_complete

    @property
    def satisfies_snow(self) -> bool:
        return self.satisfies_s and self.satisfies_n and self.satisfies_o and self.satisfies_w

    @property
    def satisfies_snw(self) -> bool:
        """S + N + W (the bounded-latency family of Sections 8-9)."""
        return self.satisfies_s and self.satisfies_n and self.satisfies_w

    def max_rounds(self) -> int:
        return max((r.rounds for r in self.read_reports), default=0)

    def max_versions(self) -> int:
        return max((r.max_versions_in_reply for r in self.read_reports), default=1)

    def property_string(self) -> str:
        """Compact ``SNOW``-style string, lowercase for missing properties."""
        return "".join(
            [
                "S" if self.satisfies_s else "s",
                "N" if self.satisfies_n else "n",
                "O" if self.satisfies_o else "o",
                "W" if self.satisfies_w else "w",
            ]
        )

    def describe(self) -> str:
        lines = [
            f"SNOW report: {self.property_string()} "
            f"(rounds<= {self.max_rounds()}, versions<= {self.max_versions()})"
        ]
        for report in self.read_reports:
            lines.append("  " + report.describe())
        for note in self.notes:
            lines.append("  note: " + note)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# N property
# ----------------------------------------------------------------------
def blocking_servers_for(
    trace: Trace,
    txn_id: str,
    reader: str,
    servers: Sequence[str],
    consensus_group: Sequence[str] = (),
) -> Tuple[str, ...]:
    """Servers that violated non-blocking for the given READ transaction.

    For each server we locate every receipt of a request from ``reader``
    tagged with ``txn`` and the server's next reply back to ``reader`` with
    the same tag; if any *input* action (another message receipt) occurs at
    the server strictly between the two, the server blocked — it needed
    external input before it could answer (Definition 2.1 requires the
    response to be enabled with no intervening input action).

    A request that never gets a reply also counts as blocking (the server is
    waiting for something) unless the transaction never completed at all, in
    which case the caller decides how to treat it.

    Read-repair installs (payload ``repair=True``) are maintenance traffic a
    finished quorum round emits toward stale replicas — fire-and-forget by
    design, not part of the read algorithm's request/reply protocol — so
    they neither open a reply obligation here nor count as round trips in
    :func:`round_trips_per_server`.

    **Replicated coordinator extension.**  When the system replicates its
    coordinator (``consensus_group`` non-empty), the group is one *logical*
    metadata server: clients broadcast each request to every member, only the
    leader answers (after a consensus round among the members), and the
    intra-group replication traffic is internal to the service rather than
    input the read waits on.  Definition 2.1's per-activation test therefore
    cannot be applied member-by-member — followers legitimately never reply,
    and the leader's reply necessarily spans activations.  The group-level
    reading of non-blocking is the one the paper's property is about: the
    read never waits on *other transactions* — the consensus round is a
    bounded message exchange inside the service, like the quorum rounds of
    the placement layer.  The check for the group is accordingly: if the
    reader addressed the group, some member must have answered.
    """
    return _offenders(traffic_index(trace), txn_id, reader, servers, frozenset(consensus_group))


def _offenders(
    index: TrafficIndex, txn_id: str, reader: str, servers: Sequence[str], group: FrozenSet[str]
) -> Tuple[str, ...]:
    """:func:`blocking_servers_for` over an already-built index."""
    offenders: List[str] = [
        server for server in servers if server not in group and index.blocked(server, reader, txn_id)
    ]
    if group:
        requested = any(reader in index.answered.get((member, txn_id), ()) for member in group)
        # a message the reader sent itself is a request, never the group's answer
        replied = any(src in group and src != reader for src in index.answered.get((reader, txn_id), ()))
        if requested and not replied:
            offenders.extend(sorted(group))
    return tuple(offenders)


# ----------------------------------------------------------------------
# O property
# ----------------------------------------------------------------------
def round_trips_per_server(
    trace: Trace,
    txn_id: str,
    reader: str,
    servers: Sequence[str],
) -> Dict[str, int]:
    """Number of requests the reader sent to each server for this transaction."""
    return _o_answers(traffic_index(trace), txn_id, reader, servers)[0]


def versions_in_replies(
    trace: Trace,
    txn_id: str,
    reader: str,
    servers: Sequence[str],
) -> Tuple[int, int]:
    """``(max_versions, replies_seen)`` over server replies for this transaction."""
    return _o_answers(traffic_index(trace), txn_id, reader, servers)[1:]


def _o_answers(
    index: TrafficIndex, txn_id: str, reader: str, servers: Collection[str]
) -> Tuple[Dict[str, int], int, int]:
    """:func:`round_trips_per_server` and :func:`versions_in_replies` over an
    already-built index."""
    trips = {dst: count for dst, count in index.sent.get((reader, txn_id), {}).items() if dst in servers}
    max_versions = replies = 0
    for src, (count, versions) in index.answered.get((reader, txn_id), {}).items():
        if src in servers:
            replies += count
            max_versions = max(max_versions, versions)
    return trips, (max_versions if replies else 1), replies


# ----------------------------------------------------------------------
# Aggregate check
# ----------------------------------------------------------------------
def analyze_read_transaction(
    simulation: Simulation,
    record: TransactionRecord,
) -> ReadTransactionReport:
    """Build the per-READ report for one transaction record."""
    servers = simulation.servers()
    return _read_report(
        traffic_index(simulation.trace), record, servers, frozenset(servers), _consensus_group(simulation)
    )


def _consensus_group(simulation: Simulation) -> FrozenSet[str]:
    return frozenset(getattr(simulation.topology, "consensus_group", lambda: ())())


def _read_report(
    index: TrafficIndex,
    record: TransactionRecord,
    servers: Sequence[str],
    server_set: FrozenSet[str],
    group: FrozenSet[str],
) -> ReadTransactionReport:
    """The per-READ report from the run's index, servers and consensus group."""
    reader = record.client
    txn_id = str(record.txn_id)
    offenders = _offenders(index, txn_id, reader, servers, group)
    trips, max_versions, replies = _o_answers(index, txn_id, reader, server_set)
    return ReadTransactionReport(
        txn_id, reader, not offenders, offenders, record.rounds, trips, max_versions, replies, record.complete
    )


def check_snow(
    simulation: Simulation,
    history: Optional[History] = None,
    objects: Optional[Sequence[str]] = None,
) -> SnowReport:
    """Run every SNOW property checker against a finished simulation.

    Needs a full-mode trace: the N and O checkers read per-message
    ``SEND``/``RECV`` records, and a ``ring`` trace retains only the newest
    of them — the verdict would be *wrong* (phantom blocking servers,
    zero replies seen), not merely incomplete, so a partial record is
    refused loudly, mirroring :meth:`Trace.prefix`.

    Cost: N and O are one pass over the trace (shared with
    ``collect_metrics`` through the cached :class:`~repro.core.traffic.TrafficIndex`)
    plus a lookup per READ, with the index, the servers and the consensus
    group resolved once per call; W's conflicting-write probe is O(reads × writes)
    interval comparisons, stopping at the first conflict; S is the verdict of
    ``check_strict_serializability(history)``: one search, kept on ``history``.
    """
    if not simulation.trace.is_full():
        raise TraceError(
            f"check_snow() needs a full-mode trace (this one is "
            f"{simulation.trace.mode.describe()}): the N/O checkers walk "
            "per-message records and a partial record would yield wrong "
            "verdicts, not just incomplete ones"
        )
    if history is None:
        history = History.from_simulation(simulation, objects=objects)

    notes: List[str] = []

    # S ------------------------------------------------------------------
    serializability = check_strict_serializability(history)

    # W ------------------------------------------------------------------
    write_entries = history.writes()
    complete_writes = [(entry, frozenset(entry.txn.objects)) for entry in write_entries if entry.complete]
    writes_complete = len(complete_writes) == len(write_entries)
    if not writes_complete:
        incomplete = [e.txn_id for e in write_entries if not e.complete]
        notes.append("incomplete WRITE transactions: " + ", ".join(incomplete))
    conflicting = False
    for read_entry in history.reads():
        if not read_entry.complete:
            continue
        read_objects = frozenset(read_entry.txn.objects)
        if any(
            read_entry.overlaps(write_entry) and not read_objects.isdisjoint(write_objects)
            for write_entry, write_objects in complete_writes
        ):
            conflicting = True
            break

    # N and O --------------------------------------------------------------
    index = traffic_index(simulation.trace)
    servers = simulation.servers()
    server_set = frozenset(servers)
    group = _consensus_group(simulation)
    read_reports = [
        _read_report(index, record, servers, server_set, group)
        for record in simulation.transaction_records()
        if isinstance(record.txn, ReadTransaction) and record.complete
    ]

    non_blocking = all(r.non_blocking for r in read_reports)
    one_round = all(r.one_round for r in read_reports)
    one_version = all(r.one_version for r in read_reports)

    return SnowReport(
        strict_serializable=serializability.ok,
        non_blocking=non_blocking,
        one_round=one_round,
        one_version=one_version,
        writes_complete=writes_complete,
        conflicting_writes_present=conflicting,
        read_reports=tuple(read_reports),
        serializability=serializability,
        notes=tuple(notes),
    )
