"""The seed's per-transaction trace walkers, kept verbatim as the test oracle.

Until PR 12 these were :mod:`repro.core.snow`'s implementation: every question
about one READ transaction re-walked the whole trace (quadratic over a run).
``src/`` now answers from :class:`repro.core.traffic.TrafficIndex`; these
walkers define what the answers must be.  ``tests/core/test_traffic_index.py``
compares the two on every registered protocol.  Do not optimise this file.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.snow import ReadTransactionReport, SnowReport
from repro.ioa.actions import ActionKind
from repro.ioa.simulation import Simulation, TransactionRecord
from repro.ioa.trace import Trace, TraceError
from repro.txn.history import History
from repro.txn.transactions import ReadTransaction

from tests.core.reference_serializability import check_strict_serializability


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
    offenders: List[str] = []
    group_set = frozenset(consensus_group)
    server_set = set(servers)
    for server in servers:
        if server in group_set:
            continue
        projection = tuple(a for a in trace if a.actor == server)  # the seed's Trace.project
        for position, action in enumerate(projection):
            if action.kind != ActionKind.RECV or action.message is None:
                continue
            message = action.message
            if message.src != reader or message.get("txn") != txn_id:
                continue
            if message.get("repair"):
                continue
            reply_position: Optional[int] = None
            blocked = False
            for later_position in range(position + 1, len(projection)):
                later = projection[later_position]
                if (
                    later.kind == ActionKind.SEND
                    and later.message is not None
                    and later.message.dst == reader
                    and later.message.get("txn") == txn_id
                ):
                    reply_position = later_position
                    break
                if later.kind == ActionKind.RECV:
                    blocked = True
            if reply_position is None or blocked:
                offenders.append(server)
                break
    if group_set:
        requested = replied = False
        for action in trace:
            if action.kind != ActionKind.SEND or action.message is None:
                continue
            message = action.message
            if message.get("txn") != txn_id:
                continue
            if message.src == reader and message.dst in group_set:
                requested = True
            elif message.src in group_set and message.dst == reader:
                replied = True
        if requested and not replied:
            offenders.extend(sorted(group_set))
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
    counts: Dict[str, int] = {}
    for action in trace:
        if action.kind != ActionKind.SEND or action.message is None:
            continue
        message = action.message
        if message.src != reader or message.dst not in servers:
            continue
        if message.get("txn") != txn_id or message.get("repair"):
            continue
        counts[message.dst] = counts.get(message.dst, 0) + 1
    return counts


def versions_in_replies(
    trace: Trace,
    txn_id: str,
    reader: str,
    servers: Sequence[str],
) -> Tuple[int, int]:
    """``(max_versions, replies_seen)`` over server replies for this transaction."""
    max_versions = 0
    replies = 0
    for action in trace:
        if action.kind != ActionKind.SEND or action.message is None:
            continue
        message = action.message
        if message.src not in servers or message.dst != reader:
            continue
        if message.get("txn") != txn_id:
            continue
        replies += 1
        max_versions = max(max_versions, int(message.get("num_versions", 1)))
    return (max_versions if replies else 1), replies


# ----------------------------------------------------------------------
# Aggregate check
# ----------------------------------------------------------------------
def analyze_read_transaction(
    simulation: Simulation,
    record: TransactionRecord,
) -> ReadTransactionReport:
    """Build the per-READ report for one transaction record."""
    servers = simulation.servers()
    trace = simulation.trace
    reader = record.client
    txn_id = str(record.txn_id)
    consensus_group = getattr(simulation.topology, "consensus_group", lambda: ())()
    offenders = blocking_servers_for(trace, txn_id, reader, servers, consensus_group)
    trips = round_trips_per_server(trace, txn_id, reader, servers)
    max_versions, replies = versions_in_replies(trace, txn_id, reader, servers)
    return ReadTransactionReport(
        txn_id=txn_id,
        reader=reader,
        non_blocking=not offenders,
        blocking_servers=offenders,
        rounds=record.rounds,
        round_trips_per_server=trips,
        max_versions_in_reply=max_versions,
        replies_seen=replies,
        completed=record.complete,
    )


def check_snow(
    simulation: Simulation,
    history: Optional[History] = None,
    objects: Optional[Sequence[str]] = None,
) -> SnowReport:
    """Run every SNOW property checker against a finished simulation.

    Needs a full-mode trace: the N and O checkers walk per-message
    ``SEND``/``RECV`` records, and a ``sampled``/``ring`` trace retains only
    some of them — the verdict would be *wrong* (phantom blocking servers,
    zero replies seen), not merely incomplete, so a partial record is
    refused loudly, mirroring :meth:`Trace.prefix`.
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
    serializability = check_strict_serializability(history.restricted_to_complete())

    # W ------------------------------------------------------------------
    write_entries = history.writes()
    writes_complete = all(entry.complete for entry in write_entries)
    if not writes_complete:
        incomplete = [e.txn_id for e in write_entries if not e.complete]
        notes.append("incomplete WRITE transactions: " + ", ".join(incomplete))
    conflicting = False
    for read_entry in history.reads():
        for write_entry in write_entries:
            if not write_entry.complete or not read_entry.complete:
                continue
            if read_entry.overlaps(write_entry) and set(read_entry.txn.objects) & set(write_entry.txn.objects):
                conflicting = True
                break
        if conflicting:
            break

    # N and O --------------------------------------------------------------
    read_reports: List[ReadTransactionReport] = []
    for record in simulation.transaction_records():
        if isinstance(record.txn, ReadTransaction) and record.complete:
            read_reports.append(analyze_read_transaction(simulation, record))

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
