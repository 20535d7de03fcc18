"""Extension experiment: the replication grid — replication factor × fault.

The placement layer (:mod:`repro.txn.placement`) replaces the paper's
one-server-per-object assumption with replica groups and quorum policies;
this benchmark measures what that buys.  Every protocol runs the same
workload at replication factors 1, 2 and 3 (majority quorums for N ≥ 2),
fault-free and with a fail-stop crash of one replica of the first object
mid-run, and reports per cell: the SNOW verdict, availability, the quorum
sizes and how many replies each READ actually collected.

Two records are emitted: a human-readable table and
``results/BENCH_replication.json`` — the machine-readable
``replication_factor × fault scenario`` rows tracked across PRs (the
replicated sibling of ``BENCH_faults.json``).

Expected shape: at factor 1 the crash zeroes availability for every protocol
that must touch the dead copy (it is the only copy); at factor 3 with
majority quorums the crash column matches the fault-free column — same SNOW
verdict, availability 1.0 — which is precisely "SNOW verdicts measured
*through* a replica outage" from the roadmap.
"""

from __future__ import annotations

from repro.analysis import bench_payload, format_table, run_suite, suite_rows
from repro.analysis.sweep import REPLICATION

from benchutil import emit, emit_json

PROTOCOLS = REPLICATION.protocols
FACTORS = REPLICATION.axes["replication_factor"]

HEADERS = [
    "protocol",
    "rf",
    "scenario",
    "SNOW",
    "avail",
    "read avail",
    "R/W quorum",
    "replies (mean)",
    "msgs",
]


def regenerate():
    rows = suite_rows(run_suite(REPLICATION))
    table_rows = [
        [
            row["protocol"],
            row["replication_factor"],
            row["scenario"],
            row["snow"],
            f"{row['availability']:.2f}",
            f"{row['read_availability']:.2f}" if "read_availability" in row else "-",
            f"{row['read_quorum']}/{row['write_quorum']}" if "read_quorum" in row else "1/1",
            row.get("read_quorum_replies_mean", "-"),
            row["total_messages"],
        ]
        for row in rows
    ]
    table = format_table(
        HEADERS,
        table_rows,
        title="Replication grid: SNOW verdicts and availability across replication factors",
    )
    return rows, table


def test_replication_sweep(benchmark):
    rows, table = benchmark(regenerate)
    emit("replication_sweep", table)
    emit_json(REPLICATION.name, {**bench_payload(REPLICATION, rows), "factors": list(FACTORS)})

    cells = {(r["protocol"], r["replication_factor"], r["scenario"]): r for r in rows}
    assert len(rows) == len(PROTOCOLS) * len(FACTORS) * 2

    for protocol in PROTOCOLS:
        # Fault-free cells are fully available at every factor, same verdict.
        verdicts = {cells[(protocol, f, "none")]["snow"] for f in FACTORS}
        assert len(verdicts) == 1, (protocol, verdicts)
        for factor in FACTORS:
            assert cells[(protocol, factor, "none")]["availability"] == 1.0

        # Factor 1: the crashed replica was the only copy — availability lost.
        assert cells[(protocol, 1, "crash-replica")]["availability"] < 1.0, protocol

        # Factor 3 + majority: the outage is absorbed by the quorum — full
        # availability and the *same* SNOW verdict as the fault-free run.
        crashed = cells[(protocol, 3, "crash-replica")]
        baseline = cells[(protocol, 3, "none")]
        assert crashed["availability"] == 1.0, protocol
        assert crashed["snow"] == baseline["snow"], protocol
        assert crashed["consistent"] is True, protocol

        # Quorum accounting is present and sane on replicated cells.
        assert crashed["read_quorum"] == 2 and crashed["write_quorum"] == 2
        assert crashed["read_quorum_replies_mean"] is not None
