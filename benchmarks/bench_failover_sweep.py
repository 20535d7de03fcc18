"""Extension experiment: the failover grid — consensus factor × leader fate.

The consensus layer (:mod:`repro.consensus`) replicates the coordinator of
algorithms B/C and OCC's timestamp oracle over a Raft-style replicated log;
this benchmark measures what that buys.  Every coordinator-dependent protocol
runs the same workload at consensus factors 1 and 3, fault-free and with a
fail-stop crash of the coordinator's *leader* mid-run, and reports per cell:
the SNOW verdict, availability, the election/term counters and the
commit-latency tax of the consensus rounds.

Two records are emitted: a human-readable table and
``results/BENCH_failover.json`` — the machine-readable
``consensus_factor × scenario`` rows tracked across PRs (the consensus
sibling of ``BENCH_replication.json``).

Expected shape: at factor 1 the leader *is* the single designated server, so
the crash zeroes availability (the seed's single point of failure); at
factor 3 the survivors elect a new leader after a bounded leaderless window —
availability 1.0, at least one election, and byte-for-byte the fault-free
SNOW verdict: "coordinator failover with unchanged verdicts" from the
roadmap, measured.
"""

from __future__ import annotations

from repro.analysis import bench_payload, format_table, run_suite, suite_rows
from repro.analysis.sweep import FAILOVER

from benchutil import emit, emit_json

PROTOCOLS = FAILOVER.protocols
FACTORS = FAILOVER.axes["consensus_factor"]

HEADERS = [
    "protocol",
    "cf",
    "scenario",
    "SNOW",
    "avail",
    "elections",
    "max term",
    "commit lat (mean)",
    "msgs",
]


def regenerate():
    rows = suite_rows(run_suite(FAILOVER))
    table_rows = [
        [
            row["protocol"],
            row["consensus_factor"],
            row["scenario"],
            row["snow"],
            f"{row['availability']:.2f}",
            row.get("elections", "-"),
            row.get("max_term", "-"),
            row.get("commit_latency_mean", "-"),
            row["total_messages"],
        ]
        for row in rows
    ]
    table = format_table(
        HEADERS,
        table_rows,
        title="Failover grid: SNOW verdicts and availability across consensus factors",
    )
    return rows, table


def test_failover_sweep(benchmark):
    rows, table = benchmark(regenerate)
    emit("failover_sweep", table)
    emit_json(FAILOVER.name, {**bench_payload(FAILOVER, rows), "factors": list(FACTORS)})

    cells = {(r["protocol"], r["consensus_factor"], r["scenario"]): r for r in rows}
    assert len(rows) == len(PROTOCOLS) * len(FACTORS) * 2

    for protocol in PROTOCOLS:
        # Fault-free cells are fully available at every factor, and factor 3
        # holds no elections (the bootstrap leader just leads).
        for factor in FACTORS:
            assert cells[(protocol, factor, "none")]["availability"] == 1.0
        assert cells[(protocol, 3, "none")]["elections"] == 0

        # Factor 1: the crashed leader was the single designated coordinator —
        # every coordinator-dependent transaction stalls.
        assert cells[(protocol, 1, "crash-leader")]["availability"] < 1.0, protocol

        # Factor 3: the survivors elect a new leader; full availability and
        # the *same* SNOW verdict as the fault-free run.
        crashed = cells[(protocol, 3, "crash-leader")]
        baseline = cells[(protocol, 3, "none")]
        assert crashed["availability"] == 1.0, protocol
        assert crashed["snow"] == baseline["snow"], protocol
        assert crashed["consistent"] is True, protocol
        assert crashed["leaders_elected"] >= 1, protocol
        assert crashed["max_term"] >= 2, protocol

        # The consensus accounting is present and sane on replicated cells.
        assert crashed["consensus_members"] == 3
        assert crashed["commit_latency_mean"] is not None
