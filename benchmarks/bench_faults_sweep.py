"""Extension experiment: the chaos grid — protocols × fault scenarios.

The paper proves what SNOW protocols guarantee on *reliable* asynchronous
channels; a deployed system (an Eiger-style store under TAO-like read traffic)
lives instead with latency tails, packet loss, duplication, server crashes and
network partitions.  This benchmark plays the same read-heavy workload through
every protocol under every standard fault scenario
(``repro.faults.scenarios``) **plus the partition grid** — partition placement
(client↔shard vs shard↔shard) × partition duration — and reports, per cell:
the measured SNOW verdict, the CAP-style pair availability
(completed/submitted) and consistency (did S survive), latency-under-fault
for the reads that did complete, and the retransmission traffic the transport
retry layer needed.

Two records are emitted: a human-readable table next to the other regenerated
figures, and ``results/BENCH_faults.json`` — stable machine-readable rows so
the availability/consistency trajectory is tracked across PRs.

Expected shape: the fault-free column reproduces the reliable-kernel numbers;
latency degrades under slow/tail-latency/lossy networks while availability
stays 1.0 (retry heals fair loss); the fail-stop scenario costs availability
on every protocol that must touch the dead shard; healed partitions cost only
latency (the transport parks and redelivers), with longer durations costing
more.
"""

from __future__ import annotations

from repro.analysis import bench_payload, format_table, run_suite, suite_rows
from repro.analysis.sweep import FAULTS, PARTITION_DURATIONS

from benchutil import emit, emit_json

PROTOCOLS = FAULTS.protocols

HEADERS = [
    "protocol",
    "scenario",
    "SNOW",
    "avail",
    "consistent",
    "read vlat (mean)",
    "read vlat (p95)",
    "retransmits",
    "dropped",
    "msgs",
]


def regenerate():
    rows = suite_rows(run_suite(FAULTS))
    table_rows = [
        [
            row["protocol"],
            row["scenario"],
            row["snow"],
            f"{row['availability']:.2f}",
            {True: "yes", False: "NO", None: "-"}[row.get("consistent")],
            row.get("read_latency_virtual_mean"),
            row.get("read_latency_virtual_p95"),
            row.get("retransmissions", 0),
            row.get("messages_dropped", 0),
            row["total_messages"],
        ]
        for row in rows
    ]
    table = format_table(
        HEADERS, table_rows, title="Chaos grid: SNOW verdicts, availability and latency under faults"
    )
    return rows, table


def test_faults_sweep(benchmark):
    rows, table = benchmark(regenerate)
    emit("faults_sweep", table)
    emit_json(FAULTS.name, bench_payload(FAULTS, rows))

    cells = {(row["protocol"], row["scenario"]): row for row in rows}
    scenario_names = {row["scenario"] for row in rows}
    # The acceptance grid: >= 3 protocols x >= 4 fault scenarios, all run to the end.
    assert len(PROTOCOLS) >= 3 and len(scenario_names) >= 5
    assert len(rows) == len(PROTOCOLS) * len(scenario_names)

    partition_scenarios = sorted(n for n in scenario_names if n.startswith("partition-"))
    assert len(partition_scenarios) == 2 * len(PARTITION_DURATIONS)

    for protocol in PROTOCOLS:
        # Fault-free and heal-able scenarios lose nothing.
        for scenario in ("none", "slow-network", "tail-latency", "lossy", "dup-happy", "crash-recover"):
            assert cells[(protocol, scenario)]["availability"] == 1.0, (protocol, scenario)
        # Healed partitions (both placements, both durations) also lose
        # nothing: the transport parks blocked messages and redelivers at
        # the heal — the CAP cost shows up in latency, not availability.
        for scenario in partition_scenarios:
            assert cells[(protocol, scenario)]["availability"] == 1.0, (protocol, scenario)
            assert cells[(protocol, scenario)]["partition_duration"] in PARTITION_DURATIONS
        # The lossy network needed the retry layer.
        assert cells[(protocol, "lossy")]["retransmissions"] > 0
        # A dead shard costs availability: reads spanning it can never finish.
        assert cells[(protocol, "fail-stop")]["availability"] < 1.0

    # Latency under a slow network degrades relative to the fault-free column
    # for every protocol — measured on the virtual clock, the only clock that
    # can see the latency model's delays.
    for protocol in PROTOCOLS:
        slow = cells[(protocol, "slow-network")]["read_latency_virtual_mean"]
        baseline = cells[(protocol, "none")]["read_latency_virtual_mean"]
        assert slow > baseline, (protocol, slow, baseline)

    # A longer client↔shard outage delays completions at least as much as a
    # shorter one (virtual-clock latency is monotone in partition duration).
    for protocol in PROTOCOLS:
        short = cells[(protocol, f"partition-client-shard-d{PARTITION_DURATIONS[0]}")]
        long = cells[(protocol, f"partition-client-shard-d{PARTITION_DURATIONS[-1]}")]
        assert long["read_latency_virtual_p95"] >= short["read_latency_virtual_p95"], protocol
