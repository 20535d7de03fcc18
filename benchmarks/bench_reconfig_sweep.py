"""Extension experiment: the reconfiguration grid — membership change live.

The reconfiguration layer (:mod:`repro.consensus.reconfig`) turns membership
change into a joint-consensus mid-run event: replica groups (and the
consensus group) move to a new configuration through a ``C_old,new`` window
in which every quorum must hold in both configurations, added replicas sync
state before the change commits, and retired replicas answer
``epoch-mismatch`` until the kernel removes them.  This benchmark measures
what that buys: every reconfig-capable protocol runs the same workload at
``replication_factor=3`` + majority, fault-free, with a dead replica being
replaced mid-run, and with a group growing rf 3 → 5 — and reports per cell
the SNOW verdict, availability, epochs, transfer volume, epoch retries and
the unavailability window.

Two records are emitted: a human-readable table and
``results/BENCH_reconfig.json`` — the machine-readable ``protocol ×
scenario`` rows tracked across PRs (the reconfiguration sibling of
``BENCH_failover.json``).

A loss-rate axis rides along (ISSUE 10 satellite): the replace-dead-replica
change re-runs under uniform message drop probabilities 0.05 / 0.15 / 0.30,
showing retransmission work growing with the loss rate while the verdict
columns stay put.

Expected shape: *membership change is a non-event* — replace-dead-replica
completes with availability 1.0, zero epoch retries, an unavailability
window of 0 and byte-for-byte the fault-free SNOW verdict; grow-group
transfers every installed version to the new replicas before committing;
the lossy cells keep those verdicts while drops/retransmissions climb
monotonically with the drop probability.
"""

from __future__ import annotations

from repro.analysis import bench_payload, format_table, run_suite, suite_rows
from repro.analysis.sweep import RECONFIG

from benchutil import emit, emit_json

PROTOCOLS = RECONFIG.protocols
SCENARIOS = RECONFIG.axes["scenario"]
#: in growing order of drop probability, as the suite declares them
LOSSY_SCENARIOS = tuple(s for s in SCENARIOS if s.startswith("lossy-replace-"))

HEADERS = [
    "protocol",
    "scenario",
    "SNOW",
    "avail",
    "epochs",
    "transferred",
    "retries",
    "unavail window",
    "dropped",
    "msgs",
]


def regenerate():
    rows = suite_rows(run_suite(RECONFIG))
    table_rows = [
        [
            row["protocol"],
            row["scenario"],
            row["snow"],
            f"{row['availability']:.2f}",
            row.get("epochs", "-"),
            row.get("transfer_versions", "-"),
            row.get("epoch_retries", "-"),
            row.get("unavailability_window", "-"),
            row.get("messages_dropped", "-"),
            row["total_messages"],
        ]
        for row in rows
    ]
    table = format_table(
        HEADERS,
        table_rows,
        title="Reconfiguration grid: membership change as a mid-run experiment",
    )
    return rows, table


def test_reconfig_sweep(benchmark):
    rows, table = benchmark(regenerate)
    emit("reconfig_sweep", table)
    emit_json(RECONFIG.name, bench_payload(RECONFIG, rows))

    cells = {(r["protocol"], r["scenario"]): r for r in rows}
    assert len(rows) == len(PROTOCOLS) * len(SCENARIOS) and len(LOSSY_SCENARIOS) == 3

    for protocol in PROTOCOLS:
        baseline = cells[(protocol, "none")]
        assert baseline["availability"] == 1.0

        # Replace-dead-replica: the headline acceptance numbers — full
        # availability, a measured unavailability window of 0, and the
        # fault-free SNOW / consistency verdicts riding through unchanged.
        replaced = cells[(protocol, "replace-dead-replica")]
        assert replaced["availability"] == 1.0, protocol
        assert replaced["unavailability_window"] == 0, protocol
        assert replaced["snow"] == baseline["snow"], protocol
        assert replaced["consistent"] is True, protocol
        assert replaced["reconfigs_completed"] == 1
        assert replaced["epochs"] == 2  # one joint entry + one commit
        assert replaced["retired_servers"] == 1
        assert replaced["transfer_versions"] >= 1  # the new replica synced

        # Grow-group: fault-free growth, state transferred before commit.
        grown = cells[(protocol, "grow-group")]
        assert grown["availability"] == 1.0, protocol
        assert grown["snow"] == baseline["snow"], protocol
        assert grown["consistent"] is True, protocol
        assert grown["retired_servers"] == 0
        assert grown["transfer_versions"] >= 2  # two added replicas synced

        # The loss-rate axis: retransmission work grows with the drop
        # probability while the replace-dead-replica verdicts ride through.
        dropped = []
        for scenario in LOSSY_SCENARIOS:
            lossy = cells[(protocol, scenario)]
            assert lossy["availability"] == 1.0, (protocol, scenario)
            assert lossy["snow"] == baseline["snow"], (protocol, scenario)
            assert lossy["consistent"] is True, (protocol, scenario)
            assert lossy["reconfigs_completed"] == 1, (protocol, scenario)
            assert lossy["retransmissions"] == lossy["messages_dropped"], (
                protocol,
                scenario,
            )
            dropped.append(lossy["messages_dropped"])
        assert dropped == sorted(dropped), (protocol, dropped)
        assert dropped[0] > 0, protocol
