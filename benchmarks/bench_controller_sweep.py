"""Extension experiment: the self-healing grid — the controller closes the loop.

The rebalancing controller (:mod:`repro.consensus.controller`) derives
membership changes from observed state instead of executing hand-authored
plans: liveness probes on the virtual clock, a relative (sibling-witness)
failure detector, and derived ``ReconfigRequest``\\ s submitted to the
joint-consensus driver.  This benchmark measures the whole loop per protocol
family at ``replication_factor=3`` + majority: a fault-free cell (the
controller must derive *nothing*) next to ``auto-heal-dead-replica`` — the
last replica of the first object's group fail-stops with **no ReconfigPlan
anywhere**, and the controller must detect it and restore full group
strength on its own.

Two records are emitted: a human-readable table and
``results/BENCH_controller.json`` — the machine-readable ``protocol ×
scenario`` rows tracked across PRs (the self-healing sibling of
``BENCH_reconfig.json``).

Expected shape: *self-healing is a non-event* — every family completes with
availability 1.0, exactly one detection and one derived replacement, an
unavailability window of 0, convergence to the replaced group, and
byte-for-byte the fault-free SNOW / consistency verdicts of its own
baseline.  The s2pl baseline is absent by design: its lock rounds block on
a fail-stopped replica (giving up N is its defining property).
"""

from __future__ import annotations

from repro.analysis import bench_payload, format_table, run_suite, suite_rows
from repro.analysis.sweep import CONTROLLER

from benchutil import emit, emit_json

PROTOCOLS = CONTROLLER.protocols

HEADERS = [
    "protocol",
    "scenario",
    "SNOW",
    "avail",
    "dead",
    "plans",
    "healed",
    "time-to-heal",
    "unavail window",
    "msgs",
]


def regenerate():
    rows = suite_rows(run_suite(CONTROLLER))
    table_rows = [
        [
            row["protocol"],
            row["scenario"],
            row["snow"],
            f"{row['availability']:.2f}",
            row.get("dead_detected", "-"),
            row.get("plans_replace", 0) + row.get("plans_grow", 0),
            row.get("healed", "-"),
            row.get("time_to_heal") if row.get("time_to_heal") is not None else "-",
            row.get("unavailability_window", "-"),
            row["total_messages"],
        ]
        for row in rows
    ]
    table = format_table(
        HEADERS,
        table_rows,
        title="Self-healing grid: the controller replaces dead replicas autonomously",
    )
    return rows, table


def test_controller_sweep(benchmark):
    rows, table = benchmark(regenerate)
    emit("controller_sweep", table)
    emit_json(CONTROLLER.name, bench_payload(CONTROLLER, rows))

    cells = {(r["protocol"], r["scenario"]): r for r in rows}
    assert len(rows) == len(PROTOCOLS) * 2

    for protocol in PROTOCOLS:
        # Fault-free: the controller observes but derives nothing.
        baseline = cells[(protocol, "none")]
        assert baseline["availability"] == 1.0, protocol
        assert baseline["dead_detected"] == 0, protocol
        assert baseline["plans_replace"] == 0 and baseline["plans_grow"] == 0, protocol
        assert baseline["probes"] > 0, protocol

        # Auto-heal: the headline acceptance numbers — the dead replica is
        # detected and replaced with no hand-authored plan, at availability
        # 1.0, a measured unavailability window of 0, and the fault-free
        # SNOW / consistency verdicts riding through unchanged.
        healed = cells[(protocol, "auto-heal-dead-replica")]
        assert healed["availability"] == 1.0, protocol
        assert healed["dead_detected"] == 1, protocol
        assert healed["plans_replace"] == 1, protocol
        assert healed["healed"] == 1 and healed["converged"], protocol
        assert healed["unavailability_window"] == 0, protocol
        assert healed["time_to_heal"] is not None and healed["time_to_heal"] > 0, protocol
        assert healed["epochs"] == 2, protocol  # one joint entry + one commit
        assert healed["retired_servers"] == 1, protocol
        assert healed["transfer_versions"] >= 1, protocol  # the replacement synced
        assert healed["snow"] == baseline["snow"], protocol
        assert healed["consistent"] == baseline["consistent"], protocol
