"""The row-identity and perf-trajectory rules of ``benchmarks/check_bench_regression.py``."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"
_spec = importlib.util.spec_from_file_location("check_bench_regression", BENCHMARKS / "check_bench_regression.py")
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def row(pr, workload="chaos", **columns):
    simulated = dict.fromkeys(gate.SIMULATED_COLUMNS, 1.0)
    return {"pr": pr, "workload": workload, "txns_per_s": 100.0 * pr, **simulated, **columns}


def test_rows_of_one_workload_and_seed_must_agree_on_simulated_columns():
    payload = {"seed": 17, "grid": [row(11), row(12), row(13, msgs_per_txn=9.5)]}
    (problem,) = gate.simulated_column_drift(payload)
    assert "'chaos' seed 17" in problem and "msgs_per_txn" in problem
    assert "1.0 at PR 11" in problem and "9.5 at PR 13" in problem


def test_a_rows_parent_measurement_is_held_to_the_same_values():
    payload = {"seed": 17, "grid": [row(13, parent=row(12, events_per_txn=21.5))]}
    (problem,) = gate.simulated_column_drift(payload)
    assert "events_per_txn" in problem and "PR 13's parent" in problem


def test_host_columns_workloads_and_seeds_are_independent():
    payload = {
        "seed": 17,
        "grid": [
            row(12),
            row(13, txns_per_s=5.0),  # host columns may move
            row(13, workload="verify", events_per_txn=6.0),  # another workload
            row(13, seed=3, read_latency_steps_p95=224),  # another seed
        ],
    }
    assert gate.simulated_column_drift(payload) == []


def test_the_committed_trajectory_is_exact():
    payload = json.loads((BENCHMARKS / "results" / "BENCH_perf.json").read_text(encoding="utf-8"))
    assert gate.simulated_column_drift(payload) == []
    assert {r["pr"] for r in payload["grid"]} >= {11, 12, 13}


def measured(**host):
    return {"setup_s": 0.2, "txns_per_s": 5000.0, "experiment_s": 3.0, "peak_rss_mb": 80.0, **host}


def test_a_row_slower_than_its_parent_beyond_the_benchmark_bound_is_caught():
    bounds = gate.host_bounds()
    spec = json.loads((BENCHMARKS.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert bounds == {
        m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"] if m["name"] not in gate.SIMULATED_COLUMNS
    }
    assert set(bounds) == {"setup_s", "txns_per_s", "experiment_s", "peak_rss_mb"}
    bound = bounds["txns_per_s"][1]

    def payload(**host):
        return {"seed": 17, "grid": [row(16, **measured(**host), parent=row(15, **measured()))]}

    assert gate.host_column_regressions(payload(), bounds) == []
    # better, or worse within the bound: passes
    inside = payload(txns_per_s=5000.0 * (1 - bound) + 1, experiment_s=2.0, peak_rss_mb=80.0 * 1.1)
    assert gate.host_column_regressions(inside, bounds) == []
    # the doctored row: throughput down and memory up beyond their bounds
    (slow, fat) = gate.host_column_regressions(
        payload(txns_per_s=5000.0 * (1 - bound) - 1, peak_rss_mb=80.0 * (1 + bounds["peak_rss_mb"][1]) + 1), bounds
    )
    assert "txns_per_s" in slow and "PR 16 workload 'chaos' seed 17" in slow and "higher is better" in slow
    assert "peak_rss_mb" in fat and "lower is better" in fat
    # lower-is-better seconds
    (late,) = gate.host_column_regressions(payload(setup_s=0.2 * (1 + bounds["setup_s"][1]) + 0.01), bounds)
    assert "setup_s" in late
    # rows without a parent block (PR 11, 12) have nothing to be held to
    assert gate.host_column_regressions({"grid": [row(11, **measured(txns_per_s=1.0))]}, bounds) == []


def test_no_committed_row_is_slower_than_its_parent_beyond_the_bound():
    payload = json.loads((BENCHMARKS / "results" / "BENCH_perf.json").read_text(encoding="utf-8"))
    assert gate.host_column_regressions(payload, gate.host_bounds()) == []
    assert sum("parent" in r for r in payload["grid"]) >= 6


def test_rows_are_indexed_by_the_axes_the_payload_declares():
    payload = {
        "axes": ["protocol", "leases"],
        "grid": [
            {"protocol": "algorithm-b", "leases": "none", "availability": 1.0},
            {"protocol": "algorithm-b", "leases": "leased", "availability": 0.5},
        ],
    }
    indexed = gate.index_rows(payload, "BENCH_x.json")
    assert len(indexed) == 2
    key = (("protocol", "algorithm-b"), ("leases", "leased"))
    assert indexed[key]["availability"] == 0.5


def test_an_axis_a_row_omits_takes_the_payloads_value():
    payload = {"axes": ["workload", "seed"], "seed": 17, "grid": [row(13), row(13, seed=3)]}
    assert set(gate.index_rows(payload, "BENCH_perf.json")) == {
        (("workload", "chaos"), ("seed", 17)),
        (("workload", "chaos"), ("seed", 3)),
    }


def test_a_payload_without_axes_fails_loudly():
    with pytest.raises(ValueError, match="BENCH_x.json declares no 'axes'"):
        gate.index_rows({"grid": [{"protocol": "algorithm-b"}]}, "BENCH_x.json")


def test_two_rows_with_one_identity_fail_loudly():
    """A suite that gained an axis its file does not declare: last-write-wins
    would keep one row and hide whichever of the two regressed."""
    payload = {
        "axes": ["protocol", "scenario"],
        "grid": [
            {"protocol": "algorithm-b", "scenario": "none", "leases": "none"},
            {"protocol": "algorithm-b", "scenario": "none", "leases": "leased"},
        ],
    }
    with pytest.raises(ValueError, match="two rows share the identity.*'scenario': 'none'"):
        gate.index_rows(payload, "BENCH_x.json")


def test_every_committed_file_declares_a_unique_identity():
    files = sorted((BENCHMARKS / "results").glob("BENCH_*.json"))
    # the seven sweep goldens and the perf trajectory
    assert [path.name for path in files] == [
        "BENCH_controller.json",
        "BENCH_failover.json",
        "BENCH_faults.json",
        "BENCH_lease.json",
        "BENCH_perf.json",
        "BENCH_persist.json",
        "BENCH_reconfig.json",
        "BENCH_replication.json",
    ]
    for path in files:
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert len(gate.index_rows(payload, path.name)) == len(payload["grid"]), path.name


def keys_of(node):
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from keys_of(value)
    elif isinstance(node, list):
        for value in node:
            yield from keys_of(value)


def test_only_the_perf_trajectory_records_wall_clock_time():
    """A sweep file holds simulated columns and counts, so regenerating it
    gives the same bytes; wall-clock time is recorded in BENCH_perf.json."""
    sweeps = sorted(set((BENCHMARKS / "results").glob("BENCH_*.json")) - {BENCHMARKS / "results" / "BENCH_perf.json"})
    assert len(sweeps) == 7
    for path in sweeps:
        payload = json.loads(path.read_text(encoding="utf-8"))
        timed = [key for key in keys_of(payload) if key.endswith(("seconds", "_s"))]
        assert timed == [], path.name
    persist = json.loads((BENCHMARKS / "results" / "BENCH_persist.json").read_text(encoding="utf-8"))
    assert persist["recovery"]["recoveries"] >= persist["recovery"]["rounds"]
