"""The perf-trajectory rule of ``benchmarks/check_bench_regression.py``."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

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
