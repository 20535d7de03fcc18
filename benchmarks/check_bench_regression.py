#!/usr/bin/env python3
"""Bench-regression gate: diff regenerated BENCH_*.json against HEAD.

The bench-smoke CI job reruns the sweep and throughput scripts, which
rewrites ``benchmarks/results/BENCH_*.json`` in the working tree; this script
then compares each file with the version committed at ``HEAD``.

The gate has two halves, and this script is the **wall-clock** one:

* *Exact columns live in tier-1.*  The seven sweep files are deterministic
  per seed, so ``tests/analysis/test_suite_golden.py`` pins every column of
  their ``grid`` arrays to the committed files for equality — which implies
  the directional rules this script used to apply to them (availability not
  below, same SNOW verdict, consistency not degraded, unavailability window
  and lease read latency not above).
* *Wall-clock columns live here*, under a **bounded-drift** rule:
  ``events_per_sec`` in ``BENCH_throughput.json`` and ``BENCH_obs.json`` may
  fluctuate with the machine, but falling below ``DRIFT_FLOOR`` × the
  committed baseline fails the gate — runner variance passes, an
  order-of-magnitude kernel slowdown does not.

Two more rules apply to every file.  Rows are matched on the identity
columns the file itself declares under ``axes`` (an axis a row does not
carry takes the payload's top-level value, e.g. the perf trajectory's
``seed``); a payload without ``axes``, or two rows with one identity, fail
loudly — a hand-kept identity list that misses a new axis would collapse
rows and hide whichever regressed.  And a row present at HEAD but missing
from the regenerated grid is a failure too — a silently dropped cell hides
regressions.  Brand-new files and brand-new rows pass (they have no baseline
yet).

``BENCH_perf.json`` (the per-PR trajectory of ``benchmarks/perf``) gets one
rule of its own, checked on the working-tree file alone: the simulated
end-to-end columns (latency in steps, rounds, messages and events per
transaction, completed share) are exact at a fixed seed, so within one
workload every row measured at the same seed must carry identical values —
a PR that only claims speed and moved one of them did not only change speed
(ROADMAP item 1(c): deterministic cost columns are gated for equality).
And committed evidence is a gate on speed too: a row that carries a
``parent`` block (the parent commit as re-measured in the same alternating
campaign) fails when one of its host columns — the end-to-end metrics of
``BENCHMARK.json`` that are not simulated: ``setup_s``, ``txns_per_s``,
``experiment_s``, ``peak_rss_mb`` — is worse than the parent's by more than
that metric's ``bound`` there.

Usage: ``python benchmarks/check_bench_regression.py`` from the repo root
(or anywhere inside the repository — paths are derived from this file).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"

#: wall-clock columns gated per file: new >= DRIFT_FLOOR * baseline.  The
#: floor is deliberately loose — CI runners differ from the machines that
#: committed the baselines; this catches collapses, not noise.
DRIFT_FLOOR = 0.25
DRIFT_COLUMNS: Dict[str, Tuple[str, ...]] = {
    "BENCH_throughput.json": ("events_per_sec",),
    "BENCH_obs.json": ("events_per_sec",),
}


#: BENCH_perf.json columns that repeat exactly under a fixed seed
SIMULATED_COLUMNS = (
    "read_latency_steps_p50",
    "read_latency_steps_p95",
    "write_latency_steps_p50",
    "read_rounds_max",
    "msgs_per_txn",
    "events_per_txn",
    "completed_share",
)


def simulated_column_drift(payload: Dict[str, Any]) -> List[str]:
    """Measurements of one workload and seed that disagree on a simulated column.

    A row's seed is its own ``seed`` column, else the file's; a row's
    ``parent`` (the parent commit as re-measured beside it) is held to the
    same values."""
    first: Dict[Tuple[Any, Any], Tuple[str, Dict[str, Any]]] = {}
    problems: List[str] = []
    for row in payload.get("grid", []):
        cell = (row.get("workload"), row.get("seed", payload.get("seed")))
        pr = f"PR {row.get('pr')}"
        for label, measured in ((pr, row), (f"{pr}'s parent", row.get("parent"))):
            if measured is None:
                continue
            pinned_label, pinned = first.setdefault(cell, (label, measured))
            for column in SIMULATED_COLUMNS:
                if measured.get(column) != pinned.get(column):
                    problems.append(
                        f"workload {cell[0]!r} seed {cell[1]}: {column} is {pinned.get(column)!r} "
                        f"at {pinned_label} but {measured.get(column)!r} at {label}"
                    )
    return problems


def host_bounds() -> Dict[str, Tuple[str, float]]:
    """``column -> (better, bound)`` for the host-clock end-to-end metrics,
    as ``BENCHMARK.json`` declares them."""
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        metric["name"]: (metric["better"], metric["bound"])
        for metric in spec["end_to_end"]
        if metric["name"] not in SIMULATED_COLUMNS
    }


def host_column_regressions(
    payload: Dict[str, Any], bounds: Dict[str, Tuple[str, float]]
) -> List[str]:
    """Rows whose host columns are worse than their own ``parent`` block's by
    more than the metric's bound (relative to the parent's value)."""
    problems: List[str] = []
    for row in payload.get("grid", []):
        parent = row.get("parent")
        if parent is None:
            continue
        for column, (better, bound) in bounds.items():
            before, after = parent.get(column), row.get(column)
            if not isinstance(before, (int, float)) or not isinstance(after, (int, float)) or before <= 0:
                continue
            worse = (after - before) / before if better == "lower" else (before - after) / before
            if worse > bound:
                problems.append(
                    f"PR {row.get('pr')} workload {row.get('workload')!r} seed "
                    f"{row.get('seed', payload.get('seed'))}: {column} {before!r} -> {after!r} is "
                    f"{worse:.0%} worse than its parent ({better} is better, bound {bound:.0%})"
                )
    return problems


def committed_version(path: Path) -> Optional[Dict[str, Any]]:
    """The file's content at HEAD, or None when it is new there."""
    rel = path.relative_to(REPO_ROOT).as_posix()
    proc = subprocess.run(
        ["git", "show", f"HEAD:{rel}"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout)


def index_rows(payload: Dict[str, Any], name: str) -> Dict[Tuple, Dict[str, Any]]:
    """The payload's ``grid`` rows by their identity: the values of the
    columns the payload declares under ``axes``."""
    try:
        axes = payload["axes"]
    except KeyError:
        raise ValueError(
            f"{name} declares no 'axes': the gate cannot tell its rows apart "
            "(a suite file gets them from bench_payload(); any other script "
            "lists its grid's identity columns)"
        ) from None
    indexed: Dict[Tuple, Dict[str, Any]] = {}
    for row in payload.get("grid", []):
        key = tuple((axis, row.get(axis, payload.get(axis))) for axis in axes)
        if key in indexed:
            raise ValueError(
                f"{name}: two rows share the identity {dict(key)} — an axis "
                "is missing from the file's 'axes'"
            )
        indexed[key] = row
    return indexed


def compare_cell(
    old: Dict[str, Any], new: Dict[str, Any], drift_columns: Tuple[str, ...] = ()
) -> List[str]:
    problems: List[str] = []
    for column in drift_columns:
        before, after = old.get(column), new.get(column)
        if not isinstance(before, (int, float)) or before <= 0:
            continue
        if not isinstance(after, (int, float)) or after < DRIFT_FLOOR * before:
            problems.append(
                f"{column}: {before!r} -> {after!r} "
                f"(below the {DRIFT_FLOOR:.0%} drift floor)"
            )
    return problems


def main() -> int:
    failures: List[str] = []
    checked = 0
    for path in sorted(RESULTS.glob("BENCH_*.json")):
        current = json.loads(path.read_text(encoding="utf-8"))
        if path.name == "BENCH_perf.json":
            failures.extend(f"{path.name} {problem}" for problem in simulated_column_drift(current))
            failures.extend(
                f"{path.name} {problem}" for problem in host_column_regressions(current, host_bounds())
            )
        try:
            new_rows = index_rows(current, path.name)
            baseline = committed_version(path)
            if baseline is None:
                print(f"[bench-regression] {path.name}: new file, no baseline — skipped")
                continue
            old_rows = index_rows(baseline, f"{path.name} at HEAD")
        except ValueError as error:
            failures.append(str(error))
            continue
        drift_columns = DRIFT_COLUMNS.get(path.name, ())
        for key, old_row in old_rows.items():
            checked += 1
            label = f"{path.name} {dict(key)}"
            new_row = new_rows.get(key)
            if new_row is None:
                failures.append(f"{label}: row disappeared from the regenerated grid")
                continue
            for problem in compare_cell(old_row, new_row, drift_columns):
                failures.append(f"{label}: {problem}")
        for key in new_rows:
            if key not in old_rows:
                print(f"[bench-regression] {path.name}: new row {dict(key)} (no baseline)")
    print(f"[bench-regression] checked {checked} baseline rows")
    if failures:
        print("\n[bench-regression] REGRESSIONS:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("[bench-regression] ok — no row disappeared, no drift-gated column regressed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
