#!/usr/bin/env python3
"""Bench-regression gate: diff regenerated BENCH_*.json against HEAD.

The tiny-grid CI job reruns every sweep (they are deterministic per seed),
which rewrites ``benchmarks/results/BENCH_*.json`` in the working tree.
This script then compares each row's **invariant columns** — availability,
the SNOW verdict string, the consistency verdict and the unavailability
window — against the version committed at ``HEAD`` and fails the build when
any of them regressed:

* ``availability`` may not decrease;
* ``snow`` must be identical;
* ``consistent`` may not degrade from ``True``;
* ``unavailability_window`` may not increase.

Wall-clock columns get a **bounded-drift** rule instead of an invariant:
``events_per_sec`` in ``BENCH_throughput.json`` may fluctuate with the
machine, but falling below ``DRIFT_FLOOR`` × the committed baseline fails
the gate — runner variance passes, an order-of-magnitude kernel slowdown
does not.  Latency columns drift the other way: ``lease_read_latency_mean``
in ``BENCH_lease.json`` may move with intentional protocol changes, but
climbing above ``1/DRIFT_FLOOR`` × the committed baseline fails the gate —
the read fast path quietly degenerating back into the commit path is a
regression even when every verdict column still passes.

``BENCH_perf.json`` (the per-PR trajectory of ``benchmarks/perf``) gets one
rule of its own, checked on the working-tree file alone: the simulated
end-to-end columns (latency in steps, rounds, messages and events per
transaction, completed share) are exact at a fixed seed, so within one
workload every row measured at the same seed must carry identical values —
a PR that only claims speed and moved one of them did not only change speed
(ROADMAP item 1(c): deterministic cost columns are gated for equality).

Rows are matched on their identity columns (protocol / scenario / plan /
factors; PR / workload / seed in the perf trajectory).  A row present at HEAD
but missing from the regenerated grid is a failure too — a silently dropped
cell hides regressions.  Brand-new files and brand-new rows pass (they have
no baseline yet); a changed value in a non-invariant column (latency means,
message counts) is reported but does not fail the gate.

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

#: columns identifying one grid cell (whichever subset a row carries)
IDENTITY = (
    "protocol",
    "scenario",
    "plan",
    "replication_factor",
    "consensus_factor",
    "quorum",
    "persistence",
    "leases",
    # the perf trajectory (BENCH_perf.json): one row per PR, workload and seed
    "pr",
    "workload",
    "seed",
)
#: the gated columns and their comparison direction
INVARIANTS: Tuple[Tuple[str, str], ...] = (
    ("availability", "not-below"),
    ("snow", "equal"),
    ("consistent", "not-degraded"),
    ("unavailability_window", "not-above"),
)
#: wall-clock columns gated per file: new >= DRIFT_FLOOR * baseline.  The
#: floor is deliberately loose — CI runners differ from the machines that
#: committed the baselines; this catches collapses, not noise.
DRIFT_FLOOR = 0.25
DRIFT_COLUMNS: Dict[str, Tuple[str, ...]] = {
    "BENCH_throughput.json": ("events_per_sec",),
    "BENCH_obs.json": ("events_per_sec",),
}
#: latency columns gated the other way round: lower is better, so the gate
#: is a ceiling — new <= baseline / DRIFT_FLOOR.  Guards the lease read
#: fast path: its latency creeping back up toward the commit path fails
#: the build even though no verdict column moved.
DRIFT_CEILING_COLUMNS: Dict[str, Tuple[str, ...]] = {
    "BENCH_lease.json": ("lease_read_latency_mean",),
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


def row_key(row: Dict[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    return tuple((field, row[field]) for field in IDENTITY if field in row)


def index_rows(payload: Dict[str, Any]) -> Dict[Tuple, Dict[str, Any]]:
    rows = payload.get("grid", [])
    indexed: Dict[Tuple, Dict[str, Any]] = {}
    for row in rows:
        indexed[row_key(row)] = row
    return indexed


def compare_cell(
    old: Dict[str, Any],
    new: Dict[str, Any],
    drift_columns: Tuple[str, ...] = (),
    ceiling_columns: Tuple[str, ...] = (),
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
    for column in ceiling_columns:
        before, after = old.get(column), new.get(column)
        if not isinstance(before, (int, float)) or before <= 0:
            continue
        if not isinstance(after, (int, float)) or after > before / DRIFT_FLOOR:
            problems.append(
                f"{column}: {before!r} -> {after!r} "
                f"(above the {1 / DRIFT_FLOOR:.0f}x drift ceiling)"
            )
    for column, rule in INVARIANTS:
        if column not in old:
            continue
        before, after = old.get(column), new.get(column)
        if rule == "equal" and after != before:
            problems.append(f"{column}: {before!r} -> {after!r}")
        elif rule == "not-below" and isinstance(before, (int, float)):
            if not isinstance(after, (int, float)) or after < before:
                problems.append(f"{column}: {before!r} -> {after!r}")
        elif rule == "not-above" and isinstance(before, (int, float)):
            if not isinstance(after, (int, float)) or after > before:
                problems.append(f"{column}: {before!r} -> {after!r}")
        elif rule == "not-degraded" and before is True and after is not True:
            problems.append(f"{column}: True -> {after!r}")
    return problems


def main() -> int:
    failures: List[str] = []
    checked = 0
    for path in sorted(RESULTS.glob("BENCH_*.json")):
        current = json.loads(path.read_text(encoding="utf-8"))
        if path.name == "BENCH_perf.json":
            failures.extend(f"{path.name} {problem}" for problem in simulated_column_drift(current))
        baseline = committed_version(path)
        if baseline is None:
            print(f"[bench-regression] {path.name}: new file, no baseline — skipped")
            continue
        old_rows = index_rows(baseline)
        new_rows = index_rows(current)
        drift_columns = DRIFT_COLUMNS.get(path.name, ())
        ceiling_columns = DRIFT_CEILING_COLUMNS.get(path.name, ())
        for key, old_row in old_rows.items():
            checked += 1
            label = f"{path.name} {dict(key)}"
            new_row = new_rows.get(key)
            if new_row is None:
                failures.append(f"{label}: row disappeared from the regenerated grid")
                continue
            for problem in compare_cell(old_row, new_row, drift_columns, ceiling_columns):
                failures.append(f"{label}: {problem}")
        extra = set(new_rows) - set(old_rows)
        for key in sorted(extra):
            print(f"[bench-regression] {path.name}: new row {dict(key)} (no baseline)")
    print(f"[bench-regression] checked {checked} baseline rows")
    if failures:
        print("\n[bench-regression] REGRESSIONS:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("[bench-regression] ok — no invariant or drift-gated column regressed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
