"""Regenerate the filed suites: ``python -m repro.analysis [NAME ...]``.

Each named suite of :data:`~repro.analysis.sweep.GRID_SUITES` (no name: every
one) is run, written to ``benchmarks/results/BENCH_<name>.json``, printed as
a table and checked against its ``expect`` claims.  The exit status is 1 when
a claim fails, with every failed label named, and 2 for an unknown name.  The
results directory is the one beside this checkout's ``src/``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Sequence

from .report import format_table
from .sweep import GRID_SUITES, bench_payload, check, run_suite, suite_rows

RESULTS = Path(__file__).resolve().parents[3] / "benchmarks" / "results"


def main(names: Sequence[str], results: Path = RESULTS) -> int:
    suites = {suite.name: suite for suite in GRID_SUITES}
    unknown = [name for name in names if name not in suites]
    if unknown:
        print(f"unknown suite {', '.join(unknown)}; filed suites: {', '.join(suites)}", file=sys.stderr)
        return 2
    failed: List[str] = []
    for name in names or suites:
        suite = suites[name]
        rows = suite_rows(run_suite(suite))
        path = results / f"BENCH_{name}.json"
        path.write_text(json.dumps(bench_payload(suite, rows), indent=2, sort_keys=True) + "\n", encoding="utf-8")
        headers = list(dict.fromkeys(column for row in rows for column in row))
        print(format_table(headers, [[row.get(column) for column in headers] for row in rows], title=str(path)))
        print()
        failed += [f"{name}: {label}" for label in check(suite, rows)]
    for failure in failed:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
