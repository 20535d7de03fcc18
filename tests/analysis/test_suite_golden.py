"""The committed tables are what the code produces.

Every filed suite is deterministic per seed, so its committed
``benchmarks/results/BENCH_<name>.json`` is a golden: regenerating the rows
must reproduce the file's payload exactly.  This is the exact half of the
bench gate (ROADMAP item 1(c): deterministic columns are gated for
equality); ``benchmarks/check_bench_regression.py`` keeps the row-identity
half.  A PR that moves a column on purpose reruns
``python -m repro.analysis NAME`` and commits the new file.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import GRID_SUITES, bench_payload, run_suite, suite_rows

RESULTS = Path(__file__).resolve().parents[2] / "benchmarks" / "results"


@pytest.mark.parametrize("suite", GRID_SUITES, ids=lambda suite: suite.name)
def test_committed_grid_is_what_the_suite_produces(suite):
    committed = json.loads((RESULTS / f"BENCH_{suite.name}.json").read_text(encoding="utf-8"))
    rows = suite_rows(run_suite(suite))
    assert json.loads(json.dumps(bench_payload(suite, rows))) == committed
