"""Golden pin of the cell the perf benchmark calls ``chaos``.

``golden_perf_chaos.json`` was recorded on the commit *before* the indexed
transport buffer and the held registry instruments (PR 12, ``b320e03``), at
``--smoke`` scale for the benchmark's seed (17) and the seed its claims are
repeated on (3).  A change that only makes the fault and observability planes
faster must reproduce all of it: the trace, every fault counter, zero monitor
alerts, and the registry snapshot instrument for instrument.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from tests.faults.perf_chaos_cell import observable_outcome, run_chaos_cell

GOLDEN = json.loads((Path(__file__).parent / "golden_perf_chaos.json").read_text())
SMOKE_SCALE = 20


@pytest.mark.parametrize("seed", (17, 3))
def test_chaos_cell_matches_the_parent_commit(seed):
    outcome = observable_outcome(run_chaos_cell(seed, SMOKE_SCALE))
    golden = GOLDEN[str(seed)]
    assert outcome["alerts"] == golden["alerts"] == 0
    assert outcome["fault_stats"] == golden["fault_stats"]
    assert outcome["registry"] == golden["registry"]
    assert outcome["signature"] == golden["signature"]
