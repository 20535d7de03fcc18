"""Golden pin of the cell the perf benchmark calls ``chaos``.

``golden_perf_chaos.json`` was recorded on the commit *before* the indexed
transport buffer and the held registry instruments (PR 12, ``b320e03``), at
``--smoke`` scale for the benchmark's seed (17) and the seed its claims are
repeated on (3).  A change that only makes the fault and observability planes
faster must reproduce all of it: the trace, every fault counter, zero monitor
alerts, and the registry snapshot instrument for instrument.  The health
report was added later, recorded on the commit before the listeners were made
to pay once per action; the other four keys stayed byte-identical.
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
    assert outcome["health"] == golden["health"]
    assert outcome["signature"] == golden["signature"]


def test_the_plane_counts_every_action_although_the_ring_keeps_the_last_4096():
    """ROADMAP small thread (``collect_metrics`` under a ring, plane on): the
    registry is fed per append, not from the retained records, so its counters
    are exact where the trace has long since dropped what they counted."""
    simulation = run_chaos_cell(17, 10).simulation
    trace, registry = simulation.trace, simulation.obs.registry
    assert trace.total_appended > len(trace) == 4096  # the ring did overflow
    counters = registry.snapshot()["counters"]
    assert registry.counter_total("kernel.events") == trace.total_appended
    assert registry.counter_total("kernel.messages_sent") == counters["kernel.events{kind=send}"]
    # a transaction record counts what its client sent; servers' sends are the rest
    by_clients = sum(counters.get(f"kernel.messages_channel{{channel={c}}}", 0) for c in ("c2s", "c2c"))
    assert by_clients == sum(r.messages_sent for r in simulation.transaction_records()) > 0
    assert registry.counter_total("kernel.messages_channel") == registry.counter_total("kernel.messages_sent")
    # idle: every mailbox is back to empty, the fail-stopped leader's included
    assert not simulation.pending_deliveries()
    depths = registry.snapshot()["gauges"]
    mailboxes = {name: g for name, g in depths.items() if name.startswith("kernel.mailbox_depth{")}
    assert len(mailboxes) == len(simulation.automata())
    assert all(g["value"] == 0 and g["max"] > 0 for g in mailboxes.values())
