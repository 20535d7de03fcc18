"""Does an event cost the same with 4 clients as with 256?

Plain OCC and replicated B (rf=3/cf=3, leases, persistence, ring trace), built
through ``benchmarks/perf/workloads.py`` (imported unchanged), at 2x{2, 8, 32,
128} closed-loop clients, ~4800 transactions each, FIFO.  Per size: host
microseconds per kernel event (best of 3 ``handle.run()``s) and, from a fourth
run stepped by hand, the mean number of pending events per step.  The last line
is one JSON object.  Report only: these cells are not benchmark workloads (none
has more than 6 clients), the figures are wall-clock on whatever machine runs
them, and nothing gates on them - the regression gate is
``check_bench_regression.py``.  They are here because the layer table cannot
show this cost: the traced child wraps its scheduler and so keeps the list path.

    python3 benchmarks/frontier_probe.py
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "perf")]

import workloads  # noqa: E402  (benchmarks/perf/workloads.py)

STACKS = {"plain-occ": ("paper-core", "occ-double-collect"), "replicated-b": ("replicated-stack", "algorithm-b")}
CLIENTS_PER_SIDE = (2, 8, 32, 128)
TXNS, SEED = 4800, 17


def loaded(stack: str, per_side: int):
    """A built and loaded cell: ``per_side`` readers and as many writers."""
    name, protocol = STACKS[stack]
    workload = workloads.WORKLOADS[name]
    each = TXNS // (2 * per_side)
    cell = replace(
        workload.cells[0], protocol=protocol, readers=per_side, writers=per_side,
        reads=each, writes=each, max_steps=10_000_000,
    )
    handle = workloads.build_cell(workload, cell, SEED, 1, workloads.Parts())
    workloads.load_cell(handle, cell, SEED, 1)
    return handle


def probe(stack: str, per_side: int) -> dict:
    runs = []
    for _ in range(3):
        handle = loaded(stack, per_side)
        start = perf_counter()
        handle.run()
        runs.append(perf_counter() - start)
    simulation = loaded(stack, per_side).simulation
    pending = 0
    while True:
        size = len(simulation.pending_events())
        if not simulation.step():
            break
        pending += size
    events = simulation.steps_taken
    assert events == handle.simulation.steps_taken and not handle.simulation.incomplete_transactions()
    return {
        "clients": 2 * per_side, "txns": len(handle.transaction_records()), "events": events,
        "us_per_event": round(min(runs) / events * 1e6, 2), "pending_mean": round(pending / events, 1),
    }


def main() -> None:
    results = {}
    print(f"{'stack':<14}{'clients':>8}{'txns':>7}{'events':>9}{'us/event':>10}{'pending':>9}")
    for stack in STACKS:
        rows = [probe(stack, per_side) for per_side in CLIENTS_PER_SIDE]
        for row in rows:
            print(f"{stack:<14}{row['clients']:>8}{row['txns']:>7}{row['events']:>9}{row['us_per_event']:>10}{row['pending_mean']:>9}")
        ratio = round(rows[-1]["us_per_event"] / rows[0]["us_per_event"], 2)
        print(f"{stack:<14}{rows[-1]['clients']} clients / {rows[0]['clients']} clients = {ratio}x")
        results[stack] = {"sizes": rows, "ratio": ratio}
    print(json.dumps(results))


if __name__ == "__main__":
    main()
