"""The perf benchmark's ``chaos`` cell, run in-process.

``benchmarks/perf/workloads.py`` is imported, not copied: the cell built here
is the one ``BENCHMARK.json`` measures (B at rf=3/cf=3, leases, persistence,
``ChaosScheduler``, the ``chaos_plan`` fault schedule, monitors + health).
``generate_workload`` numbers its transactions per call, so the trace
signature does not depend on what ran earlier in the process.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path
from typing import Any, Dict

from repro.faults import FaultInjector

PERF_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "perf"
if str(PERF_DIR) not in sys.path:
    sys.path.insert(0, str(PERF_DIR))

import workloads  # noqa: E402  (benchmarks/perf/workloads.py)


def signature_hash(handle) -> str:
    return hashlib.sha256(repr(handle.trace().signature()).encode("utf-8")).hexdigest()


def run_chaos_cell(seed: int, scale: int, injector_cls=FaultInjector):
    """Build, load and run the ``chaos`` cell to idle; returns the handle."""

    class _Parts(workloads.Parts):
        def injector(self, plan, seed):
            return injector_cls(plan, seed=seed)

    workload = workloads.WORKLOADS["chaos"]
    (cell,) = workload.cells
    handle = workloads.build_cell(workload, cell, seed, scale, _Parts())
    workloads.load_cell(handle, cell, seed, scale)
    handle.run()
    return handle


def observable_outcome(handle) -> Dict[str, Any]:
    """Everything a speed-only change to the fault/obs planes must preserve."""
    simulation = handle.simulation
    return {
        "signature": signature_hash(handle),
        "fault_stats": simulation.fault_plane.stats.as_dict(),
        "alerts": len(simulation.obs.monitors.alerts),
        "registry": simulation.obs.registry.snapshot(),
    }
