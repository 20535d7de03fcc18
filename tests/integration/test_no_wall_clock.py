"""No module of the library reads a wall clock.

The paper measures latency in rounds and steps, and so does every column the
library computes: virtual time, step counts, message counts.  Wall-clock time
measures the simulator, not the simulated system, and is measured in one
place, outside the library: the perf harness (``benchmarks/perf/run.py``,
with ``--seconds S --trace 1`` for the per-layer table and ``--cprofile``
for functions).
This walks the syntax tree of every module under ``src/repro`` and fails on
an import of :mod:`time` or a reference to one of its clocks.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: the clock readers of :mod:`time`
CLOCKS = {
    "perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns",
    "process_time", "process_time_ns", "time", "time_ns", "thread_time", "thread_time_ns",
}


def wall_clock_reads(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (f"import {alias.name}" for alias in node.names if alias.name == "time")
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            yield f"from time import {', '.join(alias.name for alias in node.names)}"
        elif isinstance(node, ast.Attribute) and node.attr in CLOCKS:
            if isinstance(node.value, ast.Name) and node.value.id == "time":
                yield f"time.{node.attr}"
        elif isinstance(node, ast.Name) and node.id in CLOCKS - {"time"}:
            yield node.id


def test_no_module_reads_a_wall_clock():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 60
    found = {}
    for path in modules:
        reads = list(wall_clock_reads(ast.parse(path.read_text(encoding="utf-8"))))
        if reads:
            found[str(path.relative_to(SRC))] = reads
    assert found == {}


def test_the_kernel_profiler_is_gone():
    from repro.analysis import ExperimentConfig
    from repro.obs import ObservabilityPlane
    from repro.protocols import get_protocol

    with pytest.raises(ImportError):
        from repro.obs import KernelProfiler  # noqa: F401
    with pytest.raises(TypeError):
        ObservabilityPlane(profile=True)
    with pytest.raises(TypeError):
        ExperimentConfig(protocol="algorithm-b", profile=True)
    handle = get_protocol("algorithm-b").build()
    assert not hasattr(handle.simulation, "_profiler")


def test_the_walk_sees_each_way_of_reading_a_clock():
    source = "import time\nfrom time import perf_counter\nt = time.monotonic() + perf_counter()\n"
    assert list(wall_clock_reads(ast.parse(source))) == [
        "import time", "from time import perf_counter", "time.monotonic", "perf_counter",
    ]
