"""Opt-in wall-clock profiling of the kernel hot loop.

The profiler times the three stages of :meth:`Simulation.step` — the fault
plane's ``before_step`` plus the frontier's idle test (``poll``), the
scheduler's ``pick`` (``choose``: for a policy that answers through
``choose(pending, kernel)`` this includes materialising the pending list) and
executing the chosen event (``dispatch``) — plus every ``trace_append``
(installed as an instance-level wrapper around the trace's retained-record
path, so the bucket also covers the metrics observer riding on retained
appends; records dropped by a sampling trace mode bypass it).

Wall-clock numbers are **measurement of the simulator, not of the simulated
system**: they never appear in traces, metric snapshots, span trees or any
exported artifact the determinism tests compare.  The report is a separate,
explicitly wall-clock surface for ROADMAP item 2's "profile the kernel hot
path" work and for ``benchmarks/bench_throughput.py``.
"""

from __future__ import annotations

import weakref
from time import perf_counter
from typing import Any, Dict, List, Tuple


class KernelProfiler:
    """Accumulates (count, seconds) per named bucket."""

    def __init__(self) -> None:
        self._buckets: Dict[str, List[float]] = {}

    def add(self, bucket: str, seconds: float) -> None:
        entry = self._buckets.get(bucket)
        if entry is None:
            entry = self._buckets[bucket] = [0, 0.0]
        entry[0] += 1
        entry[1] += seconds

    def install(self, simulation: Any) -> None:
        """Wrap the trace's retained-record path with a timing shim.

        The shim goes on ``Trace._store`` — the stamp-and-keep step — rather
        than on ``append``: under a sampling trace mode, dropped records
        never reach ``_store``, so the bucket measures the record-keeping a
        run actually performed (and its count stays ``len(trace)`` in every
        mode)."""
        trace = simulation.trace
        # The shim lives on the trace, so it reaches the trace weakly: the
        # bound ``trace._store`` would close a trace <-> shim cycle and leave
        # a profiled run's trace to the cyclic collector.
        store, weak_trace = type(trace)._store, weakref.proxy(trace)

        def timed_store(action):
            started = perf_counter()
            try:
                return store(weak_trace, action)
            finally:
                self.add("trace_append", perf_counter() - started)

        trace._store = timed_store

    # -- reading ---------------------------------------------------------
    def buckets(self) -> Tuple[str, ...]:
        return tuple(sorted(self._buckets))

    def seconds(self, bucket: str) -> float:
        entry = self._buckets.get(bucket)
        return entry[1] if entry is not None else 0.0

    def count(self, bucket: str) -> int:
        entry = self._buckets.get(bucket)
        return int(entry[0]) if entry is not None else 0

    def total_seconds(self) -> float:
        return sum(entry[1] for entry in self._buckets.values())

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {"count": int(entry[0]), "seconds": entry[1]}
            for name, entry in sorted(self._buckets.items())
        }

    def report(self, steps: int = 0) -> str:
        """Human-readable wall-clock breakdown (never part of sim results)."""
        lines = ["kernel profile (wall clock):"]
        total = self.total_seconds()
        for name in self.buckets():
            entry = self._buckets[name]
            share = (entry[1] / total * 100.0) if total else 0.0
            mean_us = (entry[1] / entry[0] * 1e6) if entry[0] else 0.0
            lines.append(
                f"  {name:<13s} {entry[1] * 1e3:9.2f} ms  "
                f"({share:5.1f}%)  n={int(entry[0]):<8d} mean={mean_us:.1f}us"
            )
        if steps and total:
            lines.append(f"  ~{steps / total:,.0f} events/sec over {steps} steps")
        return "\n".join(lines)
