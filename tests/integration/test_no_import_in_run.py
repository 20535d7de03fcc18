"""Nothing is imported inside the run.

Package exports resolve lazily and plane code is imported where the plane
attaches — at import, in ``get_protocol`` / ``Protocol.build``, or when a plane
is constructed.  ``handle.run()`` is the phase ``txns_per_s`` measures: an
import that moved onto the event path would be paid there, per process, and
show as a slower first run.  One cell per stack (the perf benchmark's three),
each in a fresh interpreter: ``sys.modules`` after build + submit must equal
``sys.modules`` after the run.
"""

from __future__ import annotations

import pytest

CELL = """
import json, sys
from repro.analysis.workload import WorkloadSpec, generate_workload, submit_workload
from repro.ioa import FIFOScheduler, RandomScheduler, TraceMode
from repro.protocols import get_protocol

stack = {stack!r}
readers = 1 if {protocol!r} == "algorithm-a" else 2  # A is defined for one reader
kwargs = dict(num_readers=readers, num_writers=2, num_objects=3, seed=5, scheduler=FIFOScheduler())
if stack != "plain":
    from repro.persist import PersistencePlane, PersistencePolicy

    kwargs.update(
        replication_factor=3, quorum="majority", consensus_factor=3, leases=True,
        persistence=PersistencePlane(PersistencePolicy(compact_every=8)),
        trace_mode=TraceMode.ring(512),
    )
if stack == "chaos":
    from repro.faults import (
        ChaosScheduler, CrashEvent, DropPolicy, DuplicatePolicy, FaultInjector, FaultPlan,
        Partition, RetryPolicy, UniformLatency,
    )
    from repro.obs import ObservabilityPlane

    plan = FaultPlan(
        name="import-probe", latency=UniformLatency(0, 4), drops=DropPolicy(0.1),
        duplicates=DuplicatePolicy(0.1), retry=RetryPolicy(timeout_steps=10, max_attempts=8),
        crashes=(
            CrashEvent("coor", at=60),  # leader fail-stop: an election inside the run
            CrashEvent("s1", at=200, recover=260, preserve_state=False),
        ),
        partitions=(Partition(("r1",), ("s2", "s2.2"), 120, 140),), seed=5,
    )
    kwargs.update(
        scheduler=ChaosScheduler(base=RandomScheduler(seed=5), seed=5),
        fault_plane=FaultInjector(plan, seed=5),
        obs=ObservabilityPlane(monitors=True, health=True),
    )
handle = get_protocol({protocol!r}).build(**kwargs)
spec = WorkloadSpec(reads_per_reader=20, writes_per_writer=20, seed=5)
submit_workload(handle, generate_workload(spec, handle.readers, handle.writers, handle.objects))
before = set(sys.modules)
handle.run()
records = handle.transaction_records()
print(json.dumps({{
    "loaded_in_run": sorted(set(sys.modules) - before),
    "completed": sum(r.complete for r in records),
    "submitted": len(records),
    "repro_modules": sum(m.startswith("repro.") for m in before),
}}))
"""


@pytest.mark.parametrize(
    "stack, protocol",
    [("plain", "algorithm-a"), ("replicated", "algorithm-b"), ("chaos", "algorithm-b")],
)
def test_run_imports_nothing(fresh_python, stack, protocol):
    report = fresh_python(CELL.format(stack=stack, protocol=protocol))
    assert report["loaded_in_run"] == []
    # the run did the stack's work: it is not an empty loop that trivially imports nothing
    assert report["submitted"] >= 60 and report["completed"] >= 0.75 * report["submitted"]
    assert report["repro_modules"] > 15
