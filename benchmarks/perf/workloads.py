"""The five benchmark workloads: what is built and how big (why each exists
is recorded once, in ``BENCHMARK.json``, and at length in README.md).

A workload is a list of *cells* (one protocol, one closed-loop generated
workload, run to idle) on one *stack* (which planes are attached).  Sizes are
the full benchmark sizes; ``scale`` divides reads, writes and fault times for
the smoke test.  Everything random takes the benchmark ``seed``: the
``WorkloadSpec``, the build, the ``FaultPlan`` and the scheduler.

``max_steps`` is 10x the cell's event count at seed 17, so a livelock ends in
``LivenessError`` (reported as failed transactions), not a hang.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro.analysis.workload import WorkloadSpec, generate_workload, submit_workload
from repro.faults import (
    ChaosScheduler,
    CrashEvent,
    DropPolicy,
    DuplicatePolicy,
    FaultInjector,
    FaultPlan,
    Partition,
    RetryPolicy,
    UniformLatency,
)
from repro.ioa import FIFOScheduler, RandomScheduler, TraceMode
from repro.obs import ObservabilityPlane
from repro.persist import PersistencePlane, PersistencePolicy
from repro.protocols import get_protocol

#: every protocol some workload runs; ``run_s.<p>`` / ``txns.<p>`` exist per name
PROTOCOLS = ("algorithm-a", "algorithm-b", "algorithm-c", "occ-double-collect", "s2pl", "eiger")


@dataclass(frozen=True)
class Cell:
    protocol: str
    reads: int  # per reader
    writes: int  # per writer
    max_steps: int
    readers: int = 2
    writers: int = 2
    objects: int = 3
    txn_size: int = 2
    zipf_s: float = 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    #: "plain" = rf=1/cf=1, FIFO, full trace; "replicated" = rf=3 majority,
    #: cf=3, leases, persistence, ring trace, FIFO; "chaos" = replicated +
    #: ChaosScheduler + fault plan + monitors/health
    stack: str
    cells: Tuple[Cell, ...]
    #: run the paper's checker pipeline (quadratic) instead of the O(n)
    #: provenance check
    checkers: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "paper-core",
            "plain",
            (
                # algorithm A is defined for one reader (MWSR)
                Cell("algorithm-a", 8000, 800, 512_000, readers=1),
                Cell("algorithm-b", 2600, 260, 400_400),
                Cell("algorithm-c", 700, 70, 89_040),
            ),
        ),
        Workload(
            "replicated-stack",
            "replicated",
            (
                Cell("algorithm-b", 600, 600, 568_890),
                Cell("occ-double-collect", 600, 600, 759_560),
            ),
        ),
        Workload(
            "chaos",
            "chaos",
            (Cell("algorithm-b", 300, 300, 257_910),),
        ),
        Workload(
            "write-contention",
            "plain",
            tuple(
                Cell(p, 150, 600, steps, writers=4, objects=8, txn_size=4, zipf_s=1.2)
                for p, steps in (
                    ("algorithm-c", 291_220),
                    ("occ-double-collect", 315_000),
                    ("s2pl", 447_000),
                )
            ),
        ),
        Workload(
            "verify",
            "plain",
            (
                Cell("algorithm-a", 100, 100, 19_000, readers=1),
                Cell("algorithm-b", 100, 100, 28_000),
                Cell("algorithm-c", 100, 100, 25_340),
                Cell("eiger", 100, 100, 20_220),
            ),
            checkers=True,
        ),
    )
}


def chaos_plan(seed: int, scale: int) -> FaultPlan:
    """The ``chaos`` fault schedule; times shrink with the workload."""

    def at(step: int) -> int:
        return max(1, step // scale)

    return FaultPlan(
        name="perf-chaos",
        latency=UniformLatency(0, 4),
        drops=DropPolicy(0.1),
        duplicates=DuplicatePolicy(0.1),
        retry=RetryPolicy(timeout_steps=10, max_attempts=8),
        crashes=(
            CrashEvent("coor", at=at(1500)),  # leader fail-stop
            CrashEvent("s1", at=at(5000), recover=at(6500), preserve_state=False),
        ),
        partitions=(Partition(("r1",), ("s2", "s2.2"), at(3000), at(3400)),),
        seed=seed,
    )


class Parts:
    """Constructors of the pluggable parts of a build.  The traced run
    substitutes timed subclasses (:class:`tracing.TracedParts`)."""

    def fifo(self):
        return FIFOScheduler()

    def chaos(self, seed: int):
        return ChaosScheduler(base=RandomScheduler(seed=seed), seed=seed)

    def injector(self, plan: FaultPlan, seed: int):
        return FaultInjector(plan, seed=seed)

    def persistence(self, policy: PersistencePolicy):
        return PersistencePlane(policy)

    def obs(self, **kwargs):
        return ObservabilityPlane(**kwargs)


def build_cell(workload: Workload, cell: Cell, seed: int, scale: int, parts: Parts):
    """``Protocol.build`` for one cell; returns the ``SystemHandle``."""
    kwargs: Dict[str, Any] = dict(
        num_readers=cell.readers,
        num_writers=cell.writers,
        num_objects=cell.objects,
        seed=seed,
        max_steps=cell.max_steps,
        scheduler=parts.fifo(),
    )
    if workload.stack != "plain":
        kwargs.update(
            replication_factor=3,
            quorum="majority",
            consensus_factor=3,
            leases=True,
            persistence=parts.persistence(PersistencePolicy(compact_every=64)),
            trace_mode=TraceMode.ring(4096),
        )
    if workload.stack == "chaos":
        kwargs.update(
            scheduler=parts.chaos(seed),
            fault_plane=parts.injector(chaos_plan(seed, scale), seed),
            # as the chaos grids run: streaming monitors + health plane
            obs=parts.obs(monitors=True, health=True),
        )
    return get_protocol(cell.protocol).build(**kwargs)


def load_cell(handle, cell: Cell, seed: int, scale: int):
    """Generate and submit the cell's closed-loop workload; returns it."""
    spec = WorkloadSpec(
        reads_per_reader=max(1, cell.reads // scale),
        writes_per_writer=max(1, cell.writes // scale),
        read_size=cell.txn_size,
        write_size=cell.txn_size,
        zipf_s=cell.zipf_s,
        seed=seed,
    )
    generated = generate_workload(spec, handle.readers, handle.writers, handle.objects)
    submit_workload(handle, generated)
    return generated
