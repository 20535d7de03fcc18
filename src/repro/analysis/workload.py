"""Workload generation for experiments and benchmarks.

The paper motivates its results with the read-dominated workloads of
real-world storage systems (Facebook's TAO reports 500 reads per write,
Google's F1 three orders of magnitude more reads than general transactions —
Section 1).  The workload generator produces deterministic, seedable streams
of READ and WRITE transactions with configurable read/write mix, transaction
sizes and object-popularity skew, so the benchmark harness can sweep exactly
those dimensions.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from ..txn.transactions import ReadTransaction, WriteTransaction, read as make_read, write_pairs


@dataclass
class WorkloadSpec:
    """Parameters of a generated workload.

    ``reads_per_reader`` / ``writes_per_writer`` are issued closed-loop per
    client (the kernel invokes a client's next transaction only after its
    previous one responded — well-formedness).  ``read_size`` / ``write_size``
    are the number of distinct objects touched per transaction (clamped to
    the number of objects).  ``zipf_s`` adds object-popularity skew: 0 means
    uniform, larger values concentrate accesses on the first objects.
    """

    reads_per_reader: int = 5
    writes_per_writer: int = 5
    read_size: int = 2
    write_size: int = 2
    zipf_s: float = 0.0
    seed: int = 0
    value_prefix: str = "v"

    def describe(self) -> str:
        return (
            f"{self.reads_per_reader} reads/reader x {self.read_size} objects, "
            f"{self.writes_per_writer} writes/writer x {self.write_size} objects, "
            f"zipf_s={self.zipf_s}, seed={self.seed}"
        )


@dataclass
class GeneratedWorkload:
    """The concrete transactions of one workload instance."""

    reads: Tuple[Tuple[str, ReadTransaction], ...]  # (reader, txn)
    writes: Tuple[Tuple[str, WriteTransaction], ...]  # (writer, txn)

    @property
    def total_transactions(self) -> int:
        return len(self.reads) + len(self.writes)

    def read_ratio(self) -> float:
        total = self.total_transactions
        return len(self.reads) / total if total else 0.0


def _zipf_weights(count: int, s: float) -> List[float]:
    if s <= 0:
        return [1.0] * count
    return [1.0 / ((rank + 1) ** s) for rank in range(count)]


def _pick_objects(rng: random.Random, objects: Sequence[str], size: int, s: float) -> Tuple[str, ...]:
    size = max(1, min(size, len(objects)))
    if s <= 0:
        return tuple(sorted(rng.sample(list(objects), size)))
    weights = _zipf_weights(len(objects), s)
    chosen: List[str] = []
    candidates = list(objects)
    candidate_weights = list(weights)
    for _ in range(size):
        total = sum(candidate_weights)
        pick = rng.random() * total
        cumulative = 0.0
        for index, weight in enumerate(candidate_weights):
            cumulative += weight
            if pick <= cumulative:
                chosen.append(candidates.pop(index))
                candidate_weights.pop(index)
                break
        else:  # pragma: no cover - floating point edge
            chosen.append(candidates.pop())
            candidate_weights.pop()
    return tuple(sorted(chosen))


def generate_workload(
    spec: WorkloadSpec,
    readers: Sequence[str],
    writers: Sequence[str],
    objects: Sequence[str],
) -> GeneratedWorkload:
    """Generate the transactions of a workload (deterministic in ``spec.seed``).

    Transaction ids are numbered per call (``R1…Rn`` then ``W<n+1>…``, as in
    a fresh interpreter), so equal arguments give equal workloads, ids
    included, wherever in a process they are generated; two of them submitted
    to *one* simulation collide, which ``Simulation.submit`` refuses loudly.
    """
    rng = random.Random(spec.seed)
    ids = itertools.count(1)
    reads: List[Tuple[str, ReadTransaction]] = []
    writes: List[Tuple[str, WriteTransaction]] = []
    for reader in readers:
        for _ in range(spec.reads_per_reader):
            targets = _pick_objects(rng, objects, spec.read_size, spec.zipf_s)
            reads.append((reader, make_read(*targets, txn_id=f"R{next(ids)}")))
    for writer_index, writer in enumerate(writers, start=1):
        for sequence in range(1, spec.writes_per_writer + 1):
            targets = _pick_objects(rng, objects, spec.write_size, spec.zipf_s)
            updates = tuple(
                (obj, f"{spec.value_prefix}-{writer}-{sequence}-{obj}") for obj in targets
            )
            writes.append((writer, write_pairs(updates, txn_id=f"W{next(ids)}")))
    return GeneratedWorkload(reads=tuple(reads), writes=tuple(writes))


def submit_workload(handle, workload: GeneratedWorkload) -> Tuple[List[str], List[str]]:
    """Submit a generated workload to a built system (interleaving clients).

    Transactions are queued round-robin across clients so that the closed-loop
    driver interleaves reads and writes rather than running all of one
    client's transactions first.  Returns the submitted read and write ids.
    """
    read_ids: List[str] = []
    write_ids: List[str] = []
    per_client: Dict[str, List[Any]] = {}
    for reader, txn in workload.reads:
        per_client.setdefault(reader, []).append(txn)
    for writer, txn in workload.writes:
        per_client.setdefault(writer, []).append(txn)
    # Round-robin across clients for submission order.
    progressing = True
    position = 0
    while progressing:
        progressing = False
        for client, queue in per_client.items():
            if position < len(queue):
                progressing = True
                txn = queue[position]
                if isinstance(txn, ReadTransaction):
                    read_ids.append(handle.simulation.submit(client, txn, txn_id=txn.txn_id))
                else:
                    write_ids.append(handle.simulation.submit(client, txn, txn_id=txn.txn_id))
        position += 1
    return read_ids, write_ids


def read_heavy_spec(reads: int = 10, writes: int = 2, size: int = 2, seed: int = 0) -> WorkloadSpec:
    """A TAO-like read-heavy mix."""
    return WorkloadSpec(reads_per_reader=reads, writes_per_writer=writes, read_size=size, write_size=size, seed=seed)


def write_heavy_spec(reads: int = 3, writes: int = 10, size: int = 2, seed: int = 0) -> WorkloadSpec:
    """A contention-heavy mix used to stress retry/blocking behaviour."""
    return WorkloadSpec(reads_per_reader=reads, writes_per_writer=writes, read_size=size, write_size=size, seed=seed)
