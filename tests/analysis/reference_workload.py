"""The pre-change workload generator, kept verbatim as the test oracle.

Until the pick tables, :mod:`repro.analysis.workload` picked each
transaction's objects with ``_pick_objects`` below: ``random.sample`` for a
uniform spec, and for a skewed one the Zipf weights rebuilt and re-summed on
every pick; clients were queued by an index loop with an ``isinstance`` per
transaction.  ``src/`` now builds its pick functions once per spec and owns
``sample``'s draws; these functions define what it must produce.
``tests/analysis/test_workload_equivalence.py`` compares the two.  Do not
optimise this file.
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Dict, List, Sequence, Tuple

from repro.analysis.workload import GeneratedWorkload, WorkloadSpec
from repro.txn.transactions import ReadTransaction, WriteTransaction, read as make_read, write_pairs


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
