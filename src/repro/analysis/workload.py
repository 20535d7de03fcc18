"""Workload generation for experiments and benchmarks.

The paper motivates its results with the read-dominated workloads of
real-world storage systems (Facebook's TAO reports 500 reads per write,
Google's F1 three orders of magnitude more reads than general transactions —
Section 1).  The workload generator produces deterministic, seedable streams
of READ and WRITE transactions with configurable read/write mix, transaction
sizes and object-popularity skew, so the benchmark harness can sweep exactly
those dimensions.

Every suite row, sweep and benchmark cell pays this module once per run, so
nothing in it is derived per transaction that can be derived per spec: each
transaction size gets one pick function (a uniform sampler that owns
``random.sample``'s draws, or Zipf running-sum tables built once per set of
objects not drawn yet), and ``submit_workload`` queues the clients
round-robin in one ``zip_longest``.  What comes out is a function of the spec
and ``random()``'s sequence alone; ``tests/analysis/reference_workload.py``
keeps the generator that drew through ``sample`` as the oracle.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Set, Tuple

from ..txn.transactions import ReadTransaction, WriteTransaction


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


#: running-sum tables a zipf pick function keeps (one per set of objects not
#: drawn yet); a set met after this many is summed again on each draw, so
#: memory stays bounded however many objects a spec spreads over
_ZIPF_TABLES = 1024


def _sampler(rng: random.Random, population: Sequence[str], k: int) -> Callable[[], List[str]]:
    """``rng.sample(population, k)``, built once and drawn many times.

    Each call of the returned function picks what ``rng.sample(population,
    k)`` would, in its selection order, and leaves ``rng`` in the same state.
    It runs both of CPython 3.11's branches (the same in 3.12): a pool swap
    when the population is no larger than a ``k``-set, otherwise redraws
    until an unselected index comes up.  Each index is the rejection loop
    over ``getrandbits`` that ``sample``'s ``_randbelow`` runs (and
    :func:`repro.ioa.scheduler.draw_below` owns for one integer).  Owning the
    draws keeps workloads fixed across interpreters, which promise only
    ``random()``'s sequence, not ``sample``'s algorithm, and drops per pick
    ``sample``'s and ``_randbelow``'s frames, its ``Sequence`` check and the
    population copy the caller made for it.
    """
    n = len(population)
    if not 0 <= k <= n:
        raise ValueError("Sample larger than population or is negative")
    getrandbits = rng.getrandbits
    setsize = 21  # sample's own rule for when a k-set is smaller than the pool
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if n <= setsize:
        full = list(population)
        remaining = range(n, n - k, -1)  # the pool's size at each draw
        bounds = tuple(zip(remaining, map(int.bit_length, remaining)))

        def sample() -> List[str]:
            pool = full.copy()
            chosen = []
            for bound, bits in bounds:
                drawn = getrandbits(bits)
                while drawn >= bound:
                    drawn = getrandbits(bits)
                chosen.append(pool[drawn])
                pool[drawn] = pool[bound - 1]  # the last unselected fills the gap
            return chosen

        return sample
    items = tuple(population)
    bits = n.bit_length()

    def sample() -> List[str]:
        selected: Set[int] = set()
        chosen = []
        for _ in range(k):
            drawn = getrandbits(bits)
            while drawn >= n or drawn in selected:
                drawn = getrandbits(bits)
            selected.add(drawn)
            chosen.append(items[drawn])
        return chosen

    return sample


def _zipf_picker(rng: random.Random, objects: Sequence[str], k: int, s: float) -> Callable[[], List[str]]:
    """``k`` distinct objects drawn one at a time, each with probability
    proportional to ``1 / rank**s`` among the objects not drawn yet.

    The weights are computed once.  For each tuple of positions not drawn
    yet, the running sums of their weights are computed once, left to right,
    and kept (:data:`_ZIPF_TABLES` tuples at most); a draw is ``random()``
    times the last sum, and picks the first position whose running sum
    reaches it (``bisect_left``).  The total is that last sum, not ``sum()``,
    which Python 3.12 compensates.
    """
    weight_of = [1.0 / ((rank + 1) ** s) for rank in range(len(objects))].__getitem__
    everything = tuple(range(len(objects)))
    draw = rng.random
    tables: Dict[Tuple[int, ...], List[float]] = {}

    def pick() -> List[str]:
        chosen = []
        remaining = everything
        for _ in range(k):
            sums = tables.get(remaining)
            if sums is None:
                sums = list(itertools.accumulate(map(weight_of, remaining)))
                if len(tables) < _ZIPF_TABLES:
                    tables[remaining] = sums
            # random() < 1, so the product never rounds past sums[-1] and the
            # index stays in the table: no fallback branch is needed
            index = bisect_left(sums, draw() * sums[-1])
            chosen.append(objects[remaining[index]])
            remaining = remaining[:index] + remaining[index + 1 :]
        return chosen

    return pick


def _picker(rng: random.Random, objects: Sequence[str], size: int, s: float) -> Callable[[], List[str]]:
    """The pick function of one transaction size: ``size`` (clamped to
    ``1..len(objects)``) distinct objects per call, uniform or Zipf-skewed."""
    if not objects:
        raise ValueError("a workload needs at least one object to pick from")
    size = max(1, min(size, len(objects)))
    return _sampler(rng, objects, size) if s <= 0 else _zipf_picker(rng, objects, size, s)


def generate_workload(
    spec: WorkloadSpec,
    readers: Sequence[str],
    writers: Sequence[str],
    objects: Sequence[str],
) -> GeneratedWorkload:
    """Generate the transactions of a workload (deterministic in ``spec.seed``).

    Every reader's READs, then every writer's WRITEs, each over distinct
    objects drawn from one ``random.Random(spec.seed)`` by a pick function
    built once per transaction size (:func:`_sampler`, :func:`_zipf_picker`).
    The generator owns those draws, so a workload depends on the seed and
    ``random()``'s promised sequence, not on the interpreter's ``sample``.
    ``ValueError`` if there are no objects to pick from.

    Transaction ids are numbered per call (``R1…Rn`` then ``W<n+1>…``, as in
    a fresh interpreter), so equal arguments give equal workloads, ids
    included, wherever in a process they are generated; two of them submitted
    to *one* simulation collide, which ``Simulation.submit`` refuses loudly.
    """
    rng = random.Random(spec.seed)
    ids = itertools.count(1)
    pick_read = _picker(rng, objects, spec.read_size, spec.zipf_s)
    pick_write = _picker(rng, objects, spec.write_size, spec.zipf_s)
    reads = [
        (reader, ReadTransaction(tuple(sorted(pick_read())), f"R{next(ids)}"))
        for reader in readers
        for _ in range(spec.reads_per_reader)
    ]
    prefix = spec.value_prefix
    writes = [
        (
            writer,
            WriteTransaction(
                tuple([(obj, f"{prefix}-{writer}-{sequence}-{obj}") for obj in sorted(pick_write())]),
                f"W{next(ids)}",
            ),
        )
        for writer in writers
        for sequence in range(1, spec.writes_per_writer + 1)
    ]
    return GeneratedWorkload(reads=tuple(reads), writes=tuple(writes))


def submit_workload(handle, workload: GeneratedWorkload) -> Tuple[List[str], List[str]]:
    """Submit a generated workload to a built system (interleaving clients).

    Transactions are queued round-robin across clients (each client's first,
    then each one's second, ...) so that the closed-loop driver interleaves
    reads and writes rather than running all of one client's transactions
    first.  Returns the submitted read and write ids.
    """
    per_client: Dict[str, List[Any]] = {}
    for client, txn in workload.reads:
        per_client.setdefault(client, []).append(txn)
    for client, txn in workload.writes:
        per_client.setdefault(client, []).append(txn)
    submit = handle.simulation.submit
    read_ids: List[str] = []
    write_ids: List[str] = []
    clients = tuple(per_client)
    for row in itertools.zip_longest(*per_client.values()):
        for client, txn in zip(clients, row):
            if txn is not None:  # this client's queue ran out
                (read_ids if txn.kind == "read" else write_ids).append(submit(client, txn, txn.txn_id))
    return read_ids, write_ids


def read_heavy_spec(reads: int = 10, writes: int = 2, size: int = 2, seed: int = 0) -> WorkloadSpec:
    """A TAO-like read-heavy mix."""
    return WorkloadSpec(reads_per_reader=reads, writes_per_writer=writes, read_size=size, write_size=size, seed=seed)


def write_heavy_spec(reads: int = 3, writes: int = 10, size: int = 2, seed: int = 0) -> WorkloadSpec:
    """A contention-heavy mix used to stress retry/blocking behaviour."""
    return WorkloadSpec(reads_per_reader=reads, writes_per_writer=writes, read_size=size, write_size=size, seed=seed)
