"""Golden pin of the cells the perf benchmark calls ``replicated-stack``.

The cells are copied here, not imported: ``benchmarks/perf`` runs them under a
ring trace, and the pin wants a *full* trace so the signature covers every
action.  Both cells are the benchmark's (algorithm B, then OCC at rf=3
majority, cf=3, leases, ``PersistencePolicy(compact_every=64)``, FIFO) at a
tenth of its size — large enough that every cell checkpoints at least once,
so the compaction path is inside the pin.

``golden_replicated_stack.json`` was recorded on the commit before the
consensus member was made in one place (``Protocol.make_consensus_member``).
A change to how a member is built, or to how its Raft rules are written,
must reproduce all of it: the trace signature, the consensus and persistence
metric blocks, and every member's store write counters.  It was re-recorded
on purpose when a leader began announcing each commit with one
unacknowledged ``cns-committed`` notice instead of a second append round,
and its algorithm-b cells again when append rounds began to prove the leader
lease (OCC's cells never park a read, so they stayed as they were).

Regenerate (only after a deliberate behaviour change) with
``PYTHONPATH=src python tests/consensus/test_golden_replicated_stack.py``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict

import pytest

from repro.analysis import collect_metrics
from repro.analysis.workload import WorkloadSpec, generate_workload, submit_workload
from repro.ioa import FIFOScheduler
from repro.persist import PersistencePolicy
from repro.protocols import get_protocol

from tests.conftest import trace_digest

GOLDEN_PATH = Path(__file__).parent / "golden_replicated_stack.json"
#: the benchmark's cells: 600 reads per reader and 600 writes per writer
CELLS = ("algorithm-b", "occ-double-collect")
SCALE = 10
SEEDS = (17, 3)
COMPACT_EVERY = 64
STORE_COUNTERS = ("meta_saves", "appends", "truncations", "commit_saves", "snapshots")


def run_cell(protocol: str, seed: int):
    """Build, load and run one ``replicated-stack`` cell to idle."""
    handle = get_protocol(protocol).build(
        num_readers=2,
        num_writers=2,
        num_objects=3,
        seed=seed,
        scheduler=FIFOScheduler(),
        replication_factor=3,
        quorum="majority",
        consensus_factor=3,
        leases=True,
        persistence=PersistencePolicy(compact_every=COMPACT_EVERY),
    )
    spec = WorkloadSpec(
        reads_per_reader=600 // SCALE,
        writes_per_writer=600 // SCALE,
        read_size=2,
        write_size=2,
        seed=seed,
    )
    submit_workload(handle, generate_workload(spec, handle.readers, handle.writers, handle.objects))
    handle.run()
    return handle


def observable_outcome(handle) -> Dict[str, Any]:
    metrics = collect_metrics(handle.simulation, handle.protocol.name)
    return {
        "signature": trace_digest(handle),
        "consensus": metrics.consensus.as_dict(),
        "persistence": metrics.persistence.as_dict(),
        "stores": {
            name: {counter: getattr(store, counter) for counter in STORE_COUNTERS}
            for name, store in sorted(handle.persistence.stores().items())
        },
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("protocol", CELLS)
def test_replicated_cell_matches_the_parent_commit(protocol, seed):
    handle = run_cell(protocol, seed)
    records = handle.transaction_records()
    assert records and all(record.complete for record in records)
    golden = json.loads(GOLDEN_PATH.read_text())[f"{protocol}/{seed}"]
    outcome = observable_outcome(handle)
    assert outcome["persistence"]["checkpoints"] >= 1, "the pin must cover compaction"
    assert outcome["consensus"] == golden["consensus"]
    assert outcome["persistence"] == golden["persistence"]
    assert outcome["stores"] == golden["stores"]
    assert outcome["signature"] == golden["signature"]


if __name__ == "__main__":
    recorded = {
        f"{protocol}/{seed}": observable_outcome(run_cell(protocol, seed))
        for protocol in CELLS
        for seed in SEEDS
    }
    GOLDEN_PATH.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
