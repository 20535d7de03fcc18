"""Golden traces of the replica-quorum rounds, on both membership kinds.

``test_golden_rf1.py`` pins the paper's single-copy setting.  This module
pins what it cannot reach: the client rounds over replica groups.

* **Fixed membership** — every protocol at ``replication_factor=3`` under
  both quorum policies, FIFO and random schedules, a latency-fault chaos
  schedule, and (for the protocols with a coordinator) a replicated
  coordinator.  No directory is installed, so these are the rounds every
  benchmark workload runs.
* **Under a directory** — a replica-group swap mid-run under latency faults
  and a chaos schedule, sixteen seeds per protocol.  Each protocol has at
  least two cells whose trace holds an ``epoch-retry`` action, so the retry
  path of every round is pinned, not only its happy path.

The signatures (``golden_round_signatures.json``) are hashes of
``Trace.signature()``.  After a deliberate wire change, regenerate them with
``PYTHONPATH=src:. python tests/replication/test_golden_rounds.py`` and say
so in the commit.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.consensus import ReconfigPlan, set_replica_group
from repro.faults import ChaosScheduler, FaultPlan, UniformLatency
from repro.ioa import FIFOScheduler, RandomScheduler
from repro.protocols import get_protocol, protocol_names

from tests import invariants
from tests.reconfig.conftest import run_reconfig_workload
from tests.replication.conftest import run_fixed_workload

pytestmark = pytest.mark.invariants

FIXTURE = Path(__file__).parent / "golden_round_signatures.json"

#: cell name -> run_fixed_workload keywords (all at replication_factor=3)
FIXED_CELLS = {
    "fifo-majority": lambda: dict(scheduler=FIFOScheduler(), quorum="majority"),
    "random17-majority": lambda: dict(scheduler=RandomScheduler(seed=17), quorum="majority"),
    "fifo-rowa": lambda: dict(scheduler=FIFOScheduler(), quorum="read-one-write-all"),
    "chaos5-latency-majority": lambda: dict(
        scheduler=ChaosScheduler(base=RandomScheduler(seed=5), seed=5),
        quorum="majority",
        plan=FaultPlan(latency=UniformLatency(0, 6), seed=5),
    ),
}
#: cells only the protocols with a coordinator run: a replicated one
COORDINATED_CELLS = {
    "random17-majority-cf3": lambda: dict(
        scheduler=RandomScheduler(seed=17), quorum="majority", consensus_factor=3
    ),
}
EPOCH_SEEDS = range(16)


def signature_hash(handle) -> str:
    return hashlib.sha256(repr(handle.trace().signature()).encode("utf-8")).hexdigest()


def fixed_cells(protocol: str):
    cells = dict(FIXED_CELLS)
    if get_protocol(protocol).has_coordinator:
        cells.update(COORDINATED_CELLS)
    return cells


def run_fixed_cell(protocol: str, cell: str):
    return run_fixed_workload(protocol, replication_factor=3, num_objects=2, **fixed_cells(protocol)[cell]())


def epoch_swap(protocol: str):
    """Swap a replica of one object mid-run.  B, C and OCC swap ``oy``:
    replacing ``sx`` would retire their coordinator, which the build refuses."""
    if get_protocol(protocol).has_coordinator:
        return set_replica_group("oy", ("sy", "sy.3", "sy.4"), at=6)
    return set_replica_group("ox", ("sx.2", "sx.3", "sx.4"), at=6)


def run_epoch_cell(protocol: str, seed: int):
    return run_reconfig_workload(
        protocol,
        reconfig=ReconfigPlan(requests=(epoch_swap(protocol),)),
        plan=FaultPlan(latency=UniformLatency(0, 6), seed=seed),
        rounds=6,
        scheduler=ChaosScheduler(base=RandomScheduler(seed=seed), seed=seed),
        run_to_completion=False,
    )


def epoch_retries(handle) -> int:
    return sum(
        1 for action in handle.trace() if action.info_map.get("reconfig") == "epoch-retry"
    )


def _golden():
    return json.loads(FIXTURE.read_text())


FIXED_PARAMS = [(p, cell) for p in protocol_names() for cell in sorted(fixed_cells(p))]


@pytest.mark.parametrize("protocol, cell", FIXED_PARAMS)
def test_fixed_membership_rounds_match_golden(protocol, cell):
    handle = run_fixed_cell(protocol, cell)
    assert handle.directory is None
    assert signature_hash(handle) == _golden()["fixed"][protocol][cell], (protocol, cell)


@pytest.mark.parametrize("protocol", protocol_names())
def test_epoch_rounds_match_golden(protocol):
    golden = _golden()["epoch"][protocol]
    retried = []
    for seed in EPOCH_SEEDS:
        handle = run_epoch_cell(protocol, seed)
        assert signature_hash(handle) == golden[str(seed)], (protocol, seed)
        if epoch_retries(handle):
            retried.append(seed)
    # the grid must exercise the retry path, not only the happy path
    assert len(retried) >= 2, (protocol, retried)


def test_every_registered_protocol_is_pinned():
    golden = _golden()
    assert set(golden["fixed"]) == set(golden["epoch"]) == set(protocol_names())


def regenerate() -> None:
    fixed = {
        p: {cell: signature_hash(run_fixed_cell(p, cell)) for cell in sorted(fixed_cells(p))}
        for p in protocol_names()
    }
    epoch = {
        p: {str(seed): signature_hash(run_epoch_cell(p, seed)) for seed in EPOCH_SEEDS}
        for p in protocol_names()
    }
    invariants.reset()
    FIXTURE.write_text(json.dumps({"fixed": fixed, "epoch": epoch}, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
