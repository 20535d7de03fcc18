"""The crash-recovery matrix: amnesiac crashes with durable member state.

The contract under test, end to end: a consensus member that crashes with
amnesia *while a stable store is attached* recovers its term/vote/log/applied
state from the store instead of resetting, so

* every cell of the crash matrix (protocol × crash target × randomized
  crash/recover points × seeds) completes with the safety invariants intact
  and reaches the same SNOW verdicts as the uninterrupted run;
* the whole thing is deterministic — running a cell twice yields a
  byte-identical trace;
* recovery also works *across builds*: a second system handed the same
  :class:`~repro.persist.PersistencePlane` (or a fresh plane over the same
  file root) starts from the first run's persisted state.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import ExperimentConfig, run_experiment
from repro.analysis.workload import WorkloadSpec
from repro.faults import ChaosScheduler
from repro.faults.plan import CrashEvent, FaultPlan, RetryPolicy
from repro.ioa import FIFOScheduler, RandomScheduler
from repro.persist import PersistencePlane, PersistencePolicy
from repro.protocols import get_protocol

from tests import invariants
from tests.conftest import trace_digest
from tests.consensus.conftest import COORDINATOR_PROTOCOLS, run_consensus_workload

pytestmark = pytest.mark.invariants

SEEDS = (0, 1, 2)


def amnesia_plan(server: str, at: int, recover: int, seed: int) -> FaultPlan:
    return FaultPlan(
        name=f"amnesia-{server}",
        crashes=(CrashEvent(server=server, at=at, recover=recover, preserve_state=False),),
        retry=RetryPolicy(timeout_steps=10, max_attempts=8),
        seed=seed,
    )


def run_cell(protocol: str, seed: int, faults, persistence):
    config = ExperimentConfig(
        protocol=protocol,
        num_objects=2,
        workload=WorkloadSpec(reads_per_reader=3, writes_per_writer=3, seed=seed),
        scheduler="chaos",
        seed=seed,
        consensus_factor=3,
        faults=faults,
        persistence=persistence,
    )
    return run_experiment(config)


# ----------------------------------------------------------------------
# The matrix: verdicts match the uninterrupted run, runs are replayable
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("target", ("coor", "coor.2"))
@pytest.mark.parametrize("protocol", COORDINATOR_PROTOCOLS)
def test_recovered_run_reaches_uninterrupted_verdicts(protocol, target, seed):
    """Crash point and outage length are drawn per cell from a seeded RNG;
    whatever the schedule, the durable member rejoins and the run ends with
    full availability and the fault-free run's SNOW verdicts."""
    rng = random.Random(
        (COORDINATOR_PROTOCOLS.index(protocol) * 7 + (target == "coor")) * 31 + seed
    )
    at = rng.randrange(5, 30)
    recover = at + rng.randrange(15, 50)
    baseline = run_cell(protocol, seed, faults=None, persistence=None)
    recovered = run_cell(
        protocol, seed, amnesia_plan(target, at, recover, seed), PersistencePolicy()
    )
    assert recovered.metrics.faults.availability == 1.0, (protocol, target, at, recover)
    assert recovered.snow.property_string() == baseline.snow.property_string()


@pytest.mark.parametrize("seed", SEEDS)
def test_recovered_run_is_replayable(seed):
    """Same cell twice — byte-identical traces: recovery consults only the
    store, never wall clocks or unseeded randomness."""

    def run_once():
        handle = run_consensus_workload(
            "algorithm-b",
            consensus_factor=3,
            plan=amnesia_plan("coor.2", at=10, recover=45, seed=seed),
            scheduler=ChaosScheduler(base=RandomScheduler(seed=seed), seed=seed),
            seed=seed,
            persistence=PersistencePolicy(compact_every=3),
        )
        return trace_digest(handle)

    assert run_once() == run_once()


@pytest.mark.parametrize("protocol", COORDINATOR_PROTOCOLS)
def test_crashed_member_recovers_state_not_just_safety(protocol):
    """White-box on one cell: the crashed member really took the recovery
    path (``recoveries`` counter), its post-run log agrees with the group,
    and its store holds exactly what the member now carries."""
    handle = run_consensus_workload(
        protocol,
        consensus_factor=3,
        plan=amnesia_plan("coor.2", at=10, recover=45, seed=3),
        scheduler=ChaosScheduler(base=RandomScheduler(seed=3), seed=3),
        persistence=PersistencePolicy(),
    )
    assert not handle.simulation.incomplete_transactions()
    member = handle.simulation.automaton("coor.2")
    assert member.recoveries >= 1
    store = handle.persistence.stores()["coor.2"]
    assert store.load_meta() == (member.election.term, member.election.voted_for)
    stored = dict(store.load_entries())
    for index in range(member.log.snapshot_index + 1, member.log.last_index + 1):
        assert stored[index] == member.log.entry(index), index


def test_fsynced_file_backend_recovers_an_amnesiac_member(tmp_path):
    """One matrix cell on the durable spelling: journals on disk, each
    write flushed with ``fsync`` — same availability and verdicts as the
    uninterrupted run, and the crashed member took the recovery path."""
    baseline = run_cell("algorithm-b", 1, faults=None, persistence=None)
    recovered = run_cell(
        "algorithm-b",
        1,
        amnesia_plan("coor.2", at=10, recover=45, seed=1),
        PersistencePolicy(backend="file", root=str(tmp_path), fsync=True),
    )
    assert recovered.metrics.faults.availability == 1.0
    assert recovered.snow.property_string() == baseline.snow.property_string()
    assert recovered.metrics.persistence.recoveries >= 1
    assert (tmp_path / "coor.2.wal").stat().st_size > 0


# ----------------------------------------------------------------------
# Cross-build recovery: restart-from-storage
# ----------------------------------------------------------------------
def fixed_workload(handle):
    w1 = handle.submit_write(
        {obj: f"v1-{obj}" for obj in handle.objects}, writer=handle.writers[0], txn_id="W1"
    )
    handle.submit_read(handle.objects, reader=handle.readers[0], txn_id="R1")
    handle.run_to_completion()
    return invariants.register(handle)


def build(persistence, **kwargs):
    return get_protocol("algorithm-b").build(
        num_readers=2,
        num_writers=2,
        num_objects=2,
        scheduler=ChaosScheduler(base=FIFOScheduler()),
        seed=3,
        consensus_factor=3,
        persistence=persistence,
        **kwargs,
    )


def test_second_build_recovers_from_shared_plane():
    """Passing the *plane* (not just the policy) to a second build models a
    full-cluster restart: every member comes up with the first run's
    term, log and applied state machine instead of blank."""
    plane = PersistencePlane(PersistencePolicy())
    first = build(plane)
    fixed_workload(first)
    finished = {
        m.name: (m.election.term, m.log.last_index, m.log.commit_index, len(m.machine.list))
        for m in invariants.consensus_members(first)
    }
    second = build(plane)
    for member in invariants.consensus_members(second):
        term, last, commit, entries = finished[member.name]
        assert member.recoveries == 1
        assert member.election.term == term
        assert member.log.last_index == last
        # the commit cursor is persisted, so the applied state machine is
        # rebuilt by silent replay before the first message arrives
        assert member.log.commit_index == commit
        assert len(member.machine.list) == entries


def test_file_backend_recovers_across_planes(tmp_path):
    """The file backend survives even the plane being thrown away: a fresh
    plane over the same root re-reads the journals from disk."""
    policy = PersistencePolicy(backend="file", root=str(tmp_path), compact_every=3)
    first = build(PersistencePlane(policy))
    fixed_workload(first)
    for store in first.persistence.stores().values():
        store.close()
    reference = {
        m.name: (m.election.term, m.log.last_index, len(m.machine.list))
        for m in invariants.consensus_members(first)
    }
    second = build(PersistencePlane(policy))  # fresh plane, same directory
    for member in invariants.consensus_members(second):
        term, last, entries = reference[member.name]
        assert member.recoveries == 1
        assert member.election.term == term
        assert member.log.last_index == last
        assert len(member.machine.list) == entries
        assert not member.stable_store.recovered_tail
