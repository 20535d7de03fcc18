"""Seed-determinism regression: same config + seed ⇒ identical runs.

Hidden nondeterminism (iteration over unordered sets, id()-based ordering,
wall-clock leakage) poisons golden signatures and makes chaos failures
unreplayable.  One configuration per protocol family runs twice through the
full experiment harness and must produce the identical event trace and the
identical metrics record — including under a fault plan and under a
membership change, the paths this PR adds.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.analysis import ExperimentConfig, WorkloadSpec, run_experiment
from repro.consensus.reconfig import ReconfigPlan, set_replica_group
from repro.faults import grow_group_mid_run, lossy_network, replace_dead_replica
from repro.protocols import protocol_names


def run_twice(config: ExperimentConfig):
    return run_experiment(config), run_experiment(config)


def _id_normalizer(result):
    """Auto-assigned transaction ids come from a process-global counter, so
    two runs in one process get different names for the same transactions;
    normalise them to their (deterministic) submission position before
    comparing anything."""
    mapping = {
        str(t.txn_id): f"T{i}"
        for i, t in enumerate(result.metrics.transactions)
    }

    def normalise(text: str) -> str:
        for old in sorted(mapping, key=len, reverse=True):
            text = text.replace(old, mapping[old])
        return text

    return normalise


def trace_hash(result) -> str:
    normalise = _id_normalizer(result)
    signature = normalise(result.history.describe()) + normalise(
        repr([t.__dict__ for t in result.metrics.transactions])
    )
    return hashlib.sha256(signature.encode("utf-8")).hexdigest()


def metrics_record(result) -> dict:
    metrics = result.metrics
    normalise = _id_normalizer(result)
    record = {
        "total_messages": metrics.total_messages,
        "total_steps": metrics.total_steps,
        "read_rounds_max": metrics.max_read_rounds(),
        "transactions": tuple(
            (
                normalise(t.txn_id),
                t.kind,
                t.rounds,
                t.messages_sent,
                t.latency_steps,
                normalise(repr(t.annotations)),
            )
            for t in metrics.transactions
        ),
        "snow": result.property_string(),
    }
    if metrics.faults is not None:
        record["faults"] = metrics.faults.as_dict()
    if metrics.consensus is not None:
        record["consensus"] = metrics.consensus.as_dict()
    if metrics.reconfig is not None:
        record["reconfig"] = metrics.reconfig.as_dict()
    return record


#: one representative per protocol family: baseline read/write, C2C (A),
#: coordinator-based (B, + consensus replication), oracle-based (OCC),
#: Eiger-style rich transactions — all under the randomized chaos scheduler.
FAMILY_CONFIGS = {
    "simple-rw": ExperimentConfig(
        protocol="simple-rw", scheduler="random", seed=5,
        workload=WorkloadSpec(reads_per_reader=4, writes_per_writer=3, seed=5),
    ),
    "algorithm-a": ExperimentConfig(
        protocol="algorithm-a", num_readers=1, scheduler="random", seed=5,
        workload=WorkloadSpec(reads_per_reader=4, writes_per_writer=3, seed=5),
    ),
    "algorithm-b": ExperimentConfig(
        protocol="algorithm-b", scheduler="chaos", seed=5, consensus_factor=3,
        workload=WorkloadSpec(reads_per_reader=4, writes_per_writer=3, seed=5),
    ),
    "occ-double-collect": ExperimentConfig(
        protocol="occ-double-collect", scheduler="random", seed=5,
        workload=WorkloadSpec(reads_per_reader=4, writes_per_writer=3, seed=5),
    ),
    "eiger": ExperimentConfig(
        protocol="eiger", scheduler="chaos", seed=5, faults=lossy_network(seed=5),
        workload=WorkloadSpec(reads_per_reader=4, writes_per_writer=3, seed=5),
    ),
}


@pytest.mark.parametrize("family", sorted(FAMILY_CONFIGS))
def test_same_seed_same_trace_and_metrics(family):
    first, second = run_twice(FAMILY_CONFIGS[family])
    assert trace_hash(first) == trace_hash(second), family
    assert metrics_record(first) == metrics_record(second), family


def test_reconfig_runs_are_deterministic():
    """The new reconfiguration path (timers, spawns, sync, retirement) is as
    replayable as everything else."""
    plan, reconfig = replace_dead_replica("ox", 3, seed=7)
    config = ExperimentConfig(
        protocol="algorithm-b",
        scheduler="chaos",
        seed=7,
        replication_factor=3,
        quorum="majority",
        faults=plan,
        reconfig=reconfig,
        workload=WorkloadSpec(reads_per_reader=4, writes_per_writer=3, seed=7),
    )
    first, second = run_twice(config)
    assert trace_hash(first) == trace_hash(second)
    assert metrics_record(first) == metrics_record(second)
    assert first.metrics.reconfig.reconfigs_completed == 1


def _reconfig_family_config(protocol: str, seed: int = 7) -> ExperimentConfig:
    plan, reconfig = replace_dead_replica("ox", 3, seed=seed)
    return ExperimentConfig(
        protocol=protocol,
        scheduler="chaos",
        seed=seed,
        replication_factor=3,
        quorum="majority",
        faults=plan,
        reconfig=reconfig,
        workload=WorkloadSpec(reads_per_reader=4, writes_per_writer=3, seed=seed),
    )


@pytest.mark.parametrize(
    "protocol", ("algorithm-c", "occ-double-collect", "eiger")
)
def test_ported_reconfig_runs_are_deterministic(protocol):
    """The epoch-aware rounds of the newly ported families (C's combined
    read round, OCC's quorum collects, Eiger's two retryable rounds) replay
    identically per seed — trace and metrics — through a full
    replace-dead-replica run."""
    first, second = run_twice(_reconfig_family_config(protocol))
    assert trace_hash(first) == trace_hash(second), protocol
    assert metrics_record(first) == metrics_record(second), protocol
    assert first.metrics.reconfig.reconfigs_completed == 1, protocol


#: a live membership change of each kind, fault-free (s2pl included: only a
#: *dead* replica blocks its lock rounds)
LIVE_CHANGES = {
    "grow": grow_group_mid_run("ox", 3, to_factor=5, at=20)[1],
    "shrink": ReconfigPlan(
        name="shrink", requests=(set_replica_group("ox", ("sx", "sx.2"), at=20),)
    ),
}


@pytest.mark.parametrize("protocol", protocol_names())
@pytest.mark.parametrize("change", sorted(LIVE_CHANGES))
def test_live_membership_changes_are_deterministic(change, protocol):
    """Growing a group (spawns, state transfer) and shrinking one
    (retirement of a live replica) replay identically per seed for every
    family — trace and metrics — and the change really commits."""
    config = ExperimentConfig(
        protocol=protocol,
        scheduler="chaos",
        seed=7,
        replication_factor=3,
        quorum="majority",
        reconfig=LIVE_CHANGES[change],
        workload=WorkloadSpec(reads_per_reader=4, writes_per_writer=3, seed=7),
    )
    first, second = run_twice(config)
    assert trace_hash(first) == trace_hash(second), (change, protocol)
    assert metrics_record(first) == metrics_record(second), (change, protocol)
    assert first.metrics.reconfig.reconfigs_completed == 1, (change, protocol)


def test_different_seeds_differ():
    """Sanity: the determinism checks are not vacuous — a different seed
    produces a different execution for at least one family."""
    base = FAMILY_CONFIGS["algorithm-b"]
    other = base.with_seed(6)
    first = run_experiment(base)
    second = run_experiment(other)
    assert trace_hash(first) != trace_hash(second)
