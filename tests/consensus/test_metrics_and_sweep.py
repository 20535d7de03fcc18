"""ConsensusMetrics collection and the failover sweep's machine-readable rows."""

from __future__ import annotations

from dataclasses import replace

from repro.analysis import (
    ExperimentConfig,
    WorkloadSpec,
    run_experiment,
    run_suite,
    suite_rows,
)
from repro.analysis.sweep import FAILOVER
from repro.faults import coordinator_failover


def run_one(consensus_factor: int, faults=None):
    return run_experiment(
        ExperimentConfig(
            protocol="algorithm-b",
            num_readers=2,
            num_writers=2,
            num_objects=2,
            workload=WorkloadSpec(reads_per_reader=4, writes_per_writer=2, seed=11),
            scheduler="chaos",
            seed=11,
            faults=faults,
            consensus_factor=consensus_factor,
        )
    )


def test_consensus_metrics_absent_at_cf1():
    assert run_one(1).metrics.consensus is None


def test_consensus_metrics_fault_free():
    metrics = run_one(3).metrics.consensus
    assert metrics is not None
    assert metrics.members == 3
    assert metrics.elections == 0 and metrics.leaders_elected == 0
    assert metrics.max_term == 1
    # Every coordinator request was applied exactly once, with a measured
    # commit latency.
    assert metrics.entries_applied > 0
    assert metrics.commit_latency.count == metrics.entries_applied
    assert metrics.commit_latency.mean > 0
    assert "commit_latency_mean" in metrics.as_dict()


def test_consensus_metrics_under_failover():
    metrics = run_one(3, faults=coordinator_failover(leader="coor", at=14, seed=11)).metrics.consensus
    assert metrics.leaders_elected >= 1
    assert metrics.elections >= metrics.leaders_elected
    assert metrics.max_term >= 2
    assert metrics.leader_elected_at  # vtimes recorded for window analysis


def test_failover_suite_rows_tell_the_story():
    suite = replace(
        FAILOVER,
        protocols=("algorithm-b",),
        shared={**FAILOVER.shared, "workload": WorkloadSpec(reads_per_reader=4, writes_per_writer=2)},
    )
    rows = suite_rows(run_suite(suite))
    cells = {(r["consensus_factor"], r["scenario"]): r for r in rows}
    assert set(cells) == {(1, "none"), (1, "crash-leader"), (3, "none"), (3, "crash-leader")}

    # Factor 1: the leader crash is the seed's single point of failure.
    assert cells[(1, "crash-leader")]["availability"] < 1.0

    # Factor 3: full availability through the failover, verdict unchanged,
    # and the election counters witness the re-election.
    crashed, baseline = cells[(3, "crash-leader")], cells[(3, "none")]
    assert crashed["availability"] == 1.0
    assert crashed["snow"] == baseline["snow"]
    assert crashed["consistent"] is True
    assert crashed["leaders_elected"] >= 1 and crashed["max_term"] >= 2
    assert baseline["elections"] == 0
