"""ReconfigMetrics collection and the reconfiguration sweep grid."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis import (
    ExperimentConfig,
    ReconfigMetrics,
    WorkloadSpec,
    run_experiment,
    run_suite,
    suite_rows,
)
from repro.analysis.sweep import RECONFIG
from repro.analysis import collect_metrics
from repro.consensus import ReconfigPlan
from repro.faults import (
    ChaosScheduler,
    CrashEvent,
    FaultPlan,
    UniformLatency,
    grow_group_mid_run,
    replace_dead_replica,
)
from repro.ioa import RandomScheduler
from repro.protocols import protocol_names

from tests.reconfig.conftest import run_reconfig_workload
from tests.reconfig.test_storage_reconfig import QUORUM_FAMILIES
from tests.replication.test_golden_rounds import epoch_swap


def run_replace(protocol="algorithm-b", seed=13):
    plan, reconfig = replace_dead_replica("ox", 3, seed=seed)
    config = ExperimentConfig(
        protocol=protocol,
        scheduler="chaos",
        seed=seed,
        replication_factor=3,
        quorum="majority",
        faults=plan,
        reconfig=reconfig,
        workload=WorkloadSpec(reads_per_reader=5, writes_per_writer=3, seed=seed),
    )
    return run_experiment(config)


class TestReconfigMetrics:
    def test_block_absent_without_plan(self):
        config = ExperimentConfig(
            protocol="algorithm-b",
            workload=WorkloadSpec(reads_per_reader=2, writes_per_writer=2, seed=1),
        )
        assert run_experiment(config).metrics.reconfig is None

    def test_replace_scenario_accounting(self):
        result = run_replace()
        block = result.metrics.reconfig
        assert isinstance(block, ReconfigMetrics)
        assert block.epochs == 2
        assert block.reconfigs_completed == 1
        assert block.joint_windows == 1
        assert block.retired_servers == 1
        assert block.transfer_versions >= 1
        assert block.epoch_retries == 0
        assert block.unavailability_window == 0

    def test_availability_and_verdict(self):
        result = run_replace()
        assert result.metrics.faults.availability == 1.0
        assert result.snow.satisfies_s is True

    def test_as_dict_and_describe(self):
        block = run_replace().metrics.reconfig
        record = block.as_dict()
        assert set(record) == {
            "epochs",
            "reconfigs_completed",
            "joint_windows",
            "transfer_versions",
            "epoch_retries",
            "unavailability_window",
            "retired_servers",
        }
        assert "epochs=2" in block.describe()

    def test_grow_scenario_transfers_to_every_added_replica(self):
        _, reconfig = grow_group_mid_run("ox", 3, to_factor=5)
        config = ExperimentConfig(
            protocol="algorithm-a",
            num_readers=1,
            scheduler="chaos",
            seed=13,
            replication_factor=3,
            quorum="majority",
            reconfig=reconfig,
            workload=WorkloadSpec(reads_per_reader=5, writes_per_writer=3, seed=13),
        )
        block = run_experiment(config).metrics.reconfig
        assert block.reconfigs_completed == 1
        assert block.retired_servers == 0
        assert block.transfer_versions >= 2


@pytest.mark.parametrize("protocol", QUORUM_FAMILIES)
def test_replace_accounting_holds_for_every_quorum_family(protocol):
    """The block's figures come from the directory, not from one family's
    rounds: every quorum family's replacement reads as one committed change,
    one retired server, zero retries and full availability.  (How many
    versions the sync moves depends on how many writes landed first — OCC's
    register may still be at its initial timestamp — so it is not pinned.)"""
    result = run_replace(protocol)
    block = result.metrics.reconfig
    assert (block.epochs, block.reconfigs_completed, block.joint_windows) == (2, 1, 1)
    assert block.retired_servers == 1
    assert (block.epoch_retries, block.unavailability_window) == (0, 0)
    assert result.metrics.faults.availability == 1.0


@pytest.mark.parametrize("protocol", protocol_names())
def test_grow_accounting_holds_for_every_family(protocol):
    """Growth rf 3 → 5 reads as one committed change that retires nobody,
    for every family (s2pl too: a live change does not block its lock
    rounds).  A fault-free experiment runs to completion, so every
    transaction across the change finishes."""
    _, reconfig = grow_group_mid_run("ox", 3, to_factor=5)
    config = ExperimentConfig(
        protocol=protocol,
        scheduler="chaos",
        seed=13,
        replication_factor=3,
        quorum="majority",
        reconfig=reconfig,
        workload=WorkloadSpec(reads_per_reader=5, writes_per_writer=3, seed=13),
    )
    block = run_experiment(config).metrics.reconfig
    assert (block.epochs, block.reconfigs_completed, block.joint_windows) == (2, 1, 1)
    assert block.retired_servers == 0


def epoch_retry_cell(plan=None, seed=3):
    """Algorithm A's cell of the epoch-retry grid (``test_golden_rounds.py``):
    ``R1`` meets the ``oy`` swap mid-round and retries once.  Returns the
    handle, its reconfiguration block and the trace's epoch-retry actions."""
    handle = run_reconfig_workload(
        "algorithm-a",
        reconfig=ReconfigPlan(requests=(epoch_swap("algorithm-a"),)),
        plan=plan,
        rounds=6,
        scheduler=ChaosScheduler(base=RandomScheduler(seed=seed), seed=seed),
        seed=seed,
        run_to_completion=False,
    )
    metrics = collect_metrics(
        handle.simulation,
        protocol_name="algorithm-a",
        placement=handle.placement,
        quorum_policy=handle.quorum_policy,
        directory=handle.directory,
    )
    retries = [(a.get("txn"), a.get("vtime")) for a in handle.trace() if a.get("reconfig") == "epoch-retry"]
    return handle, metrics.reconfig, retries


def record_of(handle, txn_id):
    return next(r for r in handle.simulation.transaction_records() if r.txn_id == txn_id)


class TestEpochRetryWindow:
    """The unavailability window is the longest span one transaction spent
    behind epoch retries: from its first retry (the trace's ``epoch-retry``
    action) to its response, or to the final clock when it never responds."""

    def test_a_read_that_retries_then_responds(self):
        handle, block, retries = epoch_retry_cell(plan=FaultPlan(latency=UniformLatency(0, 6), seed=3))
        assert retries == [("R1", 41)]
        assert block.epoch_retries == 1
        assert not handle.simulation.incomplete_transactions()
        assert block.unavailability_window == record_of(handle, "R1").respond_vtime - 41 == 16

    def test_a_read_that_retries_and_never_responds(self):
        """The two old ``oy`` replicas left in the new group fail-stop as R1
        retries, so no read quorum ever answers it again."""
        plan = FaultPlan(
            latency=UniformLatency(0, 6),
            crashes=(CrashEvent("sy", at=41), CrashEvent("sy.2", at=41)),
            seed=3,
        )
        handle, block, retries = epoch_retry_cell(plan=plan)
        assert retries == [("R1", 41)]
        assert not record_of(handle, "R1").complete
        assert block.unavailability_window == handle.simulation.now() - 41 == 28

    def test_without_a_fault_plane_the_window_ends_at_the_last_retry(self):
        """Without a fault plane no response vtime is recorded, so the span
        runs from the first retry to the last: one retry, one step."""
        handle, block, retries = epoch_retry_cell(seed=4)
        assert retries == [("R1", 45)]
        assert record_of(handle, "R1").complete
        assert block.unavailability_window == 1


class TestSweep:
    @pytest.fixture(scope="class")
    def grid(self):
        workload = WorkloadSpec(reads_per_reader=4, writes_per_writer=2, read_size=2, write_size=2)
        return run_suite(
            replace(RECONFIG, protocols=("algorithm-b",), shared={**RECONFIG.shared, "workload": workload})
        )

    def test_grid_shape(self, grid):
        assert {protocol for protocol, _scenario in grid.cells} == {"algorithm-b"}
        assert {scenario for _protocol, scenario in grid.cells} == {
            "none",
            "replace-dead-replica",
            "grow-group",
            "lossy-replace-p05",
            "lossy-replace-p15",
            "lossy-replace-p30",
        }

    def test_rows_carry_reconfig_columns(self, grid):
        rows = suite_rows(grid)
        by_scenario = {r["scenario"]: r for r in rows}
        assert "epochs" not in by_scenario["none"]
        assert by_scenario["replace-dead-replica"]["epochs"] == 2
        assert by_scenario["grow-group"]["transfer_versions"] >= 2

    def test_acceptance_row(self, grid):
        """The acceptance criteria of the reconfiguration layer, as data."""
        rows = suite_rows(grid)
        by_scenario = {r["scenario"]: r for r in rows}
        replaced = by_scenario["replace-dead-replica"]
        assert replaced["availability"] == 1.0
        assert replaced["unavailability_window"] == 0
        assert replaced["snow"] == by_scenario["none"]["snow"]
        assert replaced["consistent"] is True
