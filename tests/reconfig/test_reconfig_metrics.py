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
from repro.faults import grow_group_mid_run, replace_dead_replica


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
