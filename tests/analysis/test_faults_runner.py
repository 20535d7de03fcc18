"""Runner/metrics/sweep integration of the fault plane, and the scheduler registry."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis import (
    ExperimentConfig,
    WorkloadSpec,
    make_scheduler,
    run_experiment,
    run_suite,
    scheduler_names,
    suite_rows,
)
from repro.analysis.sweep import FAULTS
from repro.faults import ChaosScheduler, FaultPlan, fail_stop, lossy_network


class TestSchedulerRegistry:
    def test_all_names_instantiate(self):
        for name in scheduler_names():
            assert make_scheduler(name, seed=1) is not None

    def test_chaos_is_registered(self):
        assert "chaos" in scheduler_names()
        assert isinstance(make_scheduler("chaos", seed=2), ChaosScheduler)

    def test_unknown_name_lists_every_valid_scheduler(self):
        with pytest.raises(ValueError) as excinfo:
            make_scheduler("definitely-not-a-scheduler")
        message = str(excinfo.value)
        assert "definitely-not-a-scheduler" in message
        for name in scheduler_names():
            assert name in message

    def test_register_scheduler_rejects_duplicates(self):
        from repro.analysis import register_scheduler

        with pytest.raises(ValueError):
            register_scheduler("fifo", lambda seed: None)


WORKLOAD = WorkloadSpec(reads_per_reader=4, writes_per_writer=2, read_size=2, write_size=2, seed=5)


def _config(**overrides):
    defaults = dict(
        protocol="simple-rw",
        num_readers=2,
        num_writers=2,
        num_objects=2,
        workload=WORKLOAD,
        scheduler="chaos",
        seed=5,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestRunnerWithFaults:
    def test_no_faults_field_means_no_fault_metrics(self):
        result = run_experiment(_config(scheduler="fifo"))
        assert result.metrics.faults is None

    def test_inert_plan_populates_metrics_with_full_availability(self):
        result = run_experiment(_config(faults=FaultPlan.none()))
        faults = result.metrics.faults
        assert faults is not None
        assert faults.availability == 1.0
        assert faults.submitted == faults.completed == 12

    def test_lossy_plan_counts_retransmissions(self):
        result = run_experiment(_config(faults=lossy_network(seed=5)))
        faults = result.metrics.faults
        assert faults.availability == 1.0
        assert faults.retransmissions > 0
        assert faults.messages_dropped > 0

    def test_fail_stop_reports_partial_availability_instead_of_raising(self):
        result = run_experiment(_config(faults=fail_stop(server="sx", at=4, seed=5)))
        faults = result.metrics.faults
        assert 0.0 <= faults.availability < 1.0
        assert faults.read_availability < 1.0 or faults.write_availability < 1.0
        # completed-only latency is still well-defined
        assert result.metrics.read_latency_steps.count == faults.read_completed

    def test_faulted_config_describe_mentions_the_plan(self):
        assert "lossy" in _config(faults=lossy_network(seed=5)).describe()

    def test_latency_plan_requires_the_chaos_scheduler(self):
        from repro.faults import FixedLatency

        plan = FaultPlan(name="slow", latency=FixedLatency(50))
        with pytest.raises(ValueError, match="chaos"):
            run_experiment(_config(scheduler="fifo", faults=plan))

    def test_virtual_latency_sees_the_latency_model(self):
        """Regression: trace-step latency is blind to virtual-time delays;
        the virtual-clock latency must grow with the configured model."""
        from repro.faults import FixedLatency

        baseline = run_experiment(_config(faults=FaultPlan.none()))
        slowed = run_experiment(_config(faults=FaultPlan(name="slow", latency=FixedLatency(40))))
        base_lat = baseline.metrics.faults.read_latency_virtual
        slow_lat = slowed.metrics.faults.read_latency_virtual
        assert slow_lat.count == base_lat.count > 0
        # each read needs at least one 40-step round trip more than baseline
        assert slow_lat.minimum >= base_lat.minimum + 40
        assert slow_lat.mean > base_lat.mean + 40


def fault_suite(*protocols):
    """The chaos grid on this module's workload and seed."""
    return replace(
        FAULTS, protocols=protocols, seed=5, shared={**FAULTS.shared, "workload": WORKLOAD}
    )


class TestFaultGrid:
    def test_grid_shape_and_rows(self):
        rows = suite_rows(run_suite(fault_suite("simple-rw", "algorithm-b")))
        protocols = {row["protocol"] for row in rows}
        scenarios = {row["scenario"] for row in rows}
        assert protocols == {"simple-rw", "algorithm-b"}
        assert len(scenarios) >= 5 and "none" in scenarios
        assert len(rows) == len(protocols) * len(scenarios)
        for row in rows:
            assert "availability" in row and "snow" in row

    def test_default_crash_scenario_targets_a_real_server(self):
        rows = suite_rows(run_suite(fault_suite("simple-rw")))
        crash_row = [r for r in rows if r["scenario"] == "crash-recover"][0]
        assert crash_row["crashes"] == 1  # the crash actually happened
