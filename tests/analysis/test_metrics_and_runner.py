"""Tests for metric aggregation, the experiment runner, sweeps and reporting."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.analysis import (
    AggregateStats,
    ExperimentConfig,
    WorkloadSpec,
    collect_metrics,
    compare_protocols,
    format_latency_comparison,
    format_markdown_table,
    format_series,
    format_table,
    latency_comparison_rows,
    make_scheduler,
    percentile,
    run_experiment,
    run_many,
    run_suite,
)
from repro.analysis.sweep import READ_SIZE, ROUNDS_VS_CONTENTION, VERSIONS_VS_WRITERS
from repro.ioa import FIFOScheduler, LIFOScheduler, RandomScheduler
from tests.conftest import build_system, run_simple_workload


class TestAggregateStats:
    def test_percentile_nearest_rank(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        assert percentile(values, 0.5) == 5
        assert percentile(values, 0.95) == 10
        assert math.isnan(percentile([], 0.5))

    def test_from_values(self):
        stats = AggregateStats.from_values([1, 2, 3, 4])
        assert stats.count == 4
        assert stats.mean == pytest.approx(2.5)
        assert stats.minimum == 1 and stats.maximum == 4

    def test_empty_values(self):
        stats = AggregateStats.from_values([])
        assert stats.count == 0
        assert math.isnan(stats.mean)
        assert stats.describe() == "n=0"

    def test_describe_formats(self):
        assert "p95" in AggregateStats.from_values([1, 2, 3]).describe()


class TestCollectMetrics:
    def test_metrics_from_algorithm_a_run(self):
        handle = build_system("algorithm-a", num_writers=2)
        read_ids, write_ids = run_simple_workload(handle, rounds=2)
        metrics = collect_metrics(handle.simulation, protocol_name="algorithm-a")
        assert len(metrics.reads()) == len(read_ids)
        assert len(metrics.writes()) == len(write_ids)
        assert metrics.max_read_rounds() == 1
        assert metrics.max_versions() == 1
        assert metrics.total_messages > 0
        assert metrics.total_steps > 0

    def test_metrics_capture_versions_for_algorithm_c(self):
        handle = build_system("algorithm-c", num_readers=1, num_writers=2)
        run_simple_workload(handle, rounds=2)
        metrics = collect_metrics(handle.simulation, protocol_name="algorithm-c")
        assert metrics.max_versions() > 1

    def test_describe_lists_sections(self):
        handle = build_system("algorithm-b", num_readers=1, num_writers=1)
        run_simple_workload(handle, rounds=1)
        text = collect_metrics(handle.simulation, "algorithm-b").describe()
        assert "read rounds" in text and "write latency" in text


class TestRunner:
    def test_make_scheduler(self):
        assert isinstance(make_scheduler("fifo"), FIFOScheduler)
        assert isinstance(make_scheduler("lifo"), LIFOScheduler)
        assert isinstance(make_scheduler("random", seed=3), RandomScheduler)
        with pytest.raises(ValueError):
            make_scheduler("quantum")

    def test_run_experiment_end_to_end(self):
        config = ExperimentConfig(
            protocol="algorithm-b",
            num_readers=2,
            num_writers=2,
            num_objects=3,
            workload=WorkloadSpec(reads_per_reader=3, writes_per_writer=2, seed=1),
            scheduler="random",
            seed=1,
        )
        result = run_experiment(config)
        assert result.protocol == "algorithm-b"
        assert result.snow is not None and result.snow.satisfies_snw
        assert result.metrics.max_read_rounds() == 2
        assert len(result.read_ids) == 6
        assert "algorithm-b" in result.describe()

    def test_run_experiment_without_property_checks(self):
        config = ExperimentConfig(protocol="simple-rw", check_properties=False)
        result = run_experiment(config)
        assert result.snow is None
        assert result.property_string() == "????"

    def test_single_reader_protocols_clamped(self):
        config = ExperimentConfig(protocol="algorithm-a", num_readers=3, num_writers=2)
        result = run_experiment(config)
        assert result.snow.satisfies_snow

    def test_with_seed_rebinds_workload_seed(self):
        config = ExperimentConfig(protocol="algorithm-b").with_seed(9)
        assert config.seed == 9
        assert config.workload.seed == 9

    def test_run_many_and_compare(self):
        results = compare_protocols(
            ["simple-rw", "algorithm-a"],
            workload=WorkloadSpec(reads_per_reader=2, writes_per_writer=1, seed=0),
            num_objects=2,
            check_properties=False,
        )
        assert [r.protocol for r in results] == ["simple-rw", "algorithm-a"]
        assert all(r.metrics.reads() for r in results)


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(["a", "bbbb"], [[1, 2], ["long-value", 4]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bbbb" in lines[1]
        assert len(lines) == 5

    def test_format_markdown_table(self):
        text = format_markdown_table(["x", "y"], [[1, 2]])
        assert text.splitlines()[1] == "|---|---|"
        assert "| 1 | 2 |" in text

    def test_latency_comparison_rows(self):
        results = compare_protocols(
            ["simple-rw", "algorithm-b"],
            workload=WorkloadSpec(reads_per_reader=2, writes_per_writer=1, seed=2),
            check_properties=True,
        )
        rows = latency_comparison_rows(results)
        assert len(rows) == 2
        table = format_latency_comparison(results)
        assert "protocol" in table and "algorithm-b" in table

    def test_format_series(self):
        text = format_series("x", {"s1": [(1, 10), (2, 20)], "s2": [(1, 5)]}, title="series")
        assert "series" in text
        assert "10" in text and "20" in text


class TestSweeps:
    def test_versions_vs_writers_sweep_is_monotone_ish(self):
        suite = replace(
            VERSIONS_VS_WRITERS,
            seed=1,
            axes={"writers": (1, 3)},
            shared={
                **VERSIONS_VS_WRITERS.shared,
                "workload": WorkloadSpec(reads_per_reader=4, writes_per_writer=3, read_size=3, write_size=3),
            },
        )
        (sweep,) = run_suite(suite).series().values()
        series = sweep.max_versions_series()
        assert len(series) == 2
        assert series[1][1] >= series[0][1]

    def test_rounds_vs_contention_sweep_shapes(self):
        suite = replace(
            ROUNDS_VS_CONTENTION,
            protocols=("algorithm-b", "occ-double-collect"),
            seed=2,
            axes={"writers": (1, 3)},
        )
        sweeps = run_suite(suite).series()
        b_rounds = dict(sweeps["algorithm-b"].max_rounds_series())
        occ_rounds = dict(sweeps["occ-double-collect"].max_rounds_series())
        assert set(b_rounds.values()) == {2}
        assert occ_rounds[3] >= occ_rounds[1] >= 2

    def test_read_size_sweep_includes_all_protocols(self):
        suite = replace(
            READ_SIZE,
            protocols=("simple-rw", "algorithm-b"),
            axes={"objects per read": (1, 2)},
            shared={**READ_SIZE.shared, "num_objects": 3},
        )
        sweeps = run_suite(suite).series()
        assert set(sweeps) == {"simple-rw", "algorithm-b"}
        assert len(sweeps["simple-rw"].mean_read_latency_series()) == 2
