"""End-to-end integration tests: the whole pipeline from workload to verdicts.

These tests exercise the stack the way the benchmark harness and the examples
do — protocol registry → build → workload generation → simulation →
history/trace → property checkers → analysis tables — and pin the headline
results of the paper:

* the Figure 1(a) boundary (algorithm A verified in every trace of the
  possible cells searched, the naive candidate broken in the impossible ones);
* the impossibility replays of Theorems 1 and 2;
* the Eiger correction of Section 6.

The Figure 1(b) matrix and the latency comparison against simple reads are
the filed ``paper`` suite, whose claims ``tests/analysis`` checks.
"""

from __future__ import annotations

from repro.analysis import ExperimentConfig, WorkloadSpec, run_experiment
from repro.core.feasibility import check_setting, paper_expectation
from repro.ioa.network import SystemSetting, standard_settings
from repro.proofs import c2c_breaks_the_chain, replay_theorem1, replay_theorem2, run_figure5


class TestFigure1aBoundary:
    def test_possible_cells_verified_with_algorithm_a(self):
        """Every trace of the two-client cell, and the two-writer cell's first
        300 runs (its uncut search is in ``tests/proofs/exhaust_cells.py``)."""
        for name, readers, writers in (("two-clients-c2c", 1, 1), ("mwsr-c2c", 1, 2)):
            setting = SystemSetting(name, num_readers=readers, num_writers=writers, num_servers=2, c2c=True)
            verdict = check_setting(setting, max_runs=300)
            assert verdict.snow_possible and verdict.protocol == "algorithm-a"
            assert verdict.complete == (writers == 1)

    def test_impossible_cells_witnessed_by_naive_candidate(self):
        for name, readers, writers, c2c in (
            ("two-clients-no-c2c", 1, 1, False),
            ("three-clients-c2c", 2, 1, True),
        ):
            setting = SystemSetting(name, num_readers=readers, num_writers=writers, num_servers=2, c2c=c2c)
            verdict = check_setting(setting)
            assert not verdict.snow_possible
            assert verdict.protocol == "naive-snow" and verdict.violating == 1 and verdict.witness

    def test_expectations_match_figure_1a(self):
        expected = {
            "two-clients-c2c": True,
            "two-clients-no-c2c": False,
            "mwsr-c2c": True,
            "mwsr-no-c2c": False,
            "three-clients-c2c": False,
            "three-clients-no-c2c": False,
        }
        for setting in standard_settings():
            assert paper_expectation(setting)[0] == expected[setting.name]


class TestImpossibilityReplays:
    def test_theorem1_and_theorem2_replays_reach_contradictions(self):
        assert replay_theorem1().ok
        assert replay_theorem2().ok

    def test_c2c_is_exactly_what_blocks_theorem2(self):
        blocked, _ = c2c_breaks_the_chain()
        assert blocked


class TestEigerCorrection:
    def test_figure5_end_to_end(self):
        result = run_figure5()
        assert result.anomaly_reproduced
        assert result.snow_report.non_blocking
        assert not result.snow_report.strict_serializable


class TestRunnerRoundTrip:
    def test_single_experiment_round_trip(self):
        result = run_experiment(
            ExperimentConfig(
                protocol="algorithm-c",
                num_readers=2,
                num_writers=2,
                num_objects=3,
                workload=WorkloadSpec(reads_per_reader=3, writes_per_writer=2, seed=11),
                scheduler="random",
                seed=11,
            )
        )
        assert result.snow.satisfies_snw
        assert result.metrics.total_messages > 0
        assert len(result.history) == len(result.read_ids) + len(result.write_ids)
