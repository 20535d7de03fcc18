"""Tests for the Figure 1(a) feasibility analysis (Figure 1(b) is the filed
``paper`` suite, checked by ``tests/analysis/test_suite_expectations.py``)."""

from __future__ import annotations

import pytest

from repro.core.feasibility import (
    check_setting,
    feasibility_matrix,
    find_violation_in_impossible_cell,
    format_feasibility_matrix,
    paper_expectation,
    run_protocol_once,
    verify_possible_cell,
)
from repro.ioa import FIFOScheduler
from repro.ioa.network import SystemSetting, standard_settings


def setting(name, readers, writers, c2c, servers=2):
    return SystemSetting(name, num_readers=readers, num_writers=writers, num_servers=servers, c2c=c2c)


class TestPaperExpectation:
    def test_mwsr_with_c2c_possible(self):
        possible, reference = paper_expectation(setting("mwsr", 1, 3, True))
        assert possible
        assert "Theorem 3" in reference

    def test_mwsr_without_c2c_impossible(self):
        possible, reference = paper_expectation(setting("mwsr", 1, 3, False))
        assert not possible
        assert "Theorem 2" in reference or "5.1" in reference

    def test_two_clients_follow_mwsr_rule(self):
        assert paper_expectation(setting("two", 1, 1, True))[0]
        assert not paper_expectation(setting("two", 1, 1, False))[0]

    def test_three_clients_impossible_even_with_c2c(self):
        possible, reference = paper_expectation(setting("three", 2, 1, True))
        assert not possible
        assert "Theorem 1" in reference

    def test_single_server_trivially_possible(self):
        assert paper_expectation(setting("one-server", 2, 1, False, servers=1))[0]


class TestPossibleCells:
    def test_two_client_c2c_cell_verified(self):
        verdict = verify_possible_cell(setting("two-clients-c2c", 1, 1, True), schedules=4, workload_rounds=2)
        assert verdict.snow_possible
        assert verdict.protocol == "algorithm-a"
        assert verdict.schedules_checked == 4

    def test_mwsr_c2c_cell_verified(self):
        verdict = verify_possible_cell(setting("mwsr-c2c", 1, 3, True), schedules=3, workload_rounds=2)
        assert verdict.snow_possible

    def test_run_protocol_once_reports_snow(self):
        report = run_protocol_once("algorithm-a", setting("mwsr-c2c", 1, 2, True), FIFOScheduler(), 2, 0)
        assert report.satisfies_snow


class TestImpossibleCells:
    def test_three_client_violation_found(self):
        verdict = find_violation_in_impossible_cell(setting("three-clients-no-c2c", 2, 1, False), schedules=20)
        assert not verdict.snow_possible
        assert verdict.method in ("targeted-adversary", "randomized-search")

    def test_mwsr_no_c2c_violation_found(self):
        verdict = find_violation_in_impossible_cell(setting("mwsr-no-c2c", 1, 2, False), schedules=20)
        assert not verdict.snow_possible

    def test_check_setting_dispatches_by_expectation(self):
        possible = check_setting(setting("mwsr-c2c", 1, 2, True), schedules=2)
        impossible = check_setting(setting("three-clients-c2c", 2, 1, True), schedules=10)
        assert possible.snow_possible
        assert not impossible.snow_possible

    def test_verdict_describe(self):
        verdict = check_setting(setting("two-clients-no-c2c", 1, 1, False), schedules=10)
        text = verdict.describe()
        assert "impossible" in text


class TestFormatting:
    def test_feasibility_matrix_rendering(self):
        """Figure 1(a) over all six standard settings: every verdict is the
        paper's, and the table carries the three population rows."""
        verdicts = feasibility_matrix(schedules=5)
        assert [v.setting.name for v in verdicts] == [s.name for s in standard_settings()]
        for verdict in verdicts:
            assert verdict.snow_possible == paper_expectation(verdict.setting)[0], verdict.describe()
        table = format_feasibility_matrix(verdicts)
        assert "2 clients" in table
        assert "MWSR" in table
        assert ">= 3 clients" in table
