"""Tests for the Figure 1(a) feasibility analysis (Figure 1(b) is the filed
``paper`` suite, checked by ``tests/analysis/test_suite_expectations.py``).

Each cell is read off the exhaustive search (:mod:`repro.proofs.exhaust`);
the uncut matrix, whose MWSR cell with C2C runs ~20,000 schedules, is in
``tests/proofs/exhaust_cells.py``.
"""

from __future__ import annotations

import pytest

from repro.core.feasibility import (
    check_setting,
    feasibility_matrix,
    format_feasibility_matrix,
    paper_expectation,
)
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
    def test_two_client_c2c_cell_runs_every_trace(self):
        verdict = check_setting(setting("two-clients-c2c", 1, 1, True))
        assert verdict.snow_possible and verdict.complete
        assert (verdict.protocol, verdict.finished, verdict.pruned, verdict.violating) == ("algorithm-a", 52, 94, 0)
        assert verdict.witness is None
        assert verdict.describe().endswith("algorithm-a: all 52 traces satisfy SNOW (146 runs, search complete)")

    def test_a_cut_search_says_so(self):
        verdict = check_setting(setting("mwsr-c2c", 1, 2, True), max_runs=40)
        assert verdict.snow_possible and not verdict.complete
        assert verdict.finished + verdict.pruned == 40
        assert verdict.describe().endswith(f"all {verdict.finished} traces satisfy SNOW (40 runs, search cut)")

    def test_a_violating_trace_refutes_the_cell(self, monkeypatch):
        """Algorithm A's reader recording each WRITE for its first object only
        returns fractured reads: the cell counts the traces that break SNOW
        and keeps the first one."""
        from repro.protocols.algorithm_a import AlgorithmAReader

        def record_first_object_only(self, message, ctx):
            tag = self.list.append(message.get("key"), {self.objects[0]: 1})
            ctx.send(message.src, "ack-info", {"txn": message.get("txn"), "tag": tag}, phase="info-reader")

        monkeypatch.setattr(AlgorithmAReader, "on_message", record_first_object_only)
        verdict = check_setting(setting("two-clients-c2c", 1, 1, True))
        assert not verdict.snow_possible and verdict.cell() == "no"
        assert verdict.witness and verdict.violating <= verdict.finished
        assert f"{verdict.violating} of {verdict.finished} traces violate SNOW" in verdict.describe()


class TestImpossibleCells:
    @pytest.mark.parametrize(
        "name, readers, writers, c2c, runs",
        [
            ("two-clients-no-c2c", 1, 1, False, 7),
            ("mwsr-no-c2c", 1, 2, False, 125),
            ("three-clients-c2c", 2, 1, True, 7),
            ("three-clients-no-c2c", 2, 1, False, 7),
        ],
    )
    def test_the_first_violating_trace_decides_the_cell(self, name, readers, writers, c2c, runs):
        verdict = check_setting(setting(name, readers, writers, c2c))
        assert not verdict.snow_possible and verdict.cell() == "no"
        assert (verdict.protocol, verdict.violating, verdict.finished + verdict.pruned) == ("naive-snow", 1, runs)
        assert len(verdict.witness) > 0
        assert "impossible" in verdict.describe()
        assert verdict.describe().endswith(f"violates S ({runs} runs, stopped at the first violation)")

    def test_no_witness_no_verdict(self):
        """A search cut before its first violation raises: no impossible cell
        stands on the paper's word alone."""
        with pytest.raises(RuntimeError, match="no trace of naive-snow violates S in 6 runs"):
            check_setting(setting("three-clients-c2c", 2, 1, True), max_runs=6)


class TestFormatting:
    def test_feasibility_matrix_rendering(self):
        """Figure 1(a) over all six standard settings: every verdict is the
        paper's, and the table carries the three population rows."""
        verdicts = feasibility_matrix(max_runs=200)
        assert [v.setting.name for v in verdicts] == [s.name for s in standard_settings()]
        for verdict in verdicts:
            assert verdict.snow_possible == paper_expectation(verdict.setting)[0], verdict.describe()
        table = format_feasibility_matrix(verdicts)
        assert "2 clients" in table
        assert "MWSR" in table
        assert ">= 3 clients" in table
