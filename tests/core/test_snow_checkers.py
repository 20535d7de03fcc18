"""Unit tests for the N/O/W property checkers and the aggregate SNOW report."""

from __future__ import annotations

import pytest

from repro.core.snow import (
    ReadTransactionReport,
    SnowReport,
    analyze_read_transaction,
    blocking_servers_for,
    check_snow,
    round_trips_per_server,
    versions_in_replies,
)
from repro.ioa import FIFOScheduler, RandomScheduler
from tests.conftest import build_system, run_simple_workload


class TestReadTransactionReport:
    def test_one_round_one_version(self):
        report = ReadTransactionReport(
            txn_id="R1",
            reader="r1",
            non_blocking=True,
            blocking_servers=(),
            rounds=1,
            round_trips_per_server={"sx": 1, "sy": 1},
            max_versions_in_reply=1,
        )
        assert report.one_round
        assert report.one_version
        assert report.satisfies_o

    def test_two_rounds_not_one_round(self):
        report = ReadTransactionReport(
            txn_id="R1",
            reader="r1",
            non_blocking=True,
            blocking_servers=(),
            rounds=2,
            round_trips_per_server={"sx": 2},
            max_versions_in_reply=1,
        )
        assert not report.one_round

    def test_multi_version_not_one_version(self):
        report = ReadTransactionReport(
            txn_id="R1",
            reader="r1",
            non_blocking=True,
            blocking_servers=(),
            rounds=1,
            round_trips_per_server={"sx": 1},
            max_versions_in_reply=3,
        )
        assert report.one_round and not report.one_version


class TestSnowReportFlags:
    def make(self, **overrides):
        defaults = dict(
            strict_serializable=True,
            non_blocking=True,
            one_round=True,
            one_version=True,
            writes_complete=True,
            conflicting_writes_present=True,
        )
        defaults.update(overrides)
        return SnowReport(**defaults)

    def test_full_snow(self):
        report = self.make()
        assert report.satisfies_snow
        assert report.property_string() == "SNOW"

    def test_missing_s(self):
        report = self.make(strict_serializable=False)
        assert not report.satisfies_snow
        assert report.property_string() == "sNOW"

    def test_missing_o_via_rounds(self):
        report = self.make(one_round=False)
        assert report.property_string() == "SNoW"
        assert report.satisfies_snw

    def test_missing_n(self):
        report = self.make(non_blocking=False)
        assert report.property_string() == "SnOW"

    def test_missing_w(self):
        report = self.make(writes_complete=False)
        assert report.property_string() == "SNOw"
        assert not report.satisfies_w


class TestTraceLevelCheckers:
    def test_algorithm_a_is_non_blocking_one_round_one_version(self):
        handle = build_system("algorithm-a", num_writers=2)
        read_ids, _ = run_simple_workload(handle, rounds=2)
        trace = handle.trace()
        servers = handle.servers
        for read_id in read_ids:
            assert blocking_servers_for(trace, read_id, handle.readers[0], servers) == ()
            trips = round_trips_per_server(trace, read_id, handle.readers[0], servers)
            assert all(count == 1 for count in trips.values())
            max_versions, replies = versions_in_replies(trace, read_id, handle.readers[0], servers)
            assert max_versions == 1
            assert replies == len(handle.objects)

    def test_algorithm_b_uses_two_requests_at_coordinator(self):
        handle = build_system("algorithm-b", num_readers=1, num_writers=1)
        read_ids, _ = run_simple_workload(handle, rounds=1)
        trips = round_trips_per_server(handle.trace(), read_ids[0], handle.readers[0], handle.servers)
        # coordinator (first server) answers both the tag-array and the value request
        assert trips[handle.servers[0]] == 2
        assert trips[handle.servers[1]] == 1

    def test_algorithm_c_replies_carry_multiple_versions(self):
        handle = build_system("algorithm-c", num_readers=1, num_writers=2)
        read_ids, _ = run_simple_workload(handle, rounds=2)
        max_versions, _ = versions_in_replies(
            handle.trace(), read_ids[-1], handle.readers[0], handle.servers
        )
        assert max_versions > 1

    def test_blocking_protocol_flagged_by_n_checker(self):
        handle = build_system("s2pl", num_readers=2, num_writers=2, scheduler=RandomScheduler(seed=11))
        run_simple_workload(handle, rounds=2)
        report = check_snow(handle.simulation, handle.history())
        assert not report.non_blocking or report.satisfies_snow is False
        # With contention under a random schedule some read must have been deferred.
        assert any(not r.non_blocking for r in report.read_reports) or report.non_blocking


class TestAggregateCheck:
    def test_check_snow_on_algorithm_a(self):
        handle = build_system("algorithm-a", num_writers=2)
        run_simple_workload(handle, rounds=2)
        report = check_snow(handle.simulation, handle.history())
        assert report.satisfies_snow
        assert report.max_rounds() == 1
        assert report.max_versions() == 1
        assert report.conflicting_writes_present in (True, False)

    def test_check_snow_detects_missing_o_for_b(self):
        handle = build_system("algorithm-b", num_readers=2, num_writers=2)
        run_simple_workload(handle, rounds=2)
        report = check_snow(handle.simulation, handle.history())
        assert report.property_string() == "SNoW"
        assert report.max_rounds() == 2

    def test_check_snow_detects_multi_version_for_c(self):
        handle = build_system("algorithm-c", num_readers=2, num_writers=2)
        run_simple_workload(handle, rounds=2)
        report = check_snow(handle.simulation, handle.history())
        assert report.satisfies_snw
        assert not report.one_version

    @pytest.mark.parametrize("protocol", ("algorithm-a", "algorithm-b", "algorithm-c", "eiger"))
    def test_one_read_analysed_alone_reports_as_in_the_aggregate(self, protocol):
        handle = build_system(protocol, num_readers=2, num_writers=2)
        run_simple_workload(handle, rounds=2)
        reads = [
            record for record in handle.simulation.transaction_records()
            if record.txn.is_read() and record.complete
        ]
        report = check_snow(handle.simulation, handle.history())
        assert [analyze_read_transaction(handle.simulation, record) for record in reads] == list(report.read_reports)

    def test_report_describe_lists_reads(self):
        handle = build_system("algorithm-a", num_writers=1)
        read_ids, _ = run_simple_workload(handle, rounds=1)
        report = check_snow(handle.simulation, handle.history())
        text = report.describe()
        assert "SNOW report" in text
        assert read_ids[0] in text

    def test_incomplete_write_breaks_w(self):
        handle = build_system("algorithm-a", num_writers=1)
        handle.submit_write({"ox": 1, "oy": 1}, writer="w1")
        # Never run the simulation to completion: stop after a few steps.
        handle.simulation.run(max_new_steps=3)
        report = check_snow(handle.simulation, handle.history())
        assert not report.writes_complete
        assert not report.satisfies_snow
