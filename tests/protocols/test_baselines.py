"""Tests for the baseline protocols: naive SNOW candidate, strict 2PL, OCC, simple reads."""

from __future__ import annotations

import pytest

from repro.ioa import AdversarialScheduler, FIFOScheduler, RandomScheduler
from repro.protocols import LockingProtocol, NaiveSnowCandidate, SimpleReadWrite
from tests.conftest import build_system, run_simple_workload


class TestNaiveSnowCandidate:
    def test_now_properties_hold(self):
        handle = build_system("naive-snow", num_readers=2, num_writers=2, scheduler=RandomScheduler(seed=2))
        run_simple_workload(handle, rounds=2)
        report = handle.snow_report()
        assert report.non_blocking
        assert report.one_round and report.one_version
        assert report.writes_complete

    def test_sequential_use_is_serializable(self):
        handle = build_system("naive-snow", num_readers=1, num_writers=1)
        w = handle.submit_write({"ox": 1, "oy": 1})
        r = handle.submit_read(after=[w])
        handle.run_to_completion()
        assert handle.serializability().ok

    def test_s_violation_exists_under_some_schedule(self):
        violated = False
        for seed in range(1, 30):
            handle = build_system(
                "naive-snow", num_readers=2, num_writers=2, scheduler=RandomScheduler(seed=seed), seed=seed
            )
            run_simple_workload(handle, rounds=2)
            if not handle.serializability().ok:
                violated = True
                break
        assert violated, "the naive candidate should produce a fractured read under some schedule"

    def test_simple_rw_alias(self):
        protocol = SimpleReadWrite()
        assert protocol.name == "simple-rw"
        assert isinstance(protocol, NaiveSnowCandidate)


class TestLockingBaseline:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_strictly_serializable_under_contention(self, seed):
        scheduler = FIFOScheduler() if seed == 0 else RandomScheduler(seed=seed)
        handle = build_system(
            "s2pl", num_readers=2, num_writers=2, num_objects=3, scheduler=scheduler, seed=seed
        )
        run_simple_workload(handle, rounds=3)
        assert handle.serializability().ok

    def test_writes_and_reads_all_complete(self):
        handle = build_system("s2pl", num_readers=2, num_writers=3, scheduler=RandomScheduler(seed=7))
        read_ids, write_ids = run_simple_workload(handle, rounds=3)
        records = {r.txn_id: r for r in handle.transaction_records()}
        assert all(records[t].complete for t in read_ids + write_ids)

    def test_blocking_detected_under_contention(self):
        """At least one schedule must show a read deferred behind a write lock."""
        saw_blocking = False
        for seed in range(1, 15):
            handle = build_system(
                "s2pl", num_readers=2, num_writers=2, scheduler=RandomScheduler(seed=seed), seed=seed
            )
            run_simple_workload(handle, rounds=2)
            report = handle.snow_report()
            if not report.non_blocking:
                saw_blocking = True
                break
        assert saw_blocking

    def test_reads_are_multi_round(self):
        handle = build_system("s2pl", num_readers=1, num_writers=1)
        r = handle.submit_read()
        handle.run_to_completion()
        assert handle.simulation.transaction_record(r).rounds == len(handle.objects)

    def test_metadata(self):
        protocol = LockingProtocol()
        assert protocol.claimed_read_rounds is None
        assert "S" in protocol.claimed_properties


class TestOccBaseline:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_strictly_serializable_under_contention(self, seed):
        scheduler = FIFOScheduler() if seed == 0 else RandomScheduler(seed=seed)
        handle = build_system(
            "occ-double-collect", num_readers=2, num_writers=3, num_objects=2, scheduler=scheduler, seed=seed
        )
        run_simple_workload(handle, rounds=2)
        assert handle.serializability().ok, handle.serializability().describe()

    def test_non_blocking_and_one_version(self):
        handle = build_system("occ-double-collect", num_readers=2, num_writers=2, scheduler=RandomScheduler(seed=4))
        run_simple_workload(handle, rounds=2)
        report = handle.snow_report()
        assert report.non_blocking
        assert report.one_version

    def test_quiescent_read_needs_exactly_two_collects(self):
        handle = build_system("occ-double-collect", num_readers=1, num_writers=1)
        r = handle.submit_read()
        handle.run_to_completion()
        record = handle.simulation.transaction_record(r)
        assert record.annotations.get("collects") == 2
        assert record.rounds == 2

    def test_rounds_grow_under_contention(self):
        """With concurrent writers some read needs more than the minimum two collects."""
        saw_retry = False
        for seed in range(1, 20):
            handle = build_system(
                "occ-double-collect",
                num_readers=1,
                num_writers=3,
                scheduler=RandomScheduler(seed=seed),
                seed=seed,
            )
            run_simple_workload(handle, rounds=2)
            report = handle.snow_report()
            if report.max_rounds() > 2:
                saw_retry = True
                break
        assert saw_retry

    def test_read_that_never_validates_fails_loudly(self, monkeypatch):
        """A read whose snapshot never validates stops after MAX_COLLECTS
        collects with a diagnostic instead of collecting forever."""
        from repro.ioa.errors import SimulationError
        from repro.protocols.occ import MAX_COLLECTS, OccReader

        monkeypatch.setattr(OccReader, "_write_set_closed", staticmethod(lambda chosen, read_set: False))
        handle = build_system("occ-double-collect", num_readers=1, num_writers=1)
        handle.submit_read(txn_id="R1")
        with pytest.raises(SimulationError, match=f"exhausted {MAX_COLLECTS} collects for R1"):
            handle.run_to_completion()
        collects = [a for a in handle.trace() if a.kind.value == "send" and a.message.msg_type == "collect"]
        assert len(collects) == MAX_COLLECTS * len(handle.objects)

    def test_fixed_collect_waits_for_every_replica(self):
        """On fixed groups a collect's replies are matched on the transaction
        alone; what keeps an earlier collect's replies out of a later one is
        that a collect resumes only once every replica it asked answered."""
        from repro.ioa.automaton import Await, Send
        from repro.protocols.occ import OccReader
        from repro.txn import Placement, ReadTransaction

        placement = Placement.for_objects(("ox", "oy"), 3)
        reader = OccReader("r1", ("ox", "oy"), placement)
        session = reader._collect(ReadTransaction(objects=("ox", "oy"), txn_id="R1"), None, 0)
        sends = []
        step = next(session)
        while isinstance(step, Send):
            sends.append(step)
            step = next(session)
        assert {(s.dst, s.payload["object"]) for s in sends} == {
            (replica, obj) for obj in ("ox", "oy") for replica in placement.group(obj)
        }
        assert isinstance(step, Await)
        assert step.until is None and step.count == len(sends) == 6

    def test_write_timestamps_annotated(self):
        handle = build_system("occ-double-collect", num_readers=1, num_writers=1)
        w = handle.submit_write({"ox": 1, "oy": 1})
        handle.run_to_completion()
        assert handle.simulation.transaction_record(w).annotations.get("timestamp") == 1
