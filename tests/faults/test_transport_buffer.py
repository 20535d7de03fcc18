"""The injector's indexed transport buffer: ordering, cost, leaks, reports."""

from __future__ import annotations

import pytest

from repro.faults import (
    ChaosScheduler,
    CrashEvent,
    DropPolicy,
    FaultInjector,
    FaultPlan,
    Partition,
    RetryPolicy,
)
from repro.faults import injector as injector_module
from repro.faults.injector import _HeldMessage, _TransportBuffer
from repro.ioa import FIFOScheduler, LivenessError, Message
from repro.protocols import get_protocol

from tests.faults.conftest import run_fixed_workload
from tests.faults.reference_injector import ReferenceFaultInjector


def parked(buffer):
    return [held.message.msg_type for held in buffer]


def record(name, release_at, dst="sx"):
    return _HeldMessage(Message.make(name, "w1", dst), release_at, "crash")


class TestBufferOrdering:
    def test_due_records_come_back_in_insertion_order_not_release_order(self):
        buffer = _TransportBuffer()
        for name, release_at in (("a", 30), ("b", None), ("c", 10), ("d", 20), ("e", 40)):
            buffer.park(record(name, release_at))
        assert buffer.next_release() == 10
        assert buffer.pop_due(9) == []
        assert [h.message.msg_type for h in buffer.pop_due(30)] == ["a", "c", "d"]
        assert parked(buffer) == ["b", "e"]
        assert buffer.next_release() == 40

    def test_records_parked_after_a_release_go_to_the_end(self):
        buffer = _TransportBuffer()
        buffer.park(record("a", 5))
        buffer.park(record("b", None))
        assert [h.message.msg_type for h in buffer.pop_due(5)] == ["a"]
        buffer.park(record("a-again", 15))
        assert parked(buffer) == ["b", "a-again"]

    def test_discarded_records_leave_no_live_timer(self):
        buffer = _TransportBuffer()
        buffer.park(record("to-dead", 10, dst="dead"))
        buffer.park(record("kept", 20))
        buffer.park(record("forever-dead", None, dst="dead"))
        gone = buffer.discard(lambda held: held.message.dst == "dead")
        assert [h.message.msg_type for h in gone] == ["to-dead", "forever-dead"]
        assert buffer.next_release() == 20  # the stale (10, seq) entry is skipped
        assert [h.message.msg_type for h in buffer.pop_due(100)] == ["kept"]
        assert parked(buffer) == [] and buffer.next_release() is None

    def test_permanent_records_never_enter_the_timer_heap(self):
        buffer = _TransportBuffer()
        for index in range(50):
            buffer.park(record(f"m{index}", None))
        assert buffer.next_release() is None and buffer.pop_due(10**9) == []
        assert len(parked(buffer)) == 50 and not buffer._timers


class TestDropStreakDoesNotLeak:
    PLAN = FaultPlan(
        name="lossy-and-impatient",
        drops=DropPolicy(probability=0.5, max_consecutive=10**6),
        retry=RetryPolicy(timeout_steps=3, max_attempts=2),
    )

    def parked_ids(self, plane):
        return {held.message.msg_id for held in plane._buffer}

    def test_abandoned_messages_are_forgotten(self):
        handle = run_fixed_workload("simple-rw", plan=self.PLAN, scheduler=ChaosScheduler(seed=1))
        plane = handle.simulation.fault_plane
        assert plane.stats.abandoned > 0 and plane.stats.retransmissions > 0
        assert set(plane._drop_streak) <= self.parked_ids(plane)

    def test_streaks_live_only_while_a_retransmission_is_parked(self):
        """Stop mid-run: streaks may exist, but only for mail still parked."""
        protocol = get_protocol("simple-rw")
        plane = FaultInjector(self.PLAN, seed=3)
        handle = protocol.build(scheduler=ChaosScheduler(seed=2), seed=3, fault_plane=plane)
        for index in range(30):
            handle.submit_write({obj: index for obj in handle.objects}, txn_id=f"W{index}")
        seen_streaks = False
        while handle.simulation.step():
            seen_streaks = seen_streaks or bool(plane._drop_streak)
            assert set(plane._drop_streak) <= self.parked_ids(plane)
        assert seen_streaks and plane.stats.abandoned > 0

    def test_mail_discarded_with_a_retired_automaton_is_forgotten(self):
        plan = FaultPlan(
            drops=DropPolicy(probability=1.0, max_consecutive=10**6),
            retry=RetryPolicy(timeout_steps=1000, max_attempts=5),
        )
        plane = FaultInjector(plan, seed=0)
        handle = get_protocol("simple-rw").build(scheduler=ChaosScheduler(seed=0), fault_plane=plane)
        handle.submit_write({"ox": 1}, txn_id="W1")
        simulation = handle.simulation
        simulation.start()
        simulation.step()  # W1 invoked: its write message is dropped and parked
        assert plane._drop_streak and plane.held_messages()
        plane.on_remove("sx", simulation)
        assert not plane.held_messages() and not plane._drop_streak


class TestLivenessErrorsSayWhatIsStuck:
    def fail_stopped(self, **build):
        plan = FaultPlan(
            crashes=(CrashEvent(server="sx", at=0, recover=None),),
            partitions=(Partition(left=("r1",), right=("sy",), start=0, heal=None),),
        )
        handle = get_protocol("simple-rw").build(
            scheduler=ChaosScheduler(seed=1), fault_plane=FaultInjector(plan, seed=1), **build
        )
        handle.submit_write({"ox": 1, "oy": 1}, txn_id="W1")
        handle.submit_read(("ox", "oy"), txn_id="R1")
        return handle

    def test_idle_with_incomplete_transactions_names_crashed_and_parked(self):
        handle = self.fail_stopped()
        with pytest.raises(LivenessError) as error:
            handle.run_to_completion()
        first, second = str(error.value).split("\n")
        assert first == "simulation went idle with incomplete transactions: W1, R1"
        assert second == (
            "fault plane: crashed servers: sx; "
            "messages parked forever, by destination: sx=2, sy=1"
        )
        assert handle.simulation.fault_plane.describe_stuck() == second

    def test_max_steps_names_crashed_and_parked(self):
        handle = self.fail_stopped(max_steps=3)
        with pytest.raises(LivenessError) as error:
            handle.run()
        first, second = str(error.value).split("\n")
        assert first.startswith("simulation exceeded max_steps=3 with ")
        assert second.startswith("fault plane: crashed servers: sx; messages parked forever")

    def test_nothing_down_nothing_parked(self):
        plane = FaultInjector(FaultPlan.none(), seed=0)
        assert plane.describe_stuck() == (
            "fault plane: crashed servers: none; messages parked forever, by destination: none"
        )

    def test_text_without_a_fault_plane_is_unchanged(self):
        handle = get_protocol("simple-rw").build(scheduler=FIFOScheduler(), max_steps=2)
        handle.submit_write({"ox": 1, "oy": 1}, txn_id="W1")
        with pytest.raises(LivenessError) as error:
            handle.run()
        assert str(error.value) == "simulation exceeded max_steps=2 with 2 pending events"


class CountingRecord(_HeldMessage):
    """A parked record that counts every attribute read."""

    visits = 0

    def __getattribute__(self, name):
        CountingRecord.visits += 1
        return object.__getattribute__(self, name)


def visits_after_fail_stop(monkeypatch, parked_forever, injector_cls=FaultInjector, steps=500):
    """Fail-stop ``sx``, park ``parked_forever`` messages for it, then run
    ``steps`` lossy steps of traffic to ``sy``; returns (record visits during
    those steps, records that were parked or fell due during them)."""
    monkeypatch.setattr(injector_module, "_HeldMessage", CountingRecord)
    plan = FaultPlan(
        drops=DropPolicy(probability=0.3, max_consecutive=3),
        retry=RetryPolicy(timeout_steps=4, max_attempts=8),
        crashes=(CrashEvent(server="sx", at=0, recover=None),),
    )
    plane = injector_cls(plan, seed=7)
    handle = get_protocol("simple-rw").build(
        num_writers=2, scheduler=ChaosScheduler(seed=7), seed=7, fault_plane=plane
    )
    simulation = handle.simulation
    for index in range(200):
        handle.submit_write({"oy": index}, writer=handle.writers[index % 2], txn_id=f"W{index}")
    simulation.start()
    simulation.step()  # the crash onset is applied at the first step boundary
    assert plane.crashed_servers() == ("sx",)
    for index in range(parked_forever):
        plane.on_send(Message.make("write-val", "w1", "sx", {"n": index}), simulation)
    assert len(plane.held_messages()) >= parked_forever

    CountingRecord.visits = 0
    before = plane.stats.dropped, plane.stats.retransmissions
    assert len(simulation.run(max_new_steps=steps)) and simulation.steps_taken == steps + 1
    moved = (plane.stats.dropped - before[0]) + (plane.stats.retransmissions - before[1])
    assert moved > 20, "the lossy traffic should park and release timed records"
    return CountingRecord.visits, moved


class TestPermanentlyParkedMailIsFree:
    """No wall clock: the cost is counted in reads of parked records."""

    def test_visits_follow_the_mail_that_moves_not_the_mail_that_sits(self, monkeypatch):
        steps, parked_forever = 500, 2000
        visits, moved = visits_after_fail_stop(monkeypatch, parked_forever, steps=steps)
        # a handful of reads per record parked or released, none per step
        assert visits <= 8 * moved
        assert visits < steps * parked_forever // 100

    def test_four_times_the_parked_mail_costs_the_same(self, monkeypatch):
        small = visits_after_fail_stop(monkeypatch, 2000)
        large = visits_after_fail_stop(monkeypatch, 8000)
        assert small == large

    def test_the_instrument_sees_the_list_scan(self, monkeypatch):
        """Self-check: the same count on the seed's loop is steps × parked."""
        steps, parked_forever = 100, 2000
        visits, _moved = visits_after_fail_stop(
            monkeypatch, parked_forever, injector_cls=ReferenceFaultInjector, steps=steps
        )
        assert visits >= steps * parked_forever
