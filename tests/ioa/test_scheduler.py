"""Unit tests for schedulers and the rule-driven adversary."""

from __future__ import annotations

import pytest

from repro.faults import ChaosScheduler, FaultInjector, FaultPlan, UniformLatency
from repro.ioa.actions import Message
from repro.ioa.errors import SchedulerError
from repro.ioa.scheduler import (
    AdversarialScheduler,
    DelayRule,
    FIFOScheduler,
    LIFOScheduler,
    PendingDelivery,
    PendingInvocation,
    PriorityScheduler,
    RandomScheduler,
    Scheduler,
    holds_message,
)
from repro.protocols import get_protocol


def deliveries(count: int, msg_type: str = "m", dst: str = "sx"):
    return [
        PendingDelivery(message=Message.make(msg_type, "r1", dst, {"n": i}), enqueued_at=i)
        for i in range(count)
    ]


class FakeKernel:
    """Just enough kernel surface for rules that look at transaction records."""

    def __init__(self):
        self.records = {}
        self.trace = []

    def transaction_record(self, txn_id):
        return self.records.get(txn_id)


class TestBasicSchedulers:
    def test_fifo_picks_oldest(self):
        assert FIFOScheduler().choose(deliveries(3), None) == 0

    def test_lifo_picks_newest(self):
        assert LIFOScheduler().choose(deliveries(3), None) == 2

    def test_choose_on_empty_raises(self):
        with pytest.raises(SchedulerError):
            FIFOScheduler().choose([], None)

    def test_random_choose_on_empty_raises_without_drawing(self):
        scheduler = RandomScheduler(seed=5)
        state = scheduler._rng.getstate()
        with pytest.raises(SchedulerError, match="no pending events"):
            scheduler.choose([], None)
        assert scheduler._rng.getstate() == state

    def test_random_is_deterministic_per_seed(self):
        first = RandomScheduler(seed=5)
        second = RandomScheduler(seed=5)
        pending = deliveries(10)
        picks_first = [first.choose(pending, None) for _ in range(20)]
        picks_second = [second.choose(pending, None) for _ in range(20)]
        assert picks_first == picks_second

    def test_random_reset_restarts_sequence(self):
        scheduler = RandomScheduler(seed=9)
        pending = deliveries(10)
        initial = [scheduler.choose(pending, None) for _ in range(10)]
        scheduler.reset()
        assert [scheduler.choose(pending, None) for _ in range(10)] == initial

    def test_priority_scheduler_uses_key(self):
        pending = deliveries(5)
        scheduler = PriorityScheduler(key=lambda event: -event.enqueued_at)
        assert scheduler.choose(pending, None) == 4

    def test_validate_choice_bounds(self):
        with pytest.raises(SchedulerError):
            FIFOScheduler.validate_choice(7, deliveries(3))


class TestRuleHelpers:
    def test_holds_message_matches_type_src_dst(self):
        holds = holds_message(msg_type="read", src="r1", dst="sx")
        matching = PendingDelivery(message=Message.make("read", "r1", "sx", {}), enqueued_at=0)
        wrong_type = PendingDelivery(message=Message.make("write", "r1", "sx", {}), enqueued_at=0)
        assert holds(matching)
        assert not holds(wrong_type)

    def test_holds_message_with_predicate(self):
        holds = holds_message(predicate=lambda m: m.get("txn") == "R1")
        matching = PendingDelivery(message=Message.make("read", "r1", "sx", {"txn": "R1"}), enqueued_at=0)
        other = PendingDelivery(message=Message.make("read", "r1", "sx", {"txn": "R2"}), enqueued_at=0)
        assert holds(matching)
        assert not holds(other)

    def test_holds_message_ignores_invocations(self):
        holds = holds_message(msg_type="read")
        invocation = PendingInvocation(client="r1", txn=None, txn_id="R1", enqueued_at=0)
        assert not holds(invocation)


class TestAdversarialScheduler:
    def test_held_events_are_skipped(self):
        pending = deliveries(2, msg_type="read") + deliveries(1, msg_type="write")
        rule = DelayRule(name="hold-reads", holds=holds_message(msg_type="read"), until=lambda kernel: False)
        scheduler = AdversarialScheduler(rules=[rule])
        choice = scheduler.choose(pending, FakeKernel())
        assert pending[choice].message.msg_type == "write"

    def test_rule_releases_when_condition_met(self):
        pending = deliveries(1, msg_type="read")
        kernel = FakeKernel()
        rule = DelayRule(name="hold", holds=holds_message(msg_type="read"), until=lambda k: True)
        scheduler = AdversarialScheduler(rules=[rule])
        assert scheduler.choose(pending, kernel) == 0

    def test_all_held_releases_oldest_by_default(self):
        pending = deliveries(2, msg_type="read")
        rule = DelayRule(name="hold", holds=holds_message(msg_type="read"), until=lambda kernel: False)
        scheduler = AdversarialScheduler(rules=[rule])
        assert scheduler.choose(pending, FakeKernel()) == 0

    def test_all_held_raises_when_strict(self):
        pending = deliveries(2, msg_type="read")
        rule = DelayRule(name="hold", holds=holds_message(msg_type="read"), until=lambda kernel: False)
        scheduler = AdversarialScheduler(rules=[rule], release_when_stuck=False)
        with pytest.raises(SchedulerError):
            scheduler.choose(pending, FakeKernel())

    def test_one_shot_rule_stays_released(self):
        fired = {"value": False}

        def until(kernel):
            return fired["value"]

        rule = DelayRule(name="once", holds=holds_message(msg_type="read"), until=until, one_shot=True)
        scheduler = AdversarialScheduler(rules=[rule])
        pending = deliveries(1, msg_type="read") + deliveries(1, msg_type="write")
        # Initially held -> write is chosen.
        assert pending[scheduler.choose(pending, FakeKernel())].message.msg_type == "write"
        fired["value"] = True
        scheduler.choose(pending, FakeKernel())
        fired["value"] = False  # condition goes false again, but the one-shot rule stays released
        assert rule.released
        assert pending[scheduler.choose(pending, FakeKernel())].message.msg_type == "read"

    def test_reset_rearms_rules_and_base(self):
        rule = DelayRule(name="once", holds=holds_message(msg_type="read"), until=lambda k: True, one_shot=True)
        scheduler = AdversarialScheduler(rules=[rule], base=RandomScheduler(seed=1))
        scheduler.choose(deliveries(1, msg_type="read"), FakeKernel())
        assert rule.released
        scheduler.reset()
        assert not rule.released

    def test_base_policy_applies_to_eligible_subset(self):
        pending = deliveries(3, msg_type="read") + deliveries(2, msg_type="write")
        rule = DelayRule(name="hold-reads", holds=holds_message(msg_type="read"), until=lambda kernel: False)
        scheduler = AdversarialScheduler(rules=[rule], base=LIFOScheduler())
        choice = scheduler.choose(pending, FakeKernel())
        assert choice == 4  # newest among the eligible (write) events


class TestPickOrChoose:
    """The kernel only asks ``pick``; a policy that answers through ``choose``
    must still be asked on every step, whatever fast ``pick`` its base has."""

    @staticmethod
    def run_with(scheduler, **build):
        handle = get_protocol("simple-rw").build(scheduler=scheduler, seed=5, **build)
        for index in range(6):
            handle.submit_write({obj: index for obj in handle.objects}, txn_id=f"W{index}")
            handle.submit_read(handle.objects, txn_id=f"R{index}")
        handle.run_to_completion()
        assert handle.simulation.steps_taken > 40
        return handle.simulation

    @pytest.mark.parametrize("base", (FIFOScheduler, ChaosScheduler, LIFOScheduler))
    def test_a_subclass_overriding_only_choose_is_asked_on_every_step(self, base):
        class Counting(base):
            asked = 0

            def choose(self, pending, kernel):
                self.asked += 1
                assert list(pending) == kernel.pending_events()
                return super().choose(pending, kernel)

        class Grandchild(Counting):
            """Redefines neither: stays on its parent's list path."""

        assert Counting.pick is Scheduler.pick and Grandchild.pick is Scheduler.pick
        for scheduler in (Counting(), Grandchild()):
            assert self.run_with(scheduler).steps_taken == scheduler.asked

    def test_a_choose_only_chaos_subclass_is_never_asked_with_an_unripe_event(self):
        """The kernel offers every scheduler the ripe events only, so a
        subclass that redefines ``choose`` is asked with exactly what the
        chaos scheduler decides among, and both decide the same run."""

        class Counting(ChaosScheduler):
            asked = unripe = 0

            def choose(self, pending, kernel):
                self.asked += 1
                assert list(pending) == kernel.pending_events()
                self.unripe += any(getattr(e, "ready_at", 0) > kernel.now() for e in pending)
                return super().choose(pending, kernel)

        def under_latency(scheduler):
            plane = FaultInjector(FaultPlan(latency=UniformLatency(0, 6), seed=5), seed=5)
            return self.run_with(scheduler, fault_plane=plane)

        counting = Counting(seed=5)
        by_choose = under_latency(counting)
        assert by_choose.steps_taken == counting.asked and counting.unripe == 0
        assert by_choose.trace.signature() == under_latency(ChaosScheduler(seed=5)).trace.signature()

    def test_a_subclass_overriding_only_pick_is_asked_on_every_step(self):
        class Picking(FIFOScheduler):
            asked = 0

            def pick(self, frontier, kernel):
                self.asked += 1
                event = super().pick(frontier, kernel)
                pending = kernel.pending_events()
                assert event is pending[self.choose(pending, kernel)]
                return event

            def choose(self, pending, kernel):
                return super().choose(pending, kernel)

        class PickOnly(FIFOScheduler):
            asked = 0

            def pick(self, frontier, kernel):
                self.asked += 1
                return super().pick(frontier, kernel)

        assert Picking.pick is not Scheduler.pick  # defining both keeps its own
        for scheduler in (Picking(), PickOnly()):
            assert self.run_with(scheduler).steps_taken == scheduler.asked

    def test_a_subclass_overriding_neither_keeps_the_fast_pick(self):
        class Renamed(FIFOScheduler):
            pass

        assert Renamed.pick is FIFOScheduler.pick is not Scheduler.pick
        assert self.run_with(Renamed()).trace.signature() == self.run_with(FIFOScheduler()).trace.signature()

    def test_pick_on_an_idle_frontier_raises_like_choose(self):
        simulation = self.run_with(FIFOScheduler())
        with pytest.raises(SchedulerError, match="no pending events"):
            simulation.scheduler.pick(simulation._frontier, simulation)
        with pytest.raises(SchedulerError, match="no pending events"):
            LIFOScheduler().pick(simulation._frontier, simulation)
        with pytest.raises(SchedulerError, match="no pending events"):
            RandomScheduler(seed=1).pick(simulation._frontier, simulation)
