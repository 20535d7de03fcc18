"""Unit tests for the chaos scheduler's virtual-time behaviour."""

from __future__ import annotations

import pytest

from repro.faults import ChaosScheduler
from repro.ioa import (
    FIFOScheduler,
    LIFOScheduler,
    Message,
    PendingDelivery,
    SchedulerError,
)


class _KernelStub:
    """Just enough kernel surface for Scheduler.choose(), clock included."""

    def __init__(self, steps_taken=0):
        self.steps_taken = steps_taken
        self.clock = 0

    def now(self):
        return max(self.steps_taken, self.clock)

    def advance_to(self, step):
        self.clock = max(self.clock, step)


def _delivery(enqueued_at, ready_at=0):
    message = Message.make("m", "a", "b", {})
    return PendingDelivery(message=message, enqueued_at=enqueued_at, ready_at=ready_at)


class TestChaosChoice:
    def test_raises_on_empty_pending(self):
        with pytest.raises(SchedulerError):
            ChaosScheduler().choose([], _KernelStub())

    def test_degrades_to_base_when_everything_is_ripe(self):
        pending = [_delivery(1), _delivery(2), _delivery(3)]
        chaos = ChaosScheduler(base=LIFOScheduler())
        assert chaos.choose(pending, _KernelStub()) == 2  # LIFO picks newest

    def test_unripe_events_are_excluded(self):
        pending = [_delivery(1, ready_at=50), _delivery(2, ready_at=0)]
        chaos = ChaosScheduler(base=FIFOScheduler())
        assert chaos.choose(pending, _KernelStub(steps_taken=10)) == 1

    def test_picks_earliest_arrival_when_nothing_is_ripe(self):
        pending = [_delivery(1, ready_at=90), _delivery(2, ready_at=40)]
        chaos = ChaosScheduler(base=FIFOScheduler())
        kernel = _KernelStub(steps_taken=10)
        assert chaos.choose(pending, kernel) == 1
        # choose() must NOT advance the clock itself: time only moves through
        # the injector's boundary walk, or faults scheduled before an arrival
        # could be skipped.
        assert kernel.now() == 10

    def test_ties_on_ready_at_break_by_enqueue_order(self):
        pending = [_delivery(5, ready_at=40), _delivery(2, ready_at=40)]
        chaos = ChaosScheduler(base=FIFOScheduler())
        assert chaos.choose(pending, _KernelStub(steps_taken=0)) == 1

    def test_reset_resets_the_base_scheduler(self):
        from repro.ioa import RandomScheduler

        chaos = ChaosScheduler(seed=9)
        pending = [_delivery(i) for i in range(1, 6)]
        first = [chaos.choose(pending, _KernelStub()) for _ in range(5)]
        chaos.reset()
        second = [chaos.choose(pending, _KernelStub()) for _ in range(5)]
        assert first == second

    def test_virtual_clock_unblocks_future_work_without_a_plane(self):
        # Without a fault plane the clock is just steps_taken; a future
        # ready_at still executes via the jump rule rather than deadlocking.
        pending = [_delivery(1, ready_at=10**6)]
        chaos = ChaosScheduler(base=FIFOScheduler())
        assert chaos.choose(pending, _KernelStub(steps_taken=0)) == 0
