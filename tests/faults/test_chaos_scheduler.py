"""Unit tests for the chaos scheduler's choice among the events it is offered."""

from __future__ import annotations

from repro.faults import ChaosScheduler
from repro.ioa import FIFOScheduler, LIFOScheduler, Message, PendingDelivery


class _KernelStub:
    """Just enough kernel surface for Scheduler.choose(): no observability plane."""

    obs = None


def _delivery(enqueued_at, ready_at=0):
    message = Message.make("m", "a", "b", {})
    return PendingDelivery(message=message, enqueued_at=enqueued_at, ready_at=ready_at)


class TestChaosChoice:
    """The kernel offers only ripe events (``tests/ioa/test_ripeness.py``), so
    the chaos scheduler decides as its base policy over whatever it is given."""

    def test_degrades_to_base_when_everything_is_ripe(self):
        pending = [_delivery(1), _delivery(2), _delivery(3)]
        chaos = ChaosScheduler(base=LIFOScheduler())
        assert chaos.choose(pending, _KernelStub()) == 2  # LIFO picks newest

    def test_ties_on_ready_at_break_by_enqueue_order(self):
        pending = [_delivery(5, ready_at=40), _delivery(2, ready_at=40)]
        chaos = ChaosScheduler(base=FIFOScheduler())
        assert chaos.choose(pending, _KernelStub()) == 1

    def test_reset_resets_the_base_scheduler(self):
        chaos = ChaosScheduler(seed=9)
        pending = [_delivery(i) for i in range(1, 6)]
        first = [chaos.choose(pending, _KernelStub()) for _ in range(5)]
        chaos.reset()
        second = [chaos.choose(pending, _KernelStub()) for _ in range(5)]
        assert first == second
