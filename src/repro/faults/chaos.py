"""The chaos scheduler: asynchrony biased by the active fault plan.

The kernel offers every scheduler the *ripe* events only: a delivery once the
run's one virtual clock (``kernel.now()``) has reached the ``ready_at`` stamp
the fault injector sampled from its latency model, a timer once it has reached
its own.  When nothing is ripe the kernel moves the clock to the next arrival,
timer or fault-plane boundary first, so crash onsets and transport timers
apply in virtual-time order.  The latency model therefore shapes the schedule
under any policy; the chaos scheduler adds a seeded random base policy and
counts, for the observability plane, how many events each step offered.

Without a fault plane (or with an inert plan) every stamp is ``0``, so the
chaos scheduler decides *exactly* as its base policy — the golden-trace
guarantee the determinism tests pin down.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from ..ioa.scheduler import PendingEvent, RandomScheduler, Scheduler


class ChaosScheduler(Scheduler):
    """Pick among the offered (ripe) events with a base policy.

    ``base`` defaults to a seeded :class:`RandomScheduler` — chaos testing
    wants schedule diversity on top of fault timing — but any scheduler
    (including the adversarial one) can be plugged in, which is how "drop
    messages *and* order them adversarially" experiments are built.
    """

    def __init__(self, base: Optional[Scheduler] = None, seed: int = 0) -> None:
        self.seed = seed
        self.base = base if base is not None else RandomScheduler(seed=seed)
        # the two per-step counters, held per registry (a scheduler may be
        # reset and reused on another kernel)
        self._registry: Any = None
        self._steps: Any = None
        self._ripe_events: Any = None

    def reset(self) -> None:
        self.base.reset()

    def choose(self, pending: Sequence[PendingEvent], kernel: Any) -> int:
        self._count(kernel, len(pending))
        return self.base.choose(pending, kernel)

    def pick(self, frontier: Any, kernel: Any) -> PendingEvent:
        """``pending[choose(pending)]`` without the list when the base policy
        answers from the frontier (see :class:`~repro.ioa.scheduler.Scheduler`)."""
        self._count(kernel, frontier.ripe_count(kernel.now()))
        return self.base.pick(frontier, kernel)

    def _count(self, kernel: Any, ripe: int) -> None:
        """One step that offered ``ripe`` events: how much of the pending set
        the latency model made choosable."""
        obs = getattr(kernel, "obs", None)
        if obs is None:
            return
        registry = obs.registry
        if registry is not self._registry:
            self._registry = registry
            self._steps = registry.counter("scheduler.chaos_steps")
            self._ripe_events = registry.counter("scheduler.chaos_ripe_events")
        self._steps.value += 1
        self._ripe_events.value += ripe
