"""The chaos scheduler: asynchrony biased by the active fault plan.

The repository's other schedulers pick among pending events with no notion of
*when* a message would plausibly arrive.  The chaos scheduler honours the
``ready_at`` virtual-time stamps the fault injector assigns from its latency
model: an event is *ripe* once its stamp is at or before the kernel's virtual
clock (``kernel.now()``, the one clock of the run), and the base policy picks
among ripe events only.  The scheduler only reads the clock.  The injector's
``before_step`` moves it with ``kernel.advance_to`` — boundary by boundary,
so crash onsets and transport timers fire in virtual-time order before any
later arrival is ripe — a discrete-event simulator's "advance to next timer"
jump done where the fault schedule can see it; without a plane the kernel
jumps to its next timer at idle the same way.

Without a fault plane (or with an inert plan) every stamp is ``0``, so the
chaos scheduler degrades *exactly* to its base policy — the golden-trace
guarantee the determinism tests pin down.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from ..ioa.scheduler import PendingEvent, RandomScheduler, Scheduler


def _ready_at(event: PendingEvent) -> int:
    """Virtual-time stamp of an event (invocations are always ripe)."""
    return getattr(event, "ready_at", 0)


class ChaosScheduler(Scheduler):
    """Pick among ripe events with a base policy; fast-forward when none are.

    ``base`` defaults to a seeded :class:`RandomScheduler` — chaos testing
    wants schedule diversity on top of fault timing — but any scheduler
    (including the adversarial one) can be plugged in, which is how "drop
    messages *and* order them adversarially" experiments are built.

    The kernel asks :meth:`pick`, which hands the base policy the ripe events
    straight from :meth:`EventFrontier.ripe`.  :meth:`choose` decides the same
    event from the full list: it is what a subclass overriding ``choose`` (and
    anything that wraps this scheduler to observe it) is asked through, and
    what ``pick`` itself falls back to when nothing is ripe.
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

    def _count_step(self, kernel: Any, ripe: int, now: int) -> None:
        """Cheap ripeness telemetry for the observability plane: how much of
        the pending set the latency model made choosable this step."""
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
        if not ripe:
            registry.counter("scheduler.chaos_fastforwards").inc()
            health = getattr(obs, "health", None)
            if health is not None:
                # A fast-forward means the latency model stalled every
                # pending delivery past "now" — the health plane counts it
                # toward the rolling stall rate.
                health.note_stall(now)

    def pick(self, frontier: Any, kernel: Any) -> PendingEvent:
        now = kernel.now()
        ripe = frontier.ripe(now)
        if not ripe:  # rare: the list path counts the step and fast-forwards
            return Scheduler.pick(self, frontier, kernel)
        self._count_step(kernel, len(ripe), now)
        return ripe[self.base.choose(ripe, kernel)]

    def choose(self, pending: Sequence[PendingEvent], kernel: Any) -> int:
        if not pending:
            return self.validate_choice(0, pending)  # raises the standard error
        now = kernel.now()
        ripe = [i for i in range(len(pending)) if _ready_at(pending[i]) <= now]
        self._count_step(kernel, len(ripe), now)
        if not ripe:
            # Nothing deliverable yet.  With a fault injector installed this
            # is unreachable: its before_step advances the virtual clock
            # boundary-by-boundary (crash onsets included) until something is
            # ripe.  Without one there is no fault schedule to respect, so
            # simply execute the earliest arrival (oldest among ties) —
            # crucially *not* by advancing any clock past unapplied faults.
            choice = min(
                range(len(pending)), key=lambda i: (_ready_at(pending[i]), pending[i].enqueued_at)
            )
            return self.validate_choice(choice, pending)
        sub = [pending[i] for i in ripe]
        return self.validate_choice(ripe[self.base.choose(sub, kernel)], pending)
