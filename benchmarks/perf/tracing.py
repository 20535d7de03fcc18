"""Per-layer wall-clock attribution, recorded from outside the program.

Nothing in ``src/`` is patched: the spans come from subclasses handed in
through public build arguments (scheduler, fault plane, persistence plane,
observability plane) and one instance wrapper on ``simulation.trace.append``.

A kernel step is three consecutive *segments*: everything up to
``scheduler.choose`` is ``ioa.frontier``, ``choose`` itself is the scheduler's
layer, and the rest goes to the layer of the chosen event's target automaton.
Hooks the step calls on the way (fault plane, store, observer, trace append)
are *nested* spans: their time is subtracted from the enclosing span, so each
layer reports self time and the layers plus ``run.unattributed`` sum to the
traced run.  Only per-layer sums and call counts are kept, not every span.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Dict, Optional

from repro.consensus.coordinator import ReplicatedCoordinator
from repro.faults import ChaosScheduler, FaultInjector
from repro.ioa import ActionKind, FIFOScheduler, PendingDelivery, PendingTimeout, RandomScheduler, Scheduler
from repro.obs import ObservabilityPlane
from repro.persist import PersistencePlane
from repro.persist.store import SimStableStore

from workloads import Parts

#: the layers a traced run splits into, in report order
LAYERS = (
    "ioa.frontier",
    "ioa.scheduler",
    "faults.chaos",
    "ioa.trace",
    "protocols.client",
    "protocols.server",
    "consensus.member",
    "persist.store",
    "faults.injector",
    "obs.plane",
)

#: consensus internal-action kinds counted at the trace boundary
_CONSENSUS_COUNTS = {
    "apply": "consensus.commits",
    "candidacy": "consensus.elections",
    "lease-acquired": "consensus.lease_acquired",
    "local-read": "consensus.local_reads",
}


class Recorder:
    """Self-time and call-count accumulators for the traced runs of one child."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.counts: Dict[str, int] = dict.fromkeys(
            ("protocols.msgs", "consensus.read_applies", *_CONSENSUS_COUNTS.values()), 0
        )
        self.traced_run_s = 0.0
        self._segment: Optional[str] = None
        self._start = 0.0
        self._nested = 0.0

    def switch(self, layer: Optional[str]) -> None:
        """Close the open step segment and open ``layer`` (None = just close)."""
        now = perf_counter()
        if self._segment is not None:
            self.self_s[self._segment] += now - self._start - self._nested
            self.calls[self._segment] += 1
        self._segment = layer
        self._start = now
        self._nested = 0.0

    def timed(self, layer: str, fn: Callable) -> Callable:
        """Wrap ``fn`` as a nested span of ``layer``."""

        def span(*args, **kwargs):
            start = perf_counter()
            outer = self._nested
            self._nested = 0.0
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                self.self_s[layer] += took - self._nested
                self.calls[layer] += 1
                self._nested = outer + took

        return span

    def run(self, simulation) -> None:
        """Drive ``simulation`` to idle, one traced step at a time."""
        append = self.timed("ioa.trace", simulation.trace.append)
        counts = self.counts

        def counted_append(action):
            if action.kind is ActionKind.SEND:
                counts["protocols.msgs"] += 1
            elif action.kind is ActionKind.INTERNAL:
                name = _CONSENSUS_COUNTS.get(action.get("consensus"))
                if name is not None:
                    counts[name] += 1
                    if name == "consensus.commits" and action.get("read"):
                        counts["consensus.read_applies"] += 1
            return append(action)

        simulation.trace.append = counted_append
        start = perf_counter()
        self.switch("ioa.frontier")
        while simulation.step():
            self.switch("ioa.frontier")
        self.switch(None)
        self.traced_run_s += perf_counter() - start


def _layer_of(automaton: Any) -> Optional[str]:
    if isinstance(automaton, ReplicatedCoordinator):
        return "consensus.member"
    if type(automaton).__module__.startswith("repro.protocols."):
        return "protocols.client" if automaton.is_client() else "protocols.server"
    return None  # lands in run.unattributed


class StepScheduler(Scheduler):
    """Times ``choose`` as ``layer`` and opens the chosen target's segment."""

    def __init__(self, inner: Scheduler, layer: str, recorder: Recorder) -> None:
        self.inner = inner
        self.layer = layer
        self.recorder = recorder
        self._layers: Dict[str, Optional[str]] = {}

    def reset(self) -> None:
        self.inner.reset()

    def choose(self, pending, kernel) -> int:
        self.recorder.switch(self.layer)
        choice = self.inner.choose(pending, kernel)
        event = pending[choice]
        if isinstance(event, PendingDelivery):
            target = event.message.dst
        elif isinstance(event, PendingTimeout):
            target = event.owner
        else:
            target = event.client
        try:
            layer = self._layers[target]
        except KeyError:
            layer = self._layers[target] = _layer_of(kernel.automaton(target))
        self.recorder.switch(layer)
        return choice


class NestedScheduler(Scheduler):
    """A base policy timed as a nested span (the chaos scheduler's base)."""

    def __init__(self, inner: Scheduler, layer: str, recorder: Recorder) -> None:
        self.inner = inner
        self.choose = recorder.timed(layer, inner.choose)

    def reset(self) -> None:
        self.inner.reset()


def _time_methods(obj: Any, layer: str, recorder: Recorder, names) -> None:
    for name in names:
        setattr(obj, name, recorder.timed(layer, getattr(obj, name)))


class TimedFaultInjector(FaultInjector):
    def __init__(self, plan, seed: int, recorder: Recorder) -> None:
        super().__init__(plan, seed=seed)
        _time_methods(
            self,
            "faults.injector",
            recorder,
            ("before_step", "on_idle", "on_send", "suppress_delivery", "suppress_timeout"),
        )


class TimedStore(SimStableStore):
    def __init__(self, recorder: Recorder) -> None:
        super().__init__()
        _time_methods(
            self,
            "persist.store",
            recorder,
            (
                "save_meta", "load_meta", "log_append", "log_truncate", "load_entries",
                "save_commit", "load_commit", "save_snapshot", "load_snapshot",
            ),
        )


class TimedPersistencePlane(PersistencePlane):
    """Hands out :class:`TimedStore` (the ``sim`` backend, as the benchmark uses)."""

    def __init__(self, policy, recorder: Recorder) -> None:
        super().__init__(policy)
        self._recorder = recorder

    def store_for(self, member: str):
        store = self._stores.get(member)
        if store is None:
            store = self._stores[member] = TimedStore(self._recorder)
        return store


class TimedObservabilityPlane(ObservabilityPlane):
    def __init__(self, recorder: Recorder, **kwargs) -> None:
        super().__init__(**kwargs)
        # before on_attach hands self.on_action to the trace as its observer
        _time_methods(self, "obs.plane", recorder, ("on_action", "on_enqueue", "on_dequeue"))


class TracedParts(Parts):
    """The build parts of :class:`workloads.Parts`, timed into one recorder."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder

    def fifo(self):
        return StepScheduler(FIFOScheduler(), "ioa.scheduler", self.recorder)

    def chaos(self, seed: int):
        base = NestedScheduler(RandomScheduler(seed=seed), "ioa.scheduler", self.recorder)
        return StepScheduler(ChaosScheduler(base=base, seed=seed), "faults.chaos", self.recorder)

    def injector(self, plan, seed: int):
        return TimedFaultInjector(plan, seed, self.recorder)

    def persistence(self, policy):
        return TimedPersistencePlane(policy, self.recorder)

    def obs(self, **kwargs):
        return TimedObservabilityPlane(self.recorder, **kwargs)
