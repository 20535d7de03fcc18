"""The observability plane: registry, monitors and health on one simulation.

``ObservabilityPlane`` is the single object the build surface threads
through (``Protocol.build(obs=...)`` / ``ExperimentConfig(observe=True)``).
It is **off by default and inert by construction**: the plane appends no
actions, sends no messages, arms no timers and never touches the scheduler
or the RNG, so a run with the plane enabled produces a trace byte-identical
to a run without it (pinned by the golden-signature tests).  All it does is
*listen*: a trace observer updates the metrics registry on every appended
action, and the kernel calls two mailbox hooks on enqueue/dequeue.

Everything in the registry is derived from simulation-visible values
(virtual clock, payload stamps, action kinds), never from wall-clock time:
that measures the simulator, not the simulated system, and is measured by
the perf benchmark (``benchmarks/perf/run.py``) alone.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple, Union

from ..ioa.actions import Action, ActionKind
from ..ioa.trace import Trace, TraceError
from .registry import Counter, HeldInstruments, MetricsRegistry

if TYPE_CHECKING:  # each listener's module is imported by the plane that asks for it
    from .health import HealthPlane, HealthView, SLOPolicy
    from .monitor import MonitorSuite

_SEND, _RECV, _INTERNAL, _START = ActionKind.SEND, ActionKind.RECV, ActionKind.INTERNAL, ActionKind.START


class ObservabilityPlane:
    """Deterministic metrics for one run.

    ``monitors`` attaches the streaming invariant monitors
    (:mod:`repro.obs.monitor`): ``True`` for the default suite, or a
    pre-configured :class:`MonitorSuite` (e.g. with ``halt_on_violation``).
    ``health`` attaches the health/SLO plane (:mod:`repro.obs.health`):
    ``True`` for default thresholds, an :class:`SLOPolicy` for custom ones,
    or a pre-built :class:`HealthPlane`.  Both are pure listeners fed from
    the same per-action hook, so every golden byte-identity guarantee of the
    plane extends to them.
    """

    def __init__(
        self,
        monitors: Union[None, bool, MonitorSuite] = None,
        health: Union[None, bool, SLOPolicy, HealthPlane] = None,
    ) -> None:
        self.registry = MetricsRegistry()
        # the instruments touched on every action / mailbox event
        self._events = HeldInstruments(self.registry, "counter", "kernel.events", "kind")
        self._sent = HeldInstruments(self.registry, "counter", "kernel.messages_sent", "type")
        self._channels = HeldInstruments(self.registry, "counter", "kernel.messages_channel", "channel")
        self._mailboxes = HeldInstruments(self.registry, "gauge", "kernel.mailbox_depth", "automaton")
        # ... and on every consensus event or fired timer (label-less ones by name)
        self._consensus = HeldInstruments(self.registry, "counter", "consensus.events", "kind")
        self._counters = HeldInstruments(self.registry, "counter")
        self._gauges = HeldInstruments(self.registry, "gauge")
        self._histograms = HeldInstruments(self.registry, "histogram")
        #: (src, dst) -> its channel counter, until an automaton joins or retires
        self._pairs: Dict[Tuple[str, str], Counter] = {}
        if monitors is True:
            from .monitor import MonitorSuite

            monitors = MonitorSuite()
        self.monitors: Optional[MonitorSuite] = monitors or None
        if health:
            from .health import HealthPlane, SLOPolicy

            if health is True:
                health = HealthPlane()
            elif isinstance(health, SLOPolicy):
                health = HealthPlane(slo=health)
        self.health: Optional[HealthPlane] = health or None
        #: the per-action listeners, bound once: health first, monitors last,
        #: so a halt_on_violation raise (which aborts the kernel step
        #: mid-append) never loses the action from metrics or health
        self._listeners = tuple(
            listener.on_action for listener in (self.health, self.monitors) if listener is not None
        )
        self._simulation: Optional[weakref.ref] = None

    @property
    def simulation(self) -> Optional[Any]:
        """The observed simulation (``None`` before attach).  Held weakly: the
        simulation owns its plane, so dropping it frees it and its trace by
        reference counting — this then reads ``None`` again, while registry,
        monitors and health stay readable."""
        return self._simulation() if self._simulation is not None else None

    @property
    def health_view(self) -> Optional[HealthView]:
        """The query API over :attr:`health` (``None`` when health is off)."""
        if self.health is None:
            return None
        from .health import HealthView

        return HealthView(self.health)

    # -- kernel wiring ---------------------------------------------------
    def on_attach(self, simulation: Any) -> None:
        if self._simulation is not None and self._simulation() is not simulation:
            raise ValueError(
                "an ObservabilityPlane instance observes exactly one simulation; "
                "build a fresh plane per run"
            )
        self._simulation = weakref.ref(simulation)
        simulation.trace.set_observer(self.on_action)
        if self.health is not None:
            self.health.on_attach(simulation)

    def on_enqueue(self, delivery: Any) -> None:
        """A message entered the kernel's pending-delivery set."""
        gauge = self._mailboxes[delivery.message.dst]
        depth = gauge.value = gauge.value + 1
        if depth > gauge.max_value:
            gauge.max_value = depth

    def on_dequeue(self, message: Any) -> None:
        """A pending delivery left the set (delivered, extracted or dropped
        with a retired automaton)."""
        self._mailboxes[message.dst].value -= 1

    # -- the trace observer ----------------------------------------------
    def on_action(self, action: Action) -> None:
        kind = action.kind
        self._events[kind._value_].value += 1  # not .value: a Python-level property
        message = action.message
        if kind is _SEND and message is not None:
            self._sent[message.msg_type].value += 1
            channel = self._pairs.get((message.src, message.dst)) or self._channel(message)
            if channel is not None:
                channel.value += 1
        elif kind is _RECV and message is not None:
            if message.msg_type == "ctl-ack":
                registry = self.registry
                registry.counter("controller.acks").inc()
                sent = message.get("sent")
                simulation = self.simulation
                if isinstance(sent, int) and simulation is not None:
                    registry.histogram("controller.probe_rtt").observe(max(0, simulation.now() - sent))
        elif kind is _INTERNAL and action.info_keys:
            self._on_internal(dict(zip(action.info_keys, action.info_values)))
        elif kind is _START:
            self._pairs.clear()
        for listener in self._listeners:
            listener(action)

    def _channel(self, message: Any) -> Optional[Counter]:
        """A pair's channel counter (``None`` detached), held unless overflowed."""
        simulation = self.simulation
        if simulation is None:
            return None
        channel = simulation.topology.channel_class(message.src, message.dst)
        counter = self._channels[channel]
        if channel in self._channels:
            self._pairs[message.src, message.dst] = counter
        return counter

    def _on_internal(self, info: dict) -> None:
        registry = self.registry
        if "lifecycle" in info:
            self._pairs.clear()
        if info.get("timeout"):
            self._counters["kernel.timeouts_fired"].value += 1
        consensus = info.get("consensus")
        if consensus is not None:
            self._consensus[str(consensus)].value += 1
            term = info.get("term")
            if term is not None:
                gauge = self._gauges["consensus.max_term"]
                if int(term) > int(gauge.value or 0):
                    gauge.set(int(term))
            if consensus == "became-leader":
                self._histograms["consensus.leader_elected_vtime"].observe(int(info.get("vtime", 0)))
            elif consensus == "apply" and "commit_latency" in info:
                self._histograms["consensus.commit_latency"].observe(int(info["commit_latency"]))
                if info.get("read"):
                    self._counters["consensus.read_applies"].value += 1
            elif consensus == "local-read" and "read_latency" in info:
                self._histograms["consensus.lease_read_latency"].observe(int(info["read_latency"]))
        reconfig = info.get("reconfig")
        if isinstance(reconfig, str):  # timers carry reconfig=<request index>
            registry.counter("reconfig.events", kind=reconfig).inc()
        controller = info.get("controller")
        if controller is not None:
            registry.counter("controller.events", kind=str(controller)).inc()
            vtime = info.get("vtime")
            if controller == "tick":
                registry.counter("controller.probes").inc(int(info.get("probes", 0)))
            elif controller == "replica-dead" and vtime is not None:
                gauge = registry.gauge("controller.first_dead_vtime")
                if registry.counter_value("controller.events", kind="replica-dead") == 1:
                    gauge.set(int(vtime))
            elif controller == "healed" and vtime is not None:
                registry.gauge("controller.last_heal_vtime").set(int(vtime))


def derive_registry(trace: Trace) -> MetricsRegistry:
    """Post-mortem registry: replay a finished run's trace through a fresh
    detached plane — what a live plane would have counted, for a run that
    had none (the metric collectors' source; cache it per trace through
    :meth:`Trace.derived`).  Kernel-side instruments that need the
    simulation (channel classes, probe RTTs, mailbox depths) stay empty.

    A partial record would give counters that are wrong, not merely
    incomplete, so it is refused like :meth:`Trace.prefix` refuses it.
    """
    if not trace.is_full():
        raise TraceError(
            f"derive_registry() needs a full-mode trace (this one is "
            f"{trace.mode.describe()}): counters replayed from the retained "
            "records would miss every dropped one; run with observe=True so "
            "a live plane counts each action as it is appended"
        )
    plane = ObservabilityPlane()
    for action in trace:
        plane.on_action(action)
    return plane.registry
