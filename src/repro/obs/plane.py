"""The observability plane: registry + profiler wired onto one simulation.

``ObservabilityPlane`` is the single object the build surface threads
through (``Protocol.build(obs=...)`` / ``ExperimentConfig(observe=True)``).
It is **off by default and inert by construction**: the plane appends no
actions, sends no messages, arms no timers and never touches the scheduler
or the RNG, so a run with the plane enabled produces a trace byte-identical
to a run without it (pinned by the golden-signature tests).  All it does is
*listen*: a trace observer updates the metrics registry on every appended
action, and the kernel calls two mailbox hooks on enqueue/dequeue.

Everything in the registry is derived from simulation-visible values
(virtual clock, payload stamps, action kinds) — wall-clock time only exists
inside the optional :class:`KernelProfiler`, whose report is kept strictly
out of snapshots, span trees and exports.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Any, Optional, Union

from ..ioa.actions import Action, ActionKind
from ..ioa.trace import Trace, TraceError
from .registry import HeldInstruments, MetricsRegistry

if TYPE_CHECKING:  # each listener's module is imported by the plane that asks for it
    from .health import HealthPlane, HealthView, SLOPolicy
    from .monitor import MonitorSuite
    from .profiler import KernelProfiler


class ObservabilityPlane:
    """Deterministic metrics (plus optional wall-clock profiling) for one run.

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
        profile: bool = False,
        monitors: Union[None, bool, MonitorSuite] = None,
        health: Union[None, bool, SLOPolicy, HealthPlane] = None,
    ) -> None:
        self.registry = MetricsRegistry()
        # the instruments touched on every action / mailbox event
        self._events = HeldInstruments(self.registry, "counter", "kernel.events", "kind")
        self._sent = HeldInstruments(self.registry, "counter", "kernel.messages_sent", "type")
        self._channels = HeldInstruments(self.registry, "counter", "kernel.messages_channel", "channel")
        self._mailboxes = HeldInstruments(self.registry, "gauge", "kernel.mailbox_depth", "automaton")
        self.profiler: Optional[KernelProfiler] = None
        if profile:
            from .profiler import KernelProfiler

            self.profiler = KernelProfiler()
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
        if self.profiler is not None:
            self.profiler.install(simulation)

    def on_enqueue(self, delivery: Any) -> None:
        """A message entered the kernel's pending-delivery set."""
        self._mailboxes[delivery.message.dst].inc()

    def on_dequeue(self, message: Any) -> None:
        """A pending delivery left the set (delivered, extracted or dropped
        with a retired automaton)."""
        self._mailboxes[message.dst].dec()

    # -- the trace observer ----------------------------------------------
    def on_action(self, action: Action) -> None:
        registry = self.registry
        self._events[action.kind.value].inc()
        message = action.message
        if action.kind is ActionKind.SEND and message is not None:
            self._sent[message.msg_type].inc()
            simulation = self.simulation
            if simulation is not None:
                channel = simulation.topology.channel_class(message.src, message.dst)
                self._channels[channel].inc()
        elif action.kind is ActionKind.RECV and message is not None:
            if message.msg_type == "ctl-ack":
                registry.counter("controller.acks").inc()
                sent = message.get("sent")
                simulation = self.simulation
                if isinstance(sent, int) and simulation is not None:
                    registry.histogram("controller.probe_rtt").observe(
                        max(0, simulation.now() - sent)
                    )
        elif action.kind is ActionKind.INTERNAL and action.info:
            self._on_internal(dict(action.info))
        if self.health is not None:
            self.health.on_action(action)
        # Monitors run last so a halt_on_violation raise (which aborts the
        # kernel step mid-append) never loses the action from metrics/health.
        if self.monitors is not None:
            self.monitors.on_action(action)

    def _on_internal(self, info: dict) -> None:
        registry = self.registry
        if info.get("timeout"):
            registry.counter("kernel.timeouts_fired").inc()
        consensus = info.get("consensus")
        if consensus is not None:
            registry.counter("consensus.events", kind=str(consensus)).inc()
            term = info.get("term")
            if term is not None:
                gauge = registry.gauge("consensus.max_term")
                if int(term) > int(gauge.value or 0):
                    gauge.set(int(term))
            if consensus == "became-leader":
                registry.histogram("consensus.leader_elected_vtime").observe(
                    int(info.get("vtime", 0))
                )
            elif consensus == "apply" and "commit_latency" in info:
                registry.histogram("consensus.commit_latency").observe(
                    int(info["commit_latency"])
                )
                if info.get("read"):
                    registry.counter("consensus.read_applies").inc()
            elif consensus == "local-read" and "read_latency" in info:
                registry.histogram("consensus.lease_read_latency").observe(
                    int(info["read_latency"])
                )
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

    # -- rendering --------------------------------------------------------
    def describe(self) -> str:
        lines = [self.registry.describe()]
        if self.monitors is not None:
            lines.append(self.monitors.describe())
        if self.health is not None:
            lines.append(self.health_view.render())
        if self.profiler is not None:
            simulation = self.simulation
            steps = simulation.steps_taken if simulation is not None else 0
            lines.append(self.profiler.report(steps=steps))
        return "\n".join(lines)


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
