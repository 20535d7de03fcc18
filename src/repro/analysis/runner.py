"""Experiment runner: one protocol, one workload, one schedule → one result.

The runner is the glue the benchmark harness is built on: it instantiates a
protocol through the registry, generates and submits a workload, runs the
simulation to completion, and packages the SNOW verdict together with the
latency/message metrics.  Everything is parameterised by plain dataclasses so
benchmark sweeps are declarative lists of configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Optional, Tuple

from ..core.snow import SnowReport, check_snow
from ..faults.chaos import ChaosScheduler
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..ioa.scheduler import (
    AdversarialScheduler,
    FIFOScheduler,
    LIFOScheduler,
    RandomScheduler,
    Scheduler,
)
from ..protocols.registry import get_protocol
from ..txn.history import History
from .metrics import ExperimentMetrics, collect_metrics
from .workload import WorkloadSpec, generate_workload, submit_workload

#: The config-addressable schedulers, by name (a fixed table: a new one is a new entry).
#: ``chaos+adversarial`` composes the fault-plane-aware chaos scheduler over
#: a rule-driven adversary (rules are added to ``scheduler.base`` after the
#: build, or via :func:`repro.faults.adversary.hunt_s_violations`): the
#: adversary orders events *and* the fault plan loses/delays them — the
#: combination the fault-aware S-violation hunts drive.
_SCHEDULER_FACTORIES: Dict[str, Callable[[int], Scheduler]] = {
    "fifo": lambda seed: FIFOScheduler(),
    "lifo": lambda seed: LIFOScheduler(),
    "random": lambda seed: RandomScheduler(seed=seed),
    "chaos": lambda seed: ChaosScheduler(seed=seed),
    "chaos+adversarial": lambda seed: ChaosScheduler(
        base=AdversarialScheduler(base=RandomScheduler(seed=seed)), seed=seed
    ),
}


def scheduler_names() -> Tuple[str, ...]:
    """All scheduler names accepted by experiment configs, sorted."""
    return tuple(sorted(_SCHEDULER_FACTORIES))


def make_scheduler(name: str, seed: int = 0) -> Scheduler:
    """Instantiate a scheduler by registry name (see :func:`scheduler_names`)."""
    try:
        factory = _SCHEDULER_FACTORIES[name]
    except KeyError:
        known = ", ".join(repr(n) for n in scheduler_names())
        raise ValueError(f"unknown scheduler {name!r}; valid schedulers: {known}") from None
    return factory(seed)


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment run."""

    protocol: str
    num_readers: int = 2
    num_writers: int = 2
    num_objects: int = 2
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    scheduler: str = "fifo"
    seed: int = 0
    c2c: Optional[bool] = None
    initial_value: Any = 0
    check_properties: bool = True
    #: optional fault plan; None keeps the reliable channels of the paper.
    #: A faulted run executes until idle rather than to completion, so
    #: availability (completed/submitted) becomes a first-class result.
    faults: Optional[FaultPlan] = None
    #: replicas per object; 1 is the paper's one-server-per-object setting.
    replication_factor: int = 1
    #: quorum policy name (see :func:`repro.txn.placement.quorum_policy_names`).
    quorum: str = "read-one-write-all"
    #: consensus members replicating the coordinator; 1 is the seed's single
    #: designated server (see :mod:`repro.consensus`).
    consensus_factor: int = 1
    #: scheduled membership changes; None keeps membership fixed for the
    #: whole run (see :mod:`repro.consensus.reconfig`).
    reconfig: Optional[Any] = None
    #: automated-rebalancing policy; None runs without the control loop
    #: (see :mod:`repro.consensus.controller`).
    controller: Optional[Any] = None
    #: install the observability plane (kernel metrics registry + causal
    #: spans; see :mod:`repro.obs`).  Purely additive: the trace and every
    #: metric block stay identical — the collectors read the plane's
    #: registry instead of replaying the trace into one, which is also what
    #: keeps the consensus/controller blocks exact under a partial
    #: ``trace_mode``.
    observe: bool = False
    #: attach the streaming invariant monitors (implies ``observe``); the
    #: run's alerts are readable via ``result.obs.monitors.alerts``.
    monitors: bool = False
    #: attach the health/SLO plane (implies ``observe``); read via
    #: ``result.obs.health_view`` (see :mod:`repro.obs.health`).
    health: bool = False
    #: trace record retention (None = full; see :class:`repro.ioa.TraceMode`)
    trace_mode: Optional[Any] = None
    #: stable storage for consensus members (a
    #: :class:`~repro.persist.PersistencePolicy` or plane); None keeps the
    #: seed's volatile members (see :mod:`repro.persist`)
    persistence: Optional[Any] = None
    #: leader leases for the consensus read fast path (``True``); None keeps
    #: the seed's commit-everything read path (see :mod:`repro.consensus.lease`)
    leases: Optional[bool] = None

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, seed=seed, workload=replace(self.workload, seed=seed))

    def describe(self) -> str:
        base = (
            f"{self.protocol} ({self.num_readers}R/{self.num_writers}W/{self.num_objects} objects, "
            f"{self.scheduler} seed={self.seed}): {self.workload.describe()}"
        )
        if self.replication_factor > 1:
            base += f" [replication={self.replication_factor}, quorum={self.quorum}]"
        if self.consensus_factor > 1:
            base += f" [consensus={self.consensus_factor}]"
        if self.reconfig is not None:
            base += f" [{self.reconfig.describe()}]"
        if self.controller is not None:
            base += f" [{self.controller.describe()}]"
        if self.faults is not None:
            base += f" [{self.faults.describe()}]"
        extras = [
            flag
            for flag, on in (
                ("observe", self.observe),
                ("monitors", self.monitors),
                ("health", self.health),
            )
            if on
        ]
        if extras:
            base += f" [{', '.join(extras)}]"
        if self.trace_mode is not None:
            base += f" [trace={self.trace_mode.describe()}]"
        if self.persistence is not None:
            base += f" [{self.persistence.describe()}]"
        if self.leases is not None:
            base += " [leases]"
        return base


@dataclass
class ExperimentResult:
    """Everything measured in one run."""

    config: ExperimentConfig
    metrics: ExperimentMetrics
    snow: Optional[SnowReport]
    history: History
    read_ids: Tuple[str, ...]
    write_ids: Tuple[str, ...]
    #: the run's observability plane; None unless ``config.observe``/``monitors``/``health``
    obs: Optional[Any] = None

    @property
    def protocol(self) -> str:
        return self.config.protocol

    def property_string(self) -> str:
        return self.snow.property_string() if self.snow else "????"

    def describe(self) -> str:
        lines = [self.config.describe()]
        if self.snow is not None:
            lines.append(f"  properties: {self.snow.property_string()}")
        lines.append("  " + self.metrics.describe().replace("\n", "\n  "))
        return "\n".join(lines)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run one experiment to completion and collect all measurements."""
    partial_trace = config.trace_mode is not None and config.trace_mode.kind != "full"
    if config.check_properties and partial_trace:
        # The SNOW N/O checkers walk per-message trace records; a partial
        # record yields *wrong* verdicts (phantom blocking servers, zero
        # replies seen), not merely incomplete ones — refuse up front rather
        # than after the run.
        raise ValueError(
            f"check_properties needs a full trace record, but trace_mode="
            f"{config.trace_mode.describe()} retains only some of it; pass "
            "check_properties=False for retention-mode runs (counters, "
            "monitors and the health plane stay exact)"
        )
    observed = config.observe or config.monitors or config.health
    if partial_trace and not observed and (
        config.consensus_factor > 1 or config.reconfig is not None or config.controller is not None
    ):
        # Without a plane the consensus and controller blocks are counted by
        # replaying the retained trace; on a partial record that count is
        # silently short, so the replay refuses it — say so before the run.
        raise ValueError(
            f"the consensus/controller metric blocks need every action, but trace_mode="
            f"{config.trace_mode.describe()} retains only some of the trace and no "
            "observability plane is requested; pass observe=True so a live plane "
            "counts each action as it is appended"
        )
    protocol = get_protocol(config.protocol)
    build_kwargs: Dict[str, Any] = dict(
        num_readers=config.num_readers,
        num_writers=config.num_writers,
        num_objects=config.num_objects,
        scheduler=make_scheduler(config.scheduler, config.seed),
        seed=config.seed,
        initial_value=config.initial_value,
        c2c=config.c2c,
        replication_factor=config.replication_factor,
        quorum=config.quorum,
        consensus_factor=config.consensus_factor,
        reconfig=config.reconfig,
        controller=config.controller,
        persistence=config.persistence,
        leases=config.leases,
        trace_mode=config.trace_mode,
    )
    if not protocol.supports_multiple_readers:
        build_kwargs["num_readers"] = 1
    if config.faults is not None:
        build_kwargs["fault_plane"] = FaultInjector(config.faults, seed=config.seed)
    if observed:
        from ..obs import ObservabilityPlane

        build_kwargs["obs"] = ObservabilityPlane(monitors=config.monitors, health=config.health)
    handle = protocol.build(**build_kwargs)

    workload = generate_workload(config.workload, handle.readers, handle.writers, handle.objects)
    read_ids, write_ids = submit_workload(handle, workload)
    if config.faults is None:
        handle.run_to_completion()
    else:
        # Under faults a run may legally go idle with transactions stuck
        # behind a permanent partition or fail-stopped server; those count
        # against availability instead of raising LivenessError.
        handle.run()

    history = handle.history()
    metrics = collect_metrics(
        handle.simulation,
        protocol_name=config.protocol,
        placement=handle.placement,
        quorum_policy=handle.quorum_policy,
        directory=handle.directory,
    )
    snow = check_snow(handle.simulation, history) if config.check_properties else None
    return ExperimentResult(
        config=config,
        metrics=metrics,
        snow=snow,
        history=history,
        read_ids=tuple(read_ids),
        write_ids=tuple(write_ids),
        obs=handle.obs,
    )
