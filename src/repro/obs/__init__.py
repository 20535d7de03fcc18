"""Deterministic observability plane: spans, metrics, monitors, health.

The coordinated pieces (see ISSUEs 6 and 8 / ROADMAP items 2, 3 and 5):

* :mod:`repro.obs.spans` — causal span trees derived from kernel traces
  (transactions → quorum rounds, consensus applies/elections, reconfig
  windows, plus send→recv causal edges);
* :mod:`repro.obs.registry` / :mod:`repro.obs.plane` — a kernel metrics
  registry fed by cheap hooks in the simulation (mailbox depth, events and
  messages per kind, election/epoch/retry counts, probe RTT distributions),
  with per-metric label-cardinality capping;
* :mod:`repro.obs.monitor` — **streaming invariant monitors**: the offline
  safety checkers as O(1)-per-event online automata, alerting (or halting)
  at the first offending trace index;
* :mod:`repro.obs.health` — the **health/SLO plane**: virtual-clock latency
  SLOs, rolling timeout/error rates, per-replica health scores, and the
  deterministic end-of-run health report (text + JSON);
* :mod:`repro.obs.profiler` — opt-in wall-clock profiling of the kernel hot
  loop, kept strictly out of every deterministic artifact;
* :mod:`repro.obs.export` — Chrome trace-event JSON (open in Perfetto) and
  compact text timelines.

The plane is **off by default**; with it enabled (monitors and health
included) a run's trace stays byte-identical — everything here listens,
nothing acts — and all derived artifacts are deterministic across runs.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "export": (
            "chrome_trace_events", "chrome_trace_json", "render_timeline", "write_chrome_trace",
        ),
        "health": ("HealthPlane", "HealthView", "SLOPolicy", "derive_health"),
        "monitor": (
            "InvariantViolation", "InvariantViolationError", "LeaseSafetyMonitor",
            "MonitorSuite", "OnlineMonitor", "default_monitors", "joint_quorums_intersect",
            "offline_lease_violations", "watch_trace",
        ),
        "plane": ("ObservabilityPlane", "derive_registry"),
        "profiler": ("KernelProfiler",),
        "registry": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
        "spans": ("CausalEdge", "Span", "SpanTree", "derive_spans"),
    },
)
