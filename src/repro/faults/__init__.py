"""Fault injection and network conditions for the simulation kernel.

The paper's model assumes reliable asynchronous channels; this subpackage is
the controlled departure from that assumption.  It provides:

* :mod:`repro.faults.plan` — the declarative :class:`FaultPlan` (latency
  models, drop/duplicate policies, partitions with heal times, server
  crash/recover schedules, a transport retry policy);
* :mod:`repro.faults.injector` — :class:`FaultInjector`, the
  :class:`~repro.ioa.network.FaultPlane` implementation that enforces a plan
  over one simulation, deterministically in its seed;
* :mod:`repro.faults.chaos` — :class:`ChaosScheduler`, which biases event
  selection by the injector's virtual arrival times;
* :mod:`repro.faults.scenarios` — a library of named chaos regimes used by
  the benchmark grid.

With no plan installed (or with :meth:`FaultPlan.none`) every execution is
byte-for-byte identical to the reliable kernel — the golden-trace tests under
``tests/faults`` pin that down — so the paper-faithful results are untouched.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "chaos": ("ChaosScheduler",),
        "injector": ("FaultInjector", "FaultStats"),
        "plan": (
            "BimodalLatency", "CrashEvent", "DropPolicy", "DuplicatePolicy", "FaultPlan",
            "FixedLatency", "LatencyModel", "Partition", "RetryPolicy", "UniformLatency",
        ),
        "adversary": ("chaos_adversarial_scheduler", "fracture_rules", "hunt_s_violations"),
        "scenarios": (
            "coordinator_failover", "crash_amnesia", "crash_recover",
            "duplicating_network", "fail_stop", "flaky_everything", "grow_group_mid_run",
            "lossy_network", "partition_grid_scenarios",
            "replace_dead_replica", "shrink_consensus_group_mid_run", "slow_network",
            "standard_fault_scenarios", "tail_latency",
        ),
    },
)
