"""Experiment harness: workloads, runner, metrics, suites and reporting.

The suite declarations themselves (``FAULTS``, ``FAILOVER``, …) and their
expectation predicates live in :mod:`repro.analysis.sweep`;
``python -m repro.analysis [NAME ...]`` regenerates the filed suites.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "metrics": (
            "AggregateStats", "ConsensusMetrics", "ControllerMetrics", "ExperimentMetrics",
            "FaultMetrics", "PersistenceMetrics", "ReconfigMetrics", "ReplicationMetrics",
            "TransactionMetrics", "collect_metrics", "percentile",
        ),
        "report": ("format_table",),
        "runner": (
            "ExperimentConfig", "ExperimentResult", "make_scheduler",
            "run_experiment", "scheduler_names",
        ),
        "sweep": (
            "GRID_SUITES", "Suite", "SuiteResult", "bench_payload", "run_suite", "suite_rows",
        ),
        "workload": (
            "GeneratedWorkload", "WorkloadSpec", "generate_workload", "read_heavy_spec",
            "submit_workload", "write_heavy_spec",
        ),
    },
)
