"""Experiment harness: workloads, runner, metrics, suites and reporting.

The suite declarations themselves (``FAULTS``, ``FAILOVER``, …) live in
:mod:`repro.analysis.sweep`.
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
        "report": (
            "LATENCY_HEADERS", "format_latency_comparison", "format_markdown_table",
            "format_series", "format_table", "latency_comparison_rows",
        ),
        "runner": (
            "ExperimentConfig", "ExperimentResult", "compare_protocols", "make_scheduler",
            "register_scheduler", "run_experiment", "run_many", "scheduler_names",
        ),
        "sweep": (
            "GRID_SUITES", "Suite", "SuiteResult", "SweepPoint", "SweepResult", "bench_payload",
            "run_suite", "suite_rows",
        ),
        "workload": (
            "GeneratedWorkload", "WorkloadSpec", "generate_workload", "read_heavy_spec",
            "submit_workload", "write_heavy_spec",
        ),
    },
)
