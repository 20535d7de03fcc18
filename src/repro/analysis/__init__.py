"""Experiment harness: workloads, runner, metrics, suites and reporting.

The suite declarations themselves (``FAULTS``, ``FAILOVER``, …) live in
:mod:`repro.analysis.sweep`.
"""

from .metrics import (
    AggregateStats,
    ConsensusMetrics,
    ControllerMetrics,
    ExperimentMetrics,
    FaultMetrics,
    PersistenceMetrics,
    ReconfigMetrics,
    ReplicationMetrics,
    TransactionMetrics,
    collect_metrics,
    percentile,
)
from .report import (
    LATENCY_HEADERS,
    format_latency_comparison,
    format_markdown_table,
    format_series,
    format_table,
    latency_comparison_rows,
)
from .runner import (
    ExperimentConfig,
    ExperimentResult,
    compare_protocols,
    make_scheduler,
    register_scheduler,
    run_experiment,
    run_many,
    scheduler_names,
)
from .sweep import (
    GRID_SUITES,
    Suite,
    SuiteResult,
    SweepPoint,
    SweepResult,
    bench_payload,
    run_suite,
    suite_rows,
)
from .workload import (
    GeneratedWorkload,
    WorkloadSpec,
    generate_workload,
    read_heavy_spec,
    submit_workload,
    write_heavy_spec,
)

__all__ = [
    "AggregateStats",
    "ConsensusMetrics",
    "ControllerMetrics",
    "ExperimentMetrics",
    "FaultMetrics",
    "PersistenceMetrics",
    "ReconfigMetrics",
    "ReplicationMetrics",
    "TransactionMetrics",
    "collect_metrics",
    "percentile",
    "LATENCY_HEADERS",
    "format_latency_comparison",
    "format_markdown_table",
    "format_series",
    "format_table",
    "latency_comparison_rows",
    "ExperimentConfig",
    "ExperimentResult",
    "compare_protocols",
    "make_scheduler",
    "register_scheduler",
    "run_experiment",
    "run_many",
    "scheduler_names",
    "GRID_SUITES",
    "Suite",
    "SuiteResult",
    "SweepPoint",
    "SweepResult",
    "bench_payload",
    "run_suite",
    "suite_rows",
    "GeneratedWorkload",
    "WorkloadSpec",
    "generate_workload",
    "read_heavy_spec",
    "submit_workload",
    "write_heavy_spec",
]
