"""Experiment suites: declared grids, one runner, one row projector.

Everything beyond the paper's two summary matrices reaches the reader as a
table — SNOW verdict, rounds, versions, availability per protocol × setting.
A table is declared once as a frozen :class:`Suite` (who runs, on which axes,
what every cell shares, what an axis value changes, which metric blocks the
row carries) and produced by the same three steps whatever the plane:

* :func:`run_suite` — the one grid loop: protocols × axis values, one
  :func:`~repro.analysis.runner.run_experiment` per cell;
* :func:`suite_rows` — the one projector: a cell's JSON-ready row, tracked
  across PRs as ``benchmarks/results/BENCH_<suite.name>.json``
  (:func:`bench_payload`) and pinned column for column by
  ``tests/analysis/test_suite_golden.py``;
* :meth:`SuiteResult.series` — a one-axis suite read as per-protocol series
  (the figure-shaped benchmarks: versions vs. writers, rounds vs. contention,
  latency vs. read fan-out).

The declarations are the module constants below (:data:`GRID_SUITES` lists
the seven that own a BENCH file); a variation for a test or a notebook is
``dataclasses.replace(SUITE, ...)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..consensus.controller import ControllerPolicy
from ..faults.plan import CrashEvent, DropPolicy, FaultPlan, RetryPolicy
from ..faults.scenarios import (
    auto_heal,
    coordinator_failover,
    fail_stop,
    grow_group_mid_run,
    partition_grid_scenarios,
    replace_dead_replica,
    standard_fault_scenarios,
)
from ..persist import PersistencePolicy
from ..txn.placement import coordinator_group_names, replica_names
from .runner import ExperimentConfig, ExperimentResult, run_experiment
from .workload import WorkloadSpec


def _read_latency(result: ExperimentResult, stat: str) -> Optional[float]:
    latency = result.metrics.read_latency_steps
    return round(getattr(latency, stat), 2) if latency.count else None


#: run-level row columns a suite may carry next to the verdict pair
RUN_COLUMNS: Dict[str, Callable[[ExperimentResult], Any]] = {
    "max_read_rounds": lambda result: result.metrics.max_read_rounds(),
    "total_steps": lambda result: result.metrics.total_steps,
    "total_messages": lambda result: result.metrics.total_messages,
    "quorum": lambda result: result.config.quorum,
    "completed_reads_mean_latency_steps": lambda result: _read_latency(result, "mean"),
    "completed_reads_p95_latency_steps": lambda result: _read_latency(result, "p95"),
    "client_read_latency_mean": lambda result: _read_latency(result, "mean"),
}


@dataclass(frozen=True)
class Suite:
    """One declared experiment grid: ``protocols`` × the values of ``axes``.

    A cell's configuration is ``shared`` overlaid with ``vary(seed, *axis
    values)`` — the fields an axis value changes: fault plan, factor, leases,
    persistence, reconfig, controller — seeded with ``seed`` (configuration
    and workload alike).  Its row carries the axis values, the SNOW verdict,
    the chosen :data:`RUN_COLUMNS` and, per entry of ``blocks``, the named
    metric block's ``as_dict()`` (all of it, or the listed keys) when the
    run produced that block.
    """

    #: for a grid suite also its file, ``benchmarks/results/BENCH_<name>.json``
    name: str
    protocols: Tuple[str, ...]
    seed: int
    #: axis name → its values, outermost first (the row's identity columns
    #: are ``["protocol", *axes]``)
    axes: Mapping[str, Sequence[Any]]
    #: the :class:`ExperimentConfig` fields every cell shares
    shared: Mapping[str, Any]
    vary: Callable[..., Mapping[str, Any]]
    columns: Tuple[str, ...] = ()
    blocks: Tuple[Tuple[str, Optional[Tuple[str, ...]]], ...] = ()


@dataclass
class SweepPoint:
    """One (x, result) point of a series."""

    x: Any
    result: ExperimentResult

    @property
    def metrics(self):
        return self.result.metrics


@dataclass
class SweepResult:
    """A named series of sweep points."""

    name: str
    x_label: str
    points: List[SweepPoint]

    def series(self, extractor) -> List[Tuple[Any, Any]]:
        return [(point.x, extractor(point.result)) for point in self.points]

    def max_versions_series(self) -> List[Tuple[Any, int]]:
        return self.series(lambda r: r.metrics.max_versions())

    def max_rounds_series(self) -> List[Tuple[Any, int]]:
        return self.series(lambda r: r.metrics.max_read_rounds())

    def mean_rounds_series(self) -> List[Tuple[Any, float]]:
        return self.series(
            lambda r: round(r.metrics.read_rounds.mean, 2) if r.metrics.read_rounds.count else 0.0
        )

    def mean_read_latency_series(self) -> List[Tuple[Any, float]]:
        return self.series(
            lambda r: round(r.metrics.read_latency_steps.mean, 1)
            if r.metrics.read_latency_steps.count
            else 0.0
        )


@dataclass
class SuiteResult:
    """A run suite: ``cells[(protocol, *axis values)]`` is that cell's result."""

    suite: Suite
    cells: Dict[Tuple[Any, ...], ExperimentResult]

    def series(self) -> Dict[str, SweepResult]:
        """Per protocol, the cells of a one-axis suite as a series over that axis."""
        (x_label,) = self.suite.axes
        return {
            protocol: SweepResult(
                name=f"{protocol}: {self.suite.name}",
                x_label=x_label,
                points=[
                    SweepPoint(x=x, result=result)
                    for (cell_protocol, x), result in self.cells.items()
                    if cell_protocol == protocol
                ],
            )
            for protocol in self.suite.protocols
        }


def run_suite(suite: Suite) -> SuiteResult:
    """Run every cell of ``suite``: protocol-major, then the axes in order."""
    cells: Dict[Tuple[Any, ...], ExperimentResult] = {}
    for protocol, *values in product(suite.protocols, *suite.axes.values()):
        fields = {**suite.shared, **suite.vary(suite.seed, *values)}
        config = ExperimentConfig(protocol=protocol, **fields).with_seed(suite.seed)
        cells[(protocol, *values)] = run_experiment(config)
    return SuiteResult(suite, cells)


def suite_rows(run: SuiteResult) -> List[Dict[str, Any]]:
    """Flatten a run suite into JSON-ready rows, one per cell.

    Two rules apply to every suite: a cell run without a fault plan reports
    ``availability`` 1.0 where the ``faults`` block would have, and a cell
    whose plan partitions the network reports its ``partition_duration``
    (the longest finite partition; the placement is in the scenario name).
    """
    suite = run.suite
    rows: List[Dict[str, Any]] = []
    for (protocol, *values), result in run.cells.items():
        snow = result.snow
        row: Dict[str, Any] = {
            "protocol": protocol,
            **dict(zip(suite.axes, values)),
            "snow": result.property_string(),
            "consistent": snow.satisfies_s if snow is not None else None,
        }
        for column in suite.columns:
            row[column] = RUN_COLUMNS[column](result)
        for name, keys in suite.blocks:
            block = getattr(result.metrics, name)
            if block is None:
                if name == "faults":
                    row["availability"] = 1.0
                continue
            columns = block.as_dict()
            row.update(columns if keys is None else {k: columns[k] for k in keys if k in columns})
        plan = result.config.faults
        if plan is not None and plan.partitions:
            finite = [p.heal - p.start for p in plan.partitions if p.heal is not None]
            row["partition_duration"] = max(finite) if finite else None
        rows.append(row)
    return rows


def bench_payload(suite: Suite, rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The ``BENCH_<suite.name>.json`` payload; ``axes`` names the columns
    that identify a row (what ``check_bench_regression.py`` matches on)."""
    return {
        "axes": ["protocol", *suite.axes],
        "grid": rows,
        "protocols": list(suite.protocols),
        "seed": suite.seed,
    }


# ----------------------------------------------------------------------
# The grid suites (one BENCH file each)
# ----------------------------------------------------------------------
#: what every grid cell shares: 2 readers / 2 writers / 2 objects (the
#: config defaults), this workload, the fault-plane-aware scheduler
_GRID_CELL: Dict[str, Any] = dict(
    workload=WorkloadSpec(reads_per_reader=6, writes_per_writer=3, read_size=2, write_size=2),
    scheduler="chaos",
)
#: the first object of a two-object system, and the server holding it
_FIRST_OBJECT, _FIRST_SERVER = "ox", "sx"
_AVAILABILITY = ("availability", "read_availability", "write_availability")
#: the protocols with a coordinator to replicate
_COORDINATOR_PROTOCOLS = ("algorithm-b", "algorithm-c", "occ-double-collect")
#: the duration axis of the chaos grid's partition scenarios
PARTITION_DURATIONS = (20, 60)


def _fault_scenarios(seed: int) -> Dict[str, FaultPlan]:
    """The standard scenarios (crashes aimed at the first object's server, so
    they bite), a fail-stop, and the partition grid: placement (client↔shard /
    shard↔shard) × duration."""
    scenarios = standard_fault_scenarios(seed=seed, crash_server=_FIRST_SERVER)
    scenarios["fail-stop"] = fail_stop(server=_FIRST_SERVER, at=12, seed=seed)
    scenarios.update(
        partition_grid_scenarios(
            clients=("r1", "r2", "w1", "w2"),
            servers=("sx", "sy"),
            durations=PARTITION_DURATIONS,
            seed=seed,
        )
    )
    return scenarios


#: The chaos grid: every protocol under every named fault scenario.  The
#: fault-free ``none`` column doubles as the baseline the degradation numbers
#: are relative to; ``consistent`` (did S survive, over the completed
#: transactions) next to ``availability`` (what fraction completed) is the
#: CAP-style column pair.
FAULTS = Suite(
    name="faults",
    protocols=("simple-rw", "algorithm-b", "algorithm-c", "eiger"),
    seed=7,
    axes={"scenario": tuple(_fault_scenarios(0))},
    shared=_GRID_CELL,
    vary=lambda seed, scenario: {"faults": _fault_scenarios(seed)[scenario]},
    columns=(
        "completed_reads_mean_latency_steps",
        "completed_reads_p95_latency_steps",
        "max_read_rounds",
        "total_steps",
        "total_messages",
    ),
    blocks=(("faults", None),),
)


def _replica_crash(seed: int, factor: int, scenario: str) -> Dict[str, Any]:
    """``crash-replica`` fail-stops the *last* replica of the first object's
    group mid-run: the only copy at factor 1, absorbed by a majority quorum
    at factor ≥ 3."""
    plan = FaultPlan.none()
    if scenario == "crash-replica":
        target = replica_names(_FIRST_OBJECT, factor)[-1]
        plan = FaultPlan(
            name=scenario, crashes=(CrashEvent(server=target, at=6, recover=None),), seed=seed
        )
    return {
        "faults": plan,
        "replication_factor": factor,
        "quorum": "majority" if factor > 1 else "read-one-write-all",
    }


#: The replication grid: protocol × replication factor × replica fate.
REPLICATION = Suite(
    name="replication",
    protocols=("algorithm-a", "algorithm-b", "algorithm-c"),
    seed=9,
    axes={"replication_factor": (1, 2, 3), "scenario": ("none", "crash-replica")},
    shared=_GRID_CELL,
    vary=_replica_crash,
    columns=("quorum", "max_read_rounds", "total_messages"),
    blocks=(("faults", _AVAILABILITY), ("replication", None)),
)


def _leader_crash(seed: int, factor: int, scenario: str) -> Dict[str, Any]:
    """``crash-leader`` fail-stops the coordinator's leader mid-run: at factor
    1 that is the designated first storage server (the seed's single point of
    failure); at factor ≥ 3 the survivors elect a successor."""
    plan = FaultPlan.none()
    if scenario == "crash-leader":
        group = coordinator_group_names(factor)
        leader = group[0] if group else _FIRST_SERVER
        plan = coordinator_failover(leader=leader, at=14, seed=seed)
    return {"faults": plan, "consensus_factor": factor}


#: The failover grid: protocol × consensus factor × coordinator fate.
FAILOVER = Suite(
    name="failover",
    protocols=_COORDINATOR_PROTOCOLS,
    seed=11,
    axes={"consensus_factor": (1, 3), "scenario": ("none", "crash-leader")},
    shared=_GRID_CELL,
    vary=_leader_crash,
    columns=("max_read_rounds", "total_messages"),
    blocks=(("faults", _AVAILABILITY), ("consensus", None)),
)

_PERSISTENCE_MODES: Dict[str, Optional[PersistencePolicy]] = {
    "volatile": None,
    "durable": PersistencePolicy(),
    "durable+compact": PersistencePolicy(compact_every=4),
}


def _amnesia(seed: int, mode: str, scenario: str) -> Dict[str, Any]:
    """``amnesia-member`` crashes one consensus member with amnesia and
    recovers it mid-run: with a store attached it recovers its
    term/vote/log instead of resetting."""
    plan = FaultPlan.none()
    if scenario == "amnesia-member":
        plan = FaultPlan(
            name=scenario,
            crashes=(CrashEvent(server="coor.2", at=10, recover=45, preserve_state=False),),
            retry=RetryPolicy(timeout_steps=10, max_attempts=8),
            seed=seed,
        )
    return {"faults": plan, "persistence": _PERSISTENCE_MODES[mode]}


#: The durability grid: protocol × persistence mode × member fate.
PERSIST = Suite(
    name="persist",
    protocols=_COORDINATOR_PROTOCOLS,
    seed=11,
    axes={"persistence": tuple(_PERSISTENCE_MODES), "scenario": ("none", "amnesia-member")},
    shared={**_GRID_CELL, "consensus_factor": 3},
    vary=_amnesia,
    columns=("total_messages",),
    blocks=(
        ("faults", ("availability",)),
        ("consensus", ("elections", "max_term")),
        ("persistence", None),
    ),
)


def _leased(seed: int, mode: str, scenario: str) -> Dict[str, Any]:
    """``leader-crash`` fail-stops the lease holder mid-run, crossing the
    read fast path with an election."""
    plan = FaultPlan.none()
    if scenario == "leader-crash":
        plan = coordinator_failover(leader="coor", at=12, seed=seed)
    return {"faults": plan, "leases": True if mode == "leased" else None}


#: The leader-lease grid: protocol × lease mode × coordinator fate, fully
#: replicated.  Protocols whose coordinator requests all mutate (OCC's
#: ``get-ts`` mints a timestamp) pin the null effect — the knob changes
#: nothing, and the lease columns (present only on lease activity) are absent.
LEASE = Suite(
    name="lease",
    protocols=_COORDINATOR_PROTOCOLS,
    seed=11,
    axes={"leases": ("none", "leased"), "scenario": ("steady", "leader-crash")},
    shared={**_GRID_CELL, "replication_factor": 3, "quorum": "majority", "consensus_factor": 3},
    vary=_leased,
    columns=("max_read_rounds", "total_messages", "client_read_latency_mean"),
    blocks=(
        ("faults", ("availability",)),
        (
            "consensus",
            (
                "elections",
                "max_term",
                "commit_latency_mean",
                "commit_latency_p95",
                "lease_acquisitions",
                "lease_renewals",
                "lease_expiries",
                "local_reads",
                "read_applies",
                "local_read_ratio",
                "lease_read_latency_mean",
                "lease_read_latency_p95",
            ),
        ),
    ),
)

#: drop probability of each ``lossy-replace-pNN`` scenario
_LOSSY_REPLACE = {f"lossy-replace-p{round(p * 100):02d}": p for p in (0.05, 0.15, 0.30)}


def _membership_change(seed: int, scenario: str) -> Dict[str, Any]:
    """``replace-dead-replica``: the last replica of the first object's group
    fail-stops, then a joint-consensus change swaps in a fresh one;
    ``grow-group``: the group grows rf 3 → 5 mid-run, fault-free;
    ``lossy-replace-pNN``: the replacement under uniform message loss."""
    if scenario == "none":
        return {}
    if scenario == "grow-group":
        plan, reconfig = grow_group_mid_run(_FIRST_OBJECT, 3)
    else:
        plan, reconfig = replace_dead_replica(_FIRST_OBJECT, 3, seed=seed)
    if scenario in _LOSSY_REPLACE:
        plan = replace(
            plan,
            name=scenario,
            drops=DropPolicy(probability=_LOSSY_REPLACE[scenario], max_consecutive=4),
            retry=RetryPolicy(timeout_steps=10, max_attempts=8),
        )
    return {"faults": plan, "reconfig": reconfig}


#: what the membership grids share: three replicas per object, majority quorums
_REPLICATED_CELL = {**_GRID_CELL, "replication_factor": 3, "quorum": "majority"}

#: The reconfiguration grid: protocol × membership scenario.  Along the loss
#: axis drops and retransmissions grow while ``total_messages`` (unique
#: protocol messages) and the verdict columns stay put.
RECONFIG = Suite(
    name="reconfig",
    protocols=("algorithm-a", "algorithm-b"),
    seed=13,
    axes={"scenario": ("none", "replace-dead-replica", "grow-group", *_LOSSY_REPLACE)},
    shared=_REPLICATED_CELL,
    vary=_membership_change,
    columns=("max_read_rounds", "total_messages"),
    blocks=(
        ("faults", ("availability", "messages_dropped", "retransmissions")),
        ("replication", ("replication_factor", "quorum")),
        ("reconfig", None),
    ),
)


def _self_healing(seed: int, scenario: str) -> Dict[str, Any]:
    """``none``: the controller probes but must derive nothing;
    ``auto-heal-dead-replica``: a replica fail-stops with no hand-authored
    plan and the controller must restore full group strength on its own."""
    if scenario == "none":
        return {"controller": ControllerPolicy()}
    plan, policy = auto_heal(_FIRST_OBJECT, 3, seed=seed)
    return {"faults": plan, "controller": policy}


#: The self-healing grid: protocol family × controller scenario.  s2pl is
#: absent by design: its lock rounds block on a fail-stopped replica (giving
#: up N is its defining property) whatever the membership machinery does.
CONTROLLER = Suite(
    name="controller",
    protocols=(
        "algorithm-a",
        "algorithm-b",
        "algorithm-c",
        "occ-double-collect",
        "eiger",
        "naive-snow",
    ),
    seed=17,
    axes={"scenario": ("none", "auto-heal-dead-replica")},
    shared=_REPLICATED_CELL,
    vary=_self_healing,
    columns=("max_read_rounds", "total_messages"),
    blocks=(
        ("faults", ("availability",)),
        ("replication", ("replication_factor", "quorum")),
        ("reconfig", None),
        ("controller", None),
    ),
)

#: the suites that own a ``BENCH_<name>.json``
GRID_SUITES: Tuple[Suite, ...] = (
    FAULTS, REPLICATION, FAILOVER, PERSIST, LEASE, RECONFIG, CONTROLLER
)

# ----------------------------------------------------------------------
# The series suites (one axis, read through SuiteResult.series())
# ----------------------------------------------------------------------
_WRITER_COUNTS = (1, 2, 4, 6)

#: Algorithm C's reply sizes as concurrent WRITE transactions grow (the
#: ``|W|`` bound of Figure 1(b) and Section 9).
VERSIONS_VS_WRITERS = Suite(
    name="versions vs writers",
    protocols=("algorithm-c",),
    seed=5,
    axes={"writers": _WRITER_COUNTS},
    shared=dict(
        num_readers=1,
        num_objects=3,
        workload=WorkloadSpec(reads_per_reader=6, writes_per_writer=3, read_size=3, write_size=3),
        scheduler="random",
        check_properties=False,
    ),
    vary=lambda seed, writers: {"num_writers": writers},
)

#: The unbounded-round baseline's collect count as write contention grows,
#: versus the constant two rounds of algorithm B and one of algorithms A/C.
ROUNDS_VS_CONTENTION = Suite(
    name="rounds vs contention",
    protocols=("algorithm-b", "algorithm-c", "occ-double-collect"),
    seed=13,
    axes={"writers": _WRITER_COUNTS},
    shared=dict(
        num_readers=1,
        workload=WorkloadSpec(reads_per_reader=6, writes_per_writer=4, read_size=2, write_size=2),
        scheduler="random",
        check_properties=False,
    ),
    vary=lambda seed, writers: {"num_writers": writers},
)

#: Read latency as READ transactions span more shards (algorithm A runs its
#: single reader — the runner clamps it).
READ_SIZE = Suite(
    name="latency vs read fan-out",
    protocols=("simple-rw", "algorithm-a", "algorithm-b", "algorithm-c", "s2pl"),
    seed=0,
    axes={"objects per read": (1, 2, 4, 6)},
    shared=dict(num_objects=6, check_properties=False),
    vary=lambda seed, size: {
        "workload": WorkloadSpec(reads_per_reader=5, writes_per_writer=3, read_size=size, write_size=2)
    },
)
