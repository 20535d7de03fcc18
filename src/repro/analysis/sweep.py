"""Experiment suites: declared grids, one runner, one row projector, claims as data.

Everything but Figure 1(a)'s feasibility matrix reaches the reader as a table
— the paper's protocol table (:data:`PAPER`), and SNOW verdict, rounds,
versions, availability per protocol × setting.
A table is declared once as a frozen :class:`Suite` (who runs, on which axes,
what every cell shares, what an axis value changes, which metric blocks the
row carries, and what the rows must show) and produced by the same steps
whatever the plane:

* :func:`run_suite` — the one grid loop: protocols × axis values, one
  :func:`~repro.analysis.runner.run_experiment` per cell;
* :func:`suite_rows` — the one projector: a cell's JSON-ready row, filed as
  ``benchmarks/results/BENCH_<suite.name>.json`` (:func:`bench_payload`) and
  pinned column for column by ``tests/analysis/test_suite_golden.py``;
* :func:`check` — the suite's ``expect`` predicates (:class:`holds`,
  :class:`paired`, :class:`non_decreasing`, :class:`equal_across`) over those
  rows: the labels of the claims the rows break.

``python -m repro.analysis [NAME ...]`` regenerates, prints and checks the
filed suites.  The declarations are the module constants below
(:data:`GRID_SUITES` lists the nine that own a BENCH file); a variation for a
test or a notebook is ``dataclasses.replace(SUITE, ...)``.
"""

from __future__ import annotations

import operator
from dataclasses import KW_ONLY, dataclass, field, replace
from itertools import product
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..faults.plan import CrashEvent, DropPolicy, FaultPlan, RetryPolicy
from ..faults.scenarios import (
    coordinator_failover,
    fail_stop,
    grow_group_mid_run,
    partition_grid_scenarios,
    replace_dead_replica,
    standard_fault_scenarios,
)
from ..persist import PersistencePolicy
from ..txn.placement import coordinator_group_names, replica_names
from .metrics import AggregateStats
from .runner import ExperimentConfig, ExperimentResult, run_experiment
from .workload import WorkloadSpec


def _rounded(stats: AggregateStats, stat: str = "mean") -> Optional[float]:
    """One statistic to 2 places; ``None`` when nothing was counted."""
    return round(getattr(stats, stat), 2) if stats.count else None


#: run-level row columns a suite may carry next to the verdict pair
RUN_COLUMNS: Dict[str, Callable[[ExperimentResult], Any]] = {
    "max_read_rounds": lambda result: result.metrics.max_read_rounds(),
    "total_steps": lambda result: result.metrics.total_steps,
    "total_messages": lambda result: result.metrics.total_messages,
    "quorum": lambda result: result.config.quorum,
    "completed_reads_mean_latency_steps": lambda result: _rounded(result.metrics.read_latency_steps),
    "completed_reads_p95_latency_steps": lambda result: _rounded(result.metrics.read_latency_steps, "p95"),
    "client_read_latency_mean": lambda result: _rounded(result.metrics.read_latency_steps),
    "read_messages_mean": lambda result: _rounded(result.metrics.read_messages),
    "write_messages_mean": lambda result: _rounded(result.metrics.write_messages),
    "max_versions": lambda result: result.metrics.max_versions(),
    "max_concurrent_writes": lambda result: max(
        (result.history.max_concurrent_writes(entry) for entry in result.history.reads()), default=0
    ),
}


@dataclass(frozen=True)
class Suite:
    """One declared experiment grid: ``protocols`` × the values of ``axes``.

    A cell's configuration is ``shared`` overlaid with ``vary(seed, *axis
    values)`` — the fields an axis value changes: fault plan, factor, leases,
    persistence, reconfig — seeded with ``seed`` (configuration
    and workload alike).  Its row carries the axis values, the SNOW verdict,
    the chosen :data:`RUN_COLUMNS` and, per entry of ``blocks``, the named
    metric block's ``as_dict()`` (all of it, or the listed keys) when the
    run produced that block.  ``expect`` states what those rows must show,
    each predicate labelled with the reason it must (see :func:`check`).
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
    expect: Tuple["Expectation", ...] = ()


@dataclass
class SuiteResult:
    """A run suite: ``cells[(protocol, *axis values)]`` is that cell's result."""

    suite: Suite
    cells: Dict[Tuple[Any, ...], ExperimentResult]


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
# Expectations: what a suite's rows must show
# ----------------------------------------------------------------------
Row = Mapping[str, Any]

_ORDERINGS: Dict[str, Callable[[Any, Any], bool]] = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge
}
#: the comparisons a predicate may name
_OPS: Dict[str, Callable[[Any, Any], bool]] = {
    "==": operator.eq, "!=": operator.ne, "in": lambda value, allowed: value in allowed, **_ORDERINGS
}


def _compare(left: Any, op: str, right: Any) -> bool:
    """``left op right``; an ordering with a missing cell (``None``) fails."""
    if op in _ORDERINGS and (left is None or right is None):
        return False
    return _OPS[op](left, right)


def _selects(row: Row, where: Mapping[str, Any]) -> bool:
    """Does ``row`` match ``where`` (column → a value, or a tuple of values)?"""
    return all(
        row.get(column) in wanted if isinstance(wanted, tuple) else row.get(column) == wanted
        for column, wanted in where.items()
    )


def _twins(rows: Sequence[Row], where: Mapping[str, Any], identity: Sequence[str], axis: str) -> List[List[Row]]:
    """The rows matching ``where``, grouped by their identity columns other
    than ``axis``; a group keeps row order, i.e. the axis's declared order."""
    groups: Dict[Tuple[Any, ...], List[Row]] = {}
    for row in rows:
        if _selects(row, where):
            key = tuple(row.get(column) for column in identity if column != axis)
            groups.setdefault(key, []).append(row)
    return list(groups.values())


def _sequences(rows, where, identity, axis: str, column: str) -> List[List[Any]]:
    """Per group of twins along ``axis`` with more than one row, its ``column``."""
    return [[row.get(column) for row in group] for group in _twins(rows, where, identity, axis) if len(group) > 1]


class Expectation:
    """A labelled claim over a suite's rows.  It selects cases — rows, pairs
    of twin rows, or sequences along an axis — and holds when every case
    passes.  A column a row lacks reads as ``None``; ``where`` maps a column
    to the value (or tuple of values) a selected row has there."""

    label: str

    def cases(self, rows: Sequence[Row], identity: Sequence[str]) -> List[Any]:
        raise NotImplementedError

    def passes(self, case: Any) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class col:
    """``holds``' right-hand side read from another column of the same row."""

    name: str


@dataclass(frozen=True)
class holds(Expectation):
    """Every row matching ``where``: ``row[column] op value`` (a :class:`col`
    value reads that column of the row)."""

    column: str
    op: str
    value: Any
    _: KW_ONLY
    where: Mapping[str, Any] = field(default_factory=dict)
    label: str

    def cases(self, rows, identity):
        return [row for row in rows if _selects(row, self.where)]

    def passes(self, row):
        value = row.get(self.value.name) if isinstance(self.value, col) else self.value
        return _compare(row.get(self.column), self.op, value)


@dataclass(frozen=True)
class paired(Expectation):
    """``axis`` is ``(name, mine, theirs)``: each row at ``name == mine``
    against its twin at ``theirs`` — equal on every other identity column —
    as ``row[column] op twin[other or column]``."""

    column: str
    op: str
    axis: Tuple[str, Any, Any]
    other: Optional[str] = None
    _: KW_ONLY
    where: Mapping[str, Any] = field(default_factory=dict)
    label: str

    def cases(self, rows, identity):
        name, mine, theirs = self.axis
        pairs = []
        for group in _twins(rows, self.where, identity, name):
            by_value = {row.get(name): row for row in group}
            if mine in by_value and theirs in by_value:
                pairs.append((by_value[mine], by_value[theirs]))
        return pairs

    def passes(self, pair):
        row, twin = pair
        return _compare(row.get(self.column), self.op, twin.get(self.other or self.column))


@dataclass(frozen=True)
class non_decreasing(Expectation):
    """Along ``along``'s declared order, among twins: ``column`` never decreases."""

    column: str
    along: str
    _: KW_ONLY
    where: Mapping[str, Any] = field(default_factory=dict)
    label: str

    def cases(self, rows, identity):
        return _sequences(rows, self.where, identity, self.along, self.column)

    def passes(self, values):
        return all(_compare(a, "<=", b) for a, b in zip(values, values[1:]))


@dataclass(frozen=True)
class equal_across(Expectation):
    """Across ``axis``, among twins: ``column`` takes one value."""

    column: str
    axis: str
    _: KW_ONLY
    where: Mapping[str, Any] = field(default_factory=dict)
    label: str

    def cases(self, rows, identity):
        return _sequences(rows, self.where, identity, self.axis, self.column)

    def passes(self, values):
        return all(value == values[0] for value in values)


def check(suite: Suite, rows: Sequence[Row]) -> List[str]:
    """The labels of the ``suite.expect`` claims that ``rows`` break, in
    declaration order: ``[]`` when every claim holds."""
    identity = ("protocol", *suite.axes)
    return [
        expectation.label
        for expectation in suite.expect
        if not all(expectation.passes(case) for case in expectation.cases(rows, identity))
    ]


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


#: the partition scenarios, in declared order: durations ascend
_PARTITIONS = tuple(name for name in _fault_scenarios(0) if name.startswith("partition-"))

#: The chaos grid: every protocol under every named fault scenario.  The
#: fault-free ``none`` column doubles as the baseline the degradation numbers
#: are relative to; ``consistent`` (did S survive, over the completed
#: transactions) next to ``availability`` (what fraction completed) is the
#: CAP-style column pair.  Latency degrades under slow and lossy networks
#: while availability stays 1.0 (retry heals fair loss); a fail-stop costs
#: availability; a healed partition costs only latency, more the longer it is.
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
    expect=(
        holds("availability", "==", 1.0,
              where={"scenario": ("none", "slow-network", "tail-latency", "lossy", "dup-happy", "crash-recover")},
              label="fault-free and heal-able scenarios lose nothing"),
        holds("availability", "==", 1.0, where={"scenario": _PARTITIONS},
              label="a healed partition loses nothing: the transport parks messages and redelivers at the heal"),
        holds("partition_duration", "in", PARTITION_DURATIONS, where={"scenario": _PARTITIONS},
              label="a partition cell reports its duration"),
        holds("retransmissions", ">", 0, where={"scenario": "lossy"},
              label="the lossy network needed the retry layer"),
        holds("availability", "<", 1.0, where={"scenario": "fail-stop"},
              label="a dead shard costs availability: reads spanning it never finish"),
        paired("read_latency_virtual_mean", ">", axis=("scenario", "slow-network", "none"),
               label="a slow network degrades virtual-clock read latency against the fault-free cell"),
        non_decreasing("read_latency_virtual_p95", along="scenario",
                       where={"scenario": tuple(n for n in _PARTITIONS if n.startswith("partition-client-shard-"))},
                       label="a longer client-shard outage delays completions at least as much as a shorter one"),
    ),
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


#: The replication grid: protocol × replication factor × replica fate.  At
#: factor 3 with majority quorums the crash column matches the fault-free
#: one: SNOW verdicts measured *through* a replica outage.
REPLICATION = Suite(
    name="replication",
    protocols=("algorithm-a", "algorithm-b", "algorithm-c"),
    seed=9,
    axes={"replication_factor": (1, 2, 3), "scenario": ("none", "crash-replica")},
    shared=_GRID_CELL,
    vary=_replica_crash,
    columns=("quorum", "max_read_rounds", "total_messages"),
    blocks=(("faults", _AVAILABILITY), ("replication", None)),
    expect=(
        equal_across("snow", "replication_factor", where={"scenario": "none"},
                     label="fault-free cells give one SNOW verdict at every factor"),
        holds("availability", "==", 1.0, where={"scenario": "none"},
              label="fault-free cells are fully available at every factor"),
        holds("availability", "<", 1.0, where={"replication_factor": 1, "scenario": "crash-replica"},
              label="factor 1: the crashed replica was the only copy"),
        holds("availability", "==", 1.0, where={"replication_factor": 3, "scenario": "crash-replica"},
              label="factor 3: the majority quorum absorbs the outage"),
        paired("snow", "==", axis=("scenario", "crash-replica", "none"), where={"replication_factor": 3},
               label="factor 3: the crash cell keeps the fault-free SNOW verdict"),
        holds("consistent", "==", True, where={"replication_factor": 3, "scenario": "crash-replica"},
              label="factor 3: the crash cell stays strictly serializable"),
        holds("read_quorum", "==", 2, where={"replication_factor": 3},
              label="factor 3: a majority read quorum is 2"),
        holds("write_quorum", "==", 2, where={"replication_factor": 3},
              label="factor 3: a majority write quorum is 2"),
        holds("read_quorum_replies_mean", "!=", None, where={"replication_factor": 3},
              label="factor 3: a READ's quorum replies are counted"),
    ),
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


#: The failover grid: protocol × consensus factor × coordinator fate.  At
#: factor 3 the survivors elect a new leader after a bounded leaderless
#: window: coordinator failover with unchanged verdicts.
FAILOVER = Suite(
    name="failover",
    protocols=_COORDINATOR_PROTOCOLS,
    seed=11,
    axes={"consensus_factor": (1, 3), "scenario": ("none", "crash-leader")},
    shared=_GRID_CELL,
    vary=_leader_crash,
    columns=("max_read_rounds", "total_messages"),
    blocks=(("faults", _AVAILABILITY), ("consensus", None)),
    expect=(
        holds("availability", "==", 1.0, where={"scenario": "none"},
              label="fault-free cells are fully available at every factor"),
        holds("elections", "==", 0, where={"consensus_factor": 3, "scenario": "none"},
              label="factor 3 fault-free: the bootstrap leader just leads, no election"),
        holds("availability", "<", 1.0, where={"consensus_factor": 1, "scenario": "crash-leader"},
              label="factor 1: the crashed leader was the single designated coordinator"),
        holds("availability", "==", 1.0, where={"consensus_factor": 3, "scenario": "crash-leader"},
              label="factor 3: the survivors elect a new leader and complete every transaction"),
        paired("snow", "==", axis=("scenario", "crash-leader", "none"), where={"consensus_factor": 3},
               label="factor 3: the crash cell keeps the fault-free SNOW verdict"),
        holds("consistent", "==", True, where={"consensus_factor": 3, "scenario": "crash-leader"},
              label="factor 3: the crash cell stays strictly serializable"),
        holds("leaders_elected", ">=", 1, where={"consensus_factor": 3, "scenario": "crash-leader"},
              label="factor 3: a successor leader is elected"),
        holds("max_term", ">=", 2, where={"consensus_factor": 3, "scenario": "crash-leader"},
              label="factor 3: the successor leads a later term"),
        holds("consensus_members", "==", 3, where={"consensus_factor": 3},
              label="factor 3: three consensus members are counted"),
        holds("commit_latency_mean", "!=", None, where={"consensus_factor": 3},
              label="factor 3: the consensus rounds' commit latency is measured"),
    ),
)

_PERSISTENCE_MODES: Dict[str, Optional[PersistencePolicy]] = {
    "volatile": None,
    "durable": PersistencePolicy(),
    "durable+compact": PersistencePolicy(compact_every=4),
}


def _amnesia(seed: int, mode: str, scenario: str) -> Dict[str, Any]:
    """``amnesia-member`` crashes one consensus member with amnesia and
    recovers it mid-run: with a durable store it recovers its
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


#: The durability grid: protocol × persistence mode × member fate.  Every
#: cell matches the fault-free verdicts with availability 1.0; the volatile
#: amnesia cells stay safe on these schedules too (the grid seeds recover
#: between elections; the *hazard* is the strict xfail in
#: ``tests/consensus/test_chaos_grid.py``); compaction keeps
#: ``retained_entries`` bounded.
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
    expect=(
        equal_across("snow", "persistence", where={"scenario": "none"},
                     label="attaching a store, with or without compaction, leaves the fault-free verdict unchanged"),
        holds("availability", "==", 1.0, where={"scenario": "none"},
              label="fault-free cells are fully available in every mode"),
        holds("availability", "==", 1.0, where={"scenario": "amnesia-member"},
              label="an amnesiac crash recovers to full availability in every mode"),
        paired("snow", "==", axis=("scenario", "amnesia-member", "none"),
               label="an amnesiac crash keeps the fault-free SNOW verdict"),
        holds("recoveries", ">=", 1,
              where={"persistence": ("durable", "durable+compact"), "scenario": "amnesia-member"},
              label="a durable member took the recovery path"),
        holds("checkpoints", ">=", 1, where={"persistence": "durable+compact", "scenario": "none"},
              label="compaction cut a checkpoint"),
        holds("compacted_entries", ">", 0, where={"persistence": "durable+compact", "scenario": "none"},
              label="compaction compacted log entries"),
        holds("retained_entries", "<", col("log_length"), where={"persistence": "durable+compact", "scenario": "none"},
              label="compaction bounds the retained log suffix"),
    ),
)


def _leased(seed: int, mode: str, scenario: str) -> Dict[str, Any]:
    """``leader-crash`` fail-stops the lease holder mid-run, crossing the
    read fast path with an election."""
    plan = FaultPlan.none()
    if scenario == "leader-crash":
        plan = coordinator_failover(leader="coor", at=12, seed=seed)
    return {"faults": plan, "leases": True if mode == "leased" else None}


#: the protocols with a read-only coordinator request (``get-tag-arr``) to serve under a lease
_LEASED_READS = ("algorithm-b", "algorithm-c")

#: The leader-lease grid: protocol × lease mode × coordinator fate, fully
#: replicated.  Where reads reach the coordinator as read-only requests the
#: leased read latency lands below the unleased commit latency, with every
#: verdict column unchanged.  Protocols whose coordinator requests all mutate
#: (OCC's ``get-ts`` mints a timestamp) pin the null effect — the knob changes
#: nothing, and the lease columns (present only on lease activity) are absent.
#: Leases buy latency, not client messages: fault-free, the proven windows
#: (acquisitions + renewals) are fewer than the lease-served reads — B 7 + 3
#: for 12 local reads, C 7 + 4 for 12 — and write appends prove windows
#: too: a local read saves a commit's wait, and one inside a window a
#: write proved saves its quorum round as well.
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
    expect=(
        paired("snow", "==", axis=("leases", "leased", "none"),
               label="the fast path leaves the SNOW verdict unchanged"),
        paired("consistent", "==", axis=("leases", "leased", "none"),
               label="the fast path leaves strict serializability unchanged"),
        paired("max_read_rounds", "==", axis=("leases", "leased", "none"),
               label="the fast path leaves the Lemma-20 read rounds unchanged"),
        holds("availability", "==", 1.0, label="every cell is fully available, leased or not"),
        holds("local_reads", ">=", 1, where={"protocol": _LEASED_READS, "leases": "leased"},
              label="B and C serve reads locally under the lease"),
        holds("lease_acquisitions", ">=", 1, where={"protocol": _LEASED_READS, "leases": "leased"},
              label="B's and C's leader acquires a lease"),
        paired("lease_read_latency_mean", "<", axis=("leases", "leased", "none"), other="commit_latency_mean",
               where={"protocol": _LEASED_READS},
               label="a lease-served read skips the commit path: its latency is below the unleased commit latency"),
        holds("local_read_ratio", "!=", None,
              where={"protocol": _LEASED_READS, "leases": "leased", "scenario": "steady"},
              label="fault-free, B's and C's lease-served share is measured"),
        holds("lease_acquisitions", "==", None, where={"protocol": "occ-double-collect", "leases": "leased"},
              label="OCC has no read-only coordinator request: no lease round ever starts"),
        equal_across("commit_latency_mean", "leases", where={"protocol": "occ-double-collect"},
                     label="OCC's commit latency is the same with the knob on"),
        equal_across("total_messages", "leases", where={"protocol": "occ-double-collect"},
                     label="OCC's message count is the same with the knob on"),
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

_REPLACEMENTS = ("replace-dead-replica", *_LOSSY_REPLACE)

#: The reconfiguration grid: protocol × membership scenario.  Membership
#: change is a non-event: every change completes at availability 1.0 with
#: the fault-free verdicts, and grow-group transfers every installed version
#: to the new replicas before committing.  Along the loss axis drops and
#: retransmissions grow while ``total_messages`` (unique protocol messages)
#: and the verdict columns stay put.
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
    expect=(
        holds("availability", "==", 1.0, label="every membership change completes at full availability"),
        equal_across("snow", "scenario", label="every membership change keeps the fault-free SNOW verdict"),
        holds("consistent", "==", True, label="every membership change stays strictly serializable"),
        holds("unavailability_window", "==", 0, where={"scenario": "replace-dead-replica"},
              label="replacing a dead replica leaves no unavailability window"),
        holds("reconfigs_completed", "==", 1, where={"scenario": _REPLACEMENTS},
              label="the replacement completes once, lossy or not"),
        holds("epochs", "==", 2, where={"scenario": "replace-dead-replica"},
              label="a replacement is one joint entry plus one commit"),
        holds("retired_servers", "==", 1, where={"scenario": "replace-dead-replica"},
              label="a replacement retires the dead replica"),
        holds("transfer_versions", ">=", 1, where={"scenario": "replace-dead-replica"},
              label="the new replica synced state before the change committed"),
        holds("retired_servers", "==", 0, where={"scenario": "grow-group"},
              label="growing the group retires nobody"),
        holds("transfer_versions", ">=", 2, where={"scenario": "grow-group"},
              label="both added replicas synced state before the change committed"),
        holds("retransmissions", "==", col("messages_dropped"), where={"scenario": tuple(_LOSSY_REPLACE)},
              label="every dropped message is retransmitted"),
        non_decreasing("messages_dropped", along="scenario", where={"scenario": tuple(_LOSSY_REPLACE)},
                       label="drops grow with the drop probability"),
        holds("messages_dropped", ">", 0, where={"scenario": next(iter(_LOSSY_REPLACE))},
              label="the lowest drop probability already drops messages"),
    ),
)


_WRITER_COUNTS = (1, 2, 4, 6)

#: Algorithm C's reply sizes as concurrent WRITE transactions grow (the
#: ``|W|`` bound of Figure 1(b) and Section 9), beside ``|W|`` itself: the
#: most WRITEs concurrent with one READ.  The paper's pseudocode never prunes
#: ``Vals``, so the reply size grows with the writes as well.
VERSIONS_VS_WRITERS = Suite(
    name="versions-vs-writers",
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
    columns=("max_versions", "max_concurrent_writes"),
    expect=(
        non_decreasing("max_versions", along="writers", label="more writers put more versions in flight"),
        paired("max_versions", ">", axis=("writers", _WRITER_COUNTS[-1], _WRITER_COUNTS[0]),
               label="the most writers give larger replies than the fewest"),
        holds("max_versions", ">", 1, where={"writers": _WRITER_COUNTS[-1]},
              label="under contention a reply carries more than one version"),
    ),
)

#: The unbounded-round baseline's collect count as write contention grows,
#: versus the fixed round budgets of the paper's bounded algorithms.
ROUNDS_VS_CONTENTION = Suite(
    name="rounds-vs-contention",
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
    columns=("max_read_rounds",),
    expect=(
        holds("max_read_rounds", "==", 2, where={"protocol": "algorithm-b"},
              label="B stays at its two rounds at every contention level"),
        holds("max_read_rounds", "<=", 2, where={"protocol": "algorithm-c"},
              label="C stays within two rounds at every contention level"),
        holds("max_read_rounds", ">=", 2, where={"protocol": "occ-double-collect", "writers": _WRITER_COUNTS[0]},
              label="the retry baseline needs at least its two collects"),
        paired("max_read_rounds", ">=", axis=("writers", _WRITER_COUNTS[-1], _WRITER_COUNTS[0]),
               where={"protocol": "occ-double-collect"},
               label="the retry baseline degrades with contention"),
        holds("max_read_rounds", ">", 2, where={"protocol": "occ-double-collect", "writers": _WRITER_COUNTS[-1]},
              label="under the most contention the retry baseline exceeds two rounds"),
    ),
)

#: The paper's protocol table: Figure 1(b)'s rounds × versions per algorithm,
#: and Section 1's argument that simple reads are the latency floor every
#: READ-transaction design is measured against.  One row per protocol, all on
#: one contending workload and one schedule seed: A has SNOW in one round with
#: one version (Theorem 3, one reader with C2C), B has SNW in two rounds
#: (Theorem 4), C has SNW in one round with up to ``|W|`` versions (Theorem 5),
#: and the retry baseline pays in rounds.  The message columns show where each
#: design pays for its coordination: A on the writer's round trip to the
#: reader, B and C on the coordinator, the baselines on extra read rounds.
PAPER = Suite(
    name="paper",
    protocols=("simple-rw", "algorithm-a", "algorithm-b", "algorithm-c", "eiger", "s2pl", "occ-double-collect"),
    seed=77,
    axes={},
    shared=dict(
        num_readers=2,
        num_writers=3,
        num_objects=3,
        workload=WorkloadSpec(reads_per_reader=6, writes_per_writer=4, read_size=3, write_size=3),
        scheduler="random",
    ),
    vary=lambda seed: {},
    columns=(
        "max_read_rounds",
        "max_versions",
        "total_messages",
        "client_read_latency_mean",
        "read_messages_mean",
        "write_messages_mean",
    ),
    expect=(
        holds("max_read_rounds", "==", 1, where={"protocol": ("simple-rw", "algorithm-a")},
              label="simple reads are the latency floor of one round, and A matches it"),
        holds("snow", "==", "SNOW", where={"protocol": "algorithm-a"},
              label="A keeps all four SNOW properties at the floor (Theorem 3)"),
        holds("snow", "in", ("SNoW", "SNOW"),
              where={"protocol": ("algorithm-a", "algorithm-b", "algorithm-c", "occ-double-collect")},
              label="A, B, C and the retry baseline are SNW algorithms"),
        holds("max_versions", "==", 1, where={"protocol": ("algorithm-a", "algorithm-b", "occ-double-collect")},
              label="A, B and the retry baseline reply with one version per object"),
        holds("max_read_rounds", "==", 2, where={"protocol": "algorithm-b"},
              label="B pays exactly one extra round (Theorem 4)"),
        holds("max_read_rounds", "==", 1, where={"protocol": "algorithm-c"},
              label="C reads in one round (Theorem 5)"),
        holds("max_versions", ">", 1, where={"protocol": "algorithm-c"},
              label="C pays in reply size: under contention a reply carries more than one version (Theorem 5)"),
        holds("max_read_rounds", ">=", 2, where={"protocol": "occ-double-collect"},
              label="the retry baseline needs at least its two collects"),
        holds("max_read_rounds", "<=", 2, where={"protocol": "eiger"},
              label="Eiger keeps its reads within two rounds"),
        holds("consistent", "==", True, where={"protocol": ("s2pl", "occ-double-collect")},
              label="the strong baselines keep S and pay elsewhere: blocking or retries"),
        paired("write_messages_mean", ">", axis=("protocol", "algorithm-a", "simple-rw"),
               label="A's writes cost more than the floor's: the info-reader round trip is the price of SNOW reads"),
        paired("write_messages_mean", ">", axis=("protocol", "algorithm-b", "simple-rw"),
               label="B's writes cost more than the floor's: they pay a coordinator round trip"),
        paired("read_messages_mean", ">=", axis=("protocol", "occ-double-collect", "algorithm-b"),
               label="the retry baseline sends at least as many read messages as B"),
        paired("read_messages_mean", "<=", axis=("protocol", "simple-rw", "algorithm-b"),
               label="simple reads are the floor on read messages"),
    ),
)

#: the suites filed as ``BENCH_<name>.json``: ``python -m repro.analysis``
#: regenerates them and tier-1 checks their ``expect`` on the committed files
GRID_SUITES: Tuple[Suite, ...] = (
    PAPER,
    FAULTS,
    REPLICATION,
    FAILOVER,
    PERSIST,
    LEASE,
    RECONFIG,
    VERSIONS_VS_WRITERS,
    ROUNDS_VS_CONTENTION,
)
