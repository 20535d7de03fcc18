"""Benchmark worker: run one workload once in this process, report as JSON.

``run.py`` starts one fresh interpreter per repetition (heap state drifts when
a cell repeats inside one process; see README).  The child imports the
program, runs a 24-transaction warm-up cell, collects garbage, then times
three phases per cell with ``perf_counter``:

* *setup*  — ``Protocol.build`` + ``generate_workload`` + ``submit_workload``
* *run*    — ``handle.run()`` to idle (``Recorder.run`` in a traced child)
* *verify* — the workload's correctness checks

Simulated metrics are computed from ``transaction_records()`` and counters
kept by the planes, never from trace-walk collectors (under ``ring`` retention
those silently under-count).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from statistics import mean, median
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

_import_start = perf_counter()
from repro.analysis.metrics import collect_metrics
from repro.core.serializability import check_lemma20, check_strict_serializability
from repro.core.snow import check_snow
from repro.ioa import LivenessError
from repro.obs import derive_spans

import tracing
from workloads import PROTOCOLS, WORKLOADS, Parts, Workload, build_cell, load_cell

#: seconds spent importing the program and the benchmark (part of ``setup_s``
#: so that work moved to import time shows; ~0 when imported a second time)
IMPORT_S = perf_counter() - _import_start

#: phases timed in every child, in execution order
PHASES = (
    "protocols.build",
    "analysis.workload",
    "txn.history",
    "analysis.metrics",
    "core.snow",
    "core.serializability",
    "core.lemma20",
    "obs.spans",
    "bench.provenance_check",
)
SETUP_PHASES = PHASES[:2]

#: SNOW verdicts the paper proves, asserted by the ``verify`` workload
PAPER_VERDICTS = {"algorithm-a": "SNOW", "algorithm-b": "SNoW", "algorithm-c": "SNoW"}


@contextmanager
def timed(seconds: Dict[str, float], name: str):
    """Add the block's wall time to ``seconds[name]``."""
    start = perf_counter()
    try:
        yield
    finally:
        seconds[name] += perf_counter() - start


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of a non-empty sample (the benchmark's own, so
    that no change to the program can redefine a benchmark metric)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def check_provenance(records, generated, initial_value: Any = 0) -> int:
    """O(n) output check; returns how many transactions fail it.

    Every read value must be the initial value or a value some submitted
    write wrote to that object, and per (reader, object, writer) the observed
    write sequence number must never decrease (clients are closed-loop, so
    under strict serializability a reader cannot go back in one writer's
    history).  Generated values are ``v-<writer>-<seq>-<object>``.
    """
    written = {pair for _writer, txn in generated.writes for pair in txn.updates}
    newest: Dict[tuple, int] = {}
    failed = 0
    for record in records:
        if not record.complete or record.txn.kind != "read":
            continue
        ok = True
        for obj, value in record.result.values:
            if value == initial_value:
                continue
            if (obj, value) not in written:
                ok = False
                continue
            _prefix, writer, seq, _obj = value.split("-")
            key = (record.client, obj, writer)
            if int(seq) < newest.get(key, 0):
                ok = False
            else:
                newest[key] = int(seq)
        failed += not ok
    return failed


def check_paper_verdicts(handle, protocol: str, phases: Dict[str, float]) -> List[str]:
    """The checker pipeline in ``run_experiment``'s order; returns the
    verdicts that contradict the paper (empty = all as proved)."""
    simulation = handle.simulation
    with timed(phases, "txn.history"):
        history = handle.history()
    with timed(phases, "analysis.metrics"):
        collect_metrics(
            simulation,
            protocol_name=protocol,
            placement=handle.placement,
            quorum_policy=handle.quorum_policy,
            directory=handle.directory,
        )
    with timed(phases, "core.snow"):
        snow = check_snow(simulation, history).property_string()
    complete = history.restricted_to_complete()
    with timed(phases, "core.serializability"):
        serializable = check_strict_serializability(complete).ok
    wrong = []
    if protocol in PAPER_VERDICTS:
        with timed(phases, "core.lemma20"):
            lemma20 = check_lemma20(complete, handle.tags()).ok
        if snow != PAPER_VERDICTS[protocol]:
            wrong.append(f"{protocol}: SNOW verdict {snow}, paper proves {PAPER_VERDICTS[protocol]}")
        if not serializable:
            wrong.append(f"{protocol}: not strictly serializable")
        if not lemma20:
            wrong.append(f"{protocol}: Lemma 20 violated")
    elif snow[1] != "N" or snow[3] != "W":  # eiger: N and W, S not claimed
        wrong.append(f"{protocol}: SNOW verdict {snow}, expected N and W")
    with timed(phases, "obs.spans"):
        derive_spans(simulation)
    return wrong


def run_once(name: str, seed: int, traced: bool = False, scale: int = 1) -> Dict[str, Any]:
    """Run workload ``name`` once; returns the JSON-serialisable report."""
    workload: Workload = WORKLOADS[name]
    recorder = tracing.Recorder() if traced else None
    parts: Parts = tracing.TracedParts(recorder) if traced else Parts()
    phases: Dict[str, float] = dict.fromkeys(PHASES, 0.0)
    protocol_run_s: Dict[str, float] = dict.fromkeys(PROTOCOLS, 0.0)
    protocol_txns: Dict[str, int] = dict.fromkeys(PROTOCOLS, 0)
    # latency percentiles are taken per cell and averaged over the cells:
    # in steps they are discrete walls, and a percentile of the pooled sample
    # jumps between two protocols' walls from seed to seed
    read_p50: List[int] = []
    read_p95: List[int] = []
    write_p50: List[int] = []
    read_rounds: List[int] = []
    read_vt: List[int] = []
    respond_vt: List[int] = []
    problems: List[str] = []
    submitted = completed = failed_checks = messages = events = actions = retained = 0
    counts: Dict[str, int] = dict.fromkeys(
        (
            "persist.store.appends", "persist.store.meta_saves", "persist.store.snapshots",
            "faults.dropped", "faults.retransmitted", "faults.duplicated", "faults.held",
            "obs.alerts",
        ),
        0,
    )

    for cell in workload.cells:
        with timed(phases, "protocols.build"):
            handle = build_cell(workload, cell, seed, scale, parts)
        with timed(phases, "analysis.workload"):
            generated = load_cell(handle, cell, seed, scale)
        simulation = handle.simulation
        start = perf_counter()
        try:
            if recorder is not None:
                recorder.run(simulation)
            else:
                handle.run()
        except LivenessError as error:  # max_steps: the stragglers count as failed
            problems.append(f"{cell.protocol}: {error}")
        protocol_run_s[cell.protocol] = perf_counter() - start

        records = handle.transaction_records()
        done = [r for r in records if r.complete]
        reads = [r for r in done if r.txn.kind == "read"]
        read_steps = [r.latency_steps() for r in reads]
        write_steps = [r.latency_steps() for r in done if r.txn.kind != "read"]
        read_p50.append(percentile(read_steps, 50))
        read_p95.append(percentile(read_steps, 95))
        write_p50.append(percentile(write_steps, 50))
        read_rounds.extend(r.rounds for r in reads)
        if simulation.fault_plane is not None:  # the virtual clock exists
            read_vt.extend(r.latency_virtual() for r in reads)
            respond_vt.extend(r.respond_vtime for r in done)
        submitted += len(records)
        completed += len(done)
        messages += sum(r.messages_sent for r in records)
        events += simulation.steps_taken
        actions += simulation.trace.total_appended
        retained += len(simulation.trace)
        protocol_txns[cell.protocol] = len(done)

        if workload.checkers:
            wrong = check_paper_verdicts(handle, cell.protocol, phases)
            if wrong:
                problems.extend(wrong)
                failed_checks += len(done)
        else:
            with timed(phases, "bench.provenance_check"):
                unfounded = check_provenance(records, generated, handle.initial_value)
            if unfounded:
                problems.append(f"{cell.protocol}: {unfounded} reads fail the provenance check")
                failed_checks += unfounded
        if handle.obs is not None:
            alerts = handle.obs.monitors.alerts
            counts["obs.alerts"] += len(alerts)
            failed_checks += len(alerts)
            problems.extend(alert.describe() for alert in alerts)
        if handle.persistence is not None:
            for store in handle.persistence.stores().values():
                counts["persist.store.appends"] += store.appends
                counts["persist.store.meta_saves"] += store.meta_saves
                counts["persist.store.snapshots"] += store.snapshots
        if simulation.fault_plane is not None:
            stats = simulation.fault_plane.stats
            counts["faults.dropped"] += stats.dropped
            counts["faults.retransmitted"] += stats.retransmissions
            counts["faults.duplicated"] += stats.duplicated
            counts["faults.held"] += stats.held_by_partition + stats.held_by_crash

    respond_vt.sort()
    failed = min(submitted, submitted - completed + failed_checks)
    report: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "host": {
            "import_s": IMPORT_S,
            "setup_s": sum(phases[p] for p in SETUP_PHASES),
            "run_s": sum(protocol_run_s.values()),
            "verify_s": sum(phases[p] for p in PHASES if p not in SETUP_PHASES),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "phases": phases,
            "protocol_run_s": protocol_run_s,
        },
        # everything below repeats exactly under a fixed seed
        "sim": {
            "submitted": submitted,
            "completed": completed,
            "failed": failed,
            "reads": len(read_rounds),
            "writes": completed - len(read_rounds),
            "events": events,
            "actions": actions,
            "trace_retained": retained,
            "read_latency_steps_p50": mean(read_p50),
            "read_latency_steps_p95": mean(read_p95),
            "write_latency_steps_p50": mean(write_p50),
            "read_rounds_max": max(read_rounds),
            "read_rounds_mean": mean(read_rounds),
            "msgs_per_txn": messages / completed,
            "events_per_txn": events / completed,
            "completed_share": 1.0 - failed / submitted,
            # virtual time exists only under a fault plane (chaos)
            "read_latency_vt_p95": percentile(read_vt, 95) if read_vt else None,
            "outage_vt_max": max(
                (b - a for a, b in zip(respond_vt, respond_vt[1:])), default=None
            ),
            "protocol_txns": protocol_txns,
            "counts": counts,
            "problems": problems,
        },
    }
    if recorder is not None:
        report["trace"] = {
            "traced_run_s": recorder.traced_run_s,
            "self_s": recorder.self_s,
            "calls": recorder.calls,
            "counts": recorder.counts,
        }
    return report


@dataclass(frozen=True)
class _CalibrationRecord:
    kind: str
    actor: str
    info: tuple
    index: int = -1


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes on this machine right now.

    The sandbox's speed drifts by 10-20 % over minutes (neighbours on the
    host; CPU time drifts with wall time, so it is not preemption), which is
    more than the changes the benchmark must resolve.  The loop uses no code
    of the program, so a faster program does not move it, and does what the
    simulator does per event: allocate a frozen record, append it to a
    growing live list, churn a small dict, resume a generator.  ``run.py``
    rescales host seconds by ``CALIBRATION_REF_S / calibrate()``.
    """

    def session(want: int):
        got = 0
        while got < want:
            got += len((yield got))
        return got

    start = perf_counter()
    for _burst in range(4):
        # the live list is dropped between bursts: 15k records stay below the
        # smallest workload's own footprint, so ``peak_rss_mb`` is the program's
        trace = []
        pending = {}
        waiting = None
        for i in range(15_000):
            record = _CalibrationRecord("send", f"r{i % 4}", (("phase", "x"), ("txn", i)))
            object.__setattr__(record, "index", i)
            trace.append(record)
            pending[i] = (record, i + 3)
            if i > 8:
                del pending[i - 8]
            if waiting is None:
                waiting = session(3)
                waiting.send(None)
            try:
                waiting.send([record])
            except StopIteration:
                waiting = None
    return perf_counter() - start


def warm_up(name: str, seed: int) -> None:
    """A 24-transaction cell on the workload's own stack, so lazy imports,
    code caches and allocator arenas are in place before anything is timed."""
    workload = WORKLOADS[name]
    first = workload.cells[0]
    per_client = 24 // (first.readers + first.writers)
    cell = replace(first, reads=per_client, writes=per_client)
    # fault times shrink with the cell, so the warm-up crosses them too
    handle = build_cell(workload, cell, seed, max(1, first.reads // per_client), Parts())
    load_cell(handle, cell, seed, 1)
    handle.run()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=int, default=1, help="divide sizes (smoke runs)")
    args = parser.parse_args(argv)
    warm_up(args.workload, args.seed)
    gc.collect()
    calibration = [calibrate(), calibrate()]
    report = run_once(args.workload, args.seed, traced=bool(args.trace), scale=args.scale)
    gc.collect()  # the finished simulations are cyclic garbage the loop's collections would scan
    calibration += [calibrate(), calibrate()]
    # two samples either side of the measured phases; the median shrugs off one burst
    report["host"]["calibration_s"] = median(calibration)
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
