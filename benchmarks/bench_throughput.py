"""Raw kernel throughput: events/sec × protocol × replication/consensus factor.

ROADMAP item 2's measurement half: how many scheduler events per second the
deterministic kernel executes for each protocol family, at the seed setting
(``rf=1/cf=1``), under replication (``rf=3`` + majority) and — for the
coordinator protocols — with the coordinator consensus-replicated (``cf=3``).

Two kinds of columns land in ``results/BENCH_throughput.json``:

* **deterministic** ones (``txns``, ``events``, ``actions``,
  ``total_messages``) — identical on every machine, diffable across PRs;
* ``events_per_sec`` — wall clock, machine-dependent, gated by
  ``check_bench_regression.py`` with a *bounded-drift* rule (an
  order-of-magnitude collapse fails; ordinary runner variance does not).

The human-readable table additionally shows the kernel profiler's bucket
breakdown (scheduler poll/choose/dispatch/trace-append) for one
representative cell, measured on a separate profiled run so profiling
overhead never contaminates the timed cells.

Run directly (``python benchmarks/bench_throughput.py --quick``) for the CI
perf-smoke job: one fast cell per tier, printed, nothing rewritten.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))  # benchutil, from any cwd

from benchutil import emit, emit_json  # noqa: E402

REPO_SRC = Path(__file__).resolve().parent.parent / "src"
if str(REPO_SRC) not in sys.path:
    sys.path.insert(0, str(REPO_SRC))

from repro.analysis import WorkloadSpec, format_table, generate_workload, submit_workload  # noqa: E402
from repro.ioa import FIFOScheduler  # noqa: E402
from repro.obs import ObservabilityPlane  # noqa: E402
from repro.protocols import get_protocol, protocol_names  # noqa: E402

SEED = 17
REPS = 5  # events/sec is best-of-REPS: robust against noisy reps (container
#           wall-clock speed oscillates on a seconds timescale, so each cell
#           needs several chances to catch an unthrottled window)


def throughput_cells():
    """(protocol, rf, cf) grid: every protocol at the seed setting, under
    replication (rf=3 and the rf=5 scaling point), and — for the coordinator
    protocols — consensus-replicated (cf=3 and the cf=5 scaling point).  The
    rf=5/cf=5 cells exist to make the quadratic-vs-linear kernel difference
    visible: a rebuild-everything poll loop degrades superlinearly in the
    in-flight event count, the incremental frontier does not."""
    cells = []
    for name in protocol_names():
        cells.append((name, 1, 1))
        cells.append((name, 3, 1))
        cells.append((name, 5, 1))
        if get_protocol(name).has_coordinator:
            cells.append((name, 3, 3))
            cells.append((name, 5, 5))
    return cells


def batched_cells():
    """The high-fan-out cells re-run with the batching knobs on.

    These rows land in a separate ``batched`` section of the JSON payload —
    deliberately outside ``grid`` so the bounded-drift gate (which keys on
    (protocol, rf, cf) and reads only ``grid``) keeps comparing like with
    like: unbatched against unbatched."""
    cells = []
    for name in protocol_names():
        cells.append((name, 3, 1, True, False))
        if get_protocol(name).has_coordinator:
            cells.append((name, 3, 3, True, True))
    return cells


def run_cell(
    protocol_name,
    rf,
    cf,
    spec,
    reps=REPS,
    obs=None,
    fanout_batching=False,
    consensus_batching=False,
    leases=None,
):
    """Build + run one cell ``reps`` times; returns (row, handle)."""
    protocol = get_protocol(protocol_name)
    best_rate, elapsed_best, handle = 0.0, None, None
    for _ in range(reps):
        kwargs = dict(
            num_readers=1 if not protocol.supports_multiple_readers else 2,
            num_writers=2,
            num_objects=3,
            scheduler=FIFOScheduler(),
            seed=SEED,
        )
        if rf > 1:
            kwargs.update(replication_factor=rf, quorum="majority")
        if cf > 1:
            kwargs.update(consensus_factor=cf)
        if fanout_batching:
            kwargs.update(fanout_batching=True)
        if consensus_batching:
            kwargs.update(consensus_batching=True)
        if leases is not None:
            kwargs.update(leases=leases)
        if obs is not None:
            kwargs.update(obs=obs)
        handle = protocol.build(**kwargs)
        workload = generate_workload(spec, handle.readers, handle.writers, handle.objects)
        submit_workload(handle, workload)
        started = perf_counter()
        handle.run_to_completion()
        elapsed = perf_counter() - started
        rate = handle.simulation.steps_taken / elapsed if elapsed > 0 else 0.0
        if rate > best_rate:
            best_rate, elapsed_best = rate, elapsed
    row = {
        "protocol": protocol_name,
        "replication_factor": rf,
        "consensus_factor": cf,
        "fanout_batching": fanout_batching,
        "consensus_batching": consensus_batching,
        "txns": len(handle.transaction_records()),
        "events": handle.simulation.steps_taken,
        "actions": len(handle.trace()),
        "total_messages": sum(r.messages_sent for r in handle.transaction_records()),
        "elapsed_ms": round((elapsed_best or 0.0) * 1e3, 2),
        "events_per_sec": round(best_rate, 1),
    }
    return row, handle


def regenerate(spec=None, reps=REPS):
    spec = spec or WorkloadSpec(reads_per_reader=6, writes_per_writer=6, seed=SEED)
    rows = [run_cell(name, rf, cf, spec, reps=reps)[0] for name, rf, cf in throughput_cells()]
    batched_rows = [
        run_cell(name, rf, cf, spec, reps=reps, fanout_batching=fb, consensus_batching=cb)[0]
        for name, rf, cf, fb, cb in batched_cells()
    ]

    # One profiled run (obs plane + wall-clock profiler) for the bucket
    # breakdown; separate from the timed reps so instrumentation overhead
    # never touches the events_per_sec column.
    plane = ObservabilityPlane(profile=True)
    _, profiled = run_cell("algorithm-b", 3, 1, spec, reps=1, obs=plane)
    profile_report = plane.profiler.report(steps=profiled.simulation.steps_taken)

    headers = [
        "protocol", "rf", "cf", "batch", "txns", "events", "actions", "msgs", "events/sec",
    ]

    def table_row(r):
        knobs = ("f" if r["fanout_batching"] else "") + ("c" if r["consensus_batching"] else "")
        return [
            r["protocol"], r["replication_factor"], r["consensus_factor"],
            knobs or "-", r["txns"], r["events"], r["actions"], r["total_messages"],
            f"{r['events_per_sec']:,.0f}",
        ]

    table = format_table(headers, [table_row(r) for r in rows + batched_rows])
    return rows, batched_rows, table, profile_report


def emit_throughput_json(rows, batched_rows):
    emit_json(
        "throughput",
        {
            # the columns identifying a ``grid`` row, for the bench gate
            "axes": ["protocol", "replication_factor", "consensus_factor"],
            "grid": rows,
            "batched": batched_rows,
            "reps": REPS,
            "workload": {"reads_per_reader": 6, "writes_per_writer": 6, "seed": SEED},
        },
    )


def test_kernel_throughput(benchmark):
    rows, batched_rows, table, profile_report = benchmark.pedantic(
        regenerate, rounds=1, iterations=1
    )
    emit("throughput", table + "\n\n" + profile_report)
    emit_throughput_json(rows, batched_rows)
    assert len(rows) == len(throughput_cells())
    assert len(batched_rows) == len(batched_cells())
    for row in rows:
        # run_to_completion already guarantees liveness; pin the shape too.
        assert row["events"] > 0 and row["txns"] > 0, row
        assert row["events_per_sec"] > 0, row
        # Deterministic columns must be reproducible run-to-run on any box.
        assert row["actions"] >= row["events"], row


if __name__ == "__main__":
    quick = "--quick" in sys.argv
    if quick:
        spec = WorkloadSpec(reads_per_reader=3, writes_per_writer=3, seed=SEED)
        cells = [("algorithm-b", 1, 1), ("algorithm-b", 3, 1), ("algorithm-b", 3, 3)]
        lines = ["perf-smoke (quick): kernel events/sec"]
        for name, rf, cf in cells:
            row, _ = run_cell(name, rf, cf, spec, reps=2)
            lines.append(
                f"  {name} rf={rf} cf={cf}: {row['events_per_sec']:>10,.0f} events/sec "
                f"({row['events']} events, {row['elapsed_ms']} ms)"
            )
        # Per-PR profiler breakdown: where a kernel step's wall time goes
        # (scheduler poll/choose/dispatch/trace-append).  Printed for the CI
        # log and written to results/ so the perf-smoke job can upload it as
        # an artifact — trend-readable across PRs without rerunning anything.
        plane = ObservabilityPlane(profile=True)
        _, profiled = run_cell("algorithm-b", 3, 3, spec, reps=1, obs=plane)
        lines.append("")
        lines.append("KernelProfiler bucket breakdown (algorithm-b rf=3 cf=3):")
        lines.append(plane.profiler.report(steps=profiled.simulation.steps_taken))
        # One monitors-on cell (streaming invariants + health/SLO plane):
        # the cheap per-PR check that the online monitors stay silent on a
        # clean run, plus the health report the CI job uploads as an
        # artifact — SLO attainment trend-readable across PRs.
        watched = ObservabilityPlane(monitors=True, health=True)
        row, _ = run_cell("algorithm-b", 3, 3, spec, reps=1, obs=watched)
        alerts = watched.monitors.alerts
        lines.append("")
        lines.append(
            f"monitors-on cell (algorithm-b rf=3 cf=3): "
            f"{row['events_per_sec']:,.0f} events/sec, {len(alerts)} invariant alerts"
        )
        if alerts:
            lines.extend(f"  ALERT: {a.describe()}" for a in alerts)
        # One leases-on cell: the consensus read fast path under the same
        # quick workload.  The registry counters show the lease actually
        # engaging (acquisitions + local reads) so a silent wiring break is
        # visible in the per-PR profile artifact, not just in bench-smoke.
        leased_plane = ObservabilityPlane(monitors=True)
        row, _ = run_cell("algorithm-b", 3, 3, spec, reps=1, obs=leased_plane, leases=True)
        reg = leased_plane.registry
        lines.append("")
        lines.append(
            f"leases-on cell (algorithm-b rf=3 cf=3): "
            f"{row['events_per_sec']:,.0f} events/sec, "
            f"{reg.counter_value('consensus.events', kind='lease-acquired')} leases acquired, "
            f"{reg.counter_value('consensus.events', kind='local-read')} local reads, "
            f"{len(leased_plane.monitors.alerts)} invariant alerts"
        )
        alerts = tuple(alerts) + tuple(leased_plane.monitors.alerts)
        report = "\n".join(lines)
        print(report)
        out = Path(__file__).resolve().parent / "results" / "perf_smoke_profile.txt"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(report + "\n", encoding="utf-8")
        health_out = out.parent / "perf_smoke_health.txt"
        health_out.write_text(watched.health_view.render() + "\n", encoding="utf-8")
        print(f"\nhealth report -> {health_out}")
        print(watched.health_view.render())
        if alerts:
            raise SystemExit(1)
    else:
        rows, batched_rows, table, profile_report = regenerate()
        emit("throughput", table + "\n\n" + profile_report)
        emit_throughput_json(rows, batched_rows)
