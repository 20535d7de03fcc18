"""Observability overhead: events/sec × protocol × obs configuration.

ISSUE 8's measurement half: what the online observability plane costs.  Each
protocol runs the same rf=3/cf=3 workload under four configurations —

* ``off`` — no plane at all (the seed's default);
* ``metrics`` — the metrics registry observer (``observe=True``);
* ``monitors`` — metrics + streaming invariant monitors + the health/SLO
  plane (everything on);
* ``sampled`` — metrics with the trace in ``sampled(rate=0.1)`` mode, the
  long-run configuration: counters/monitors stay exact while only a
  deterministic ~10% of send/recv records are retained.

Rows land in ``results/BENCH_obs.json`` keyed (protocol, scenario) so the
bounded-drift gate in ``check_bench_regression.py`` covers ``events_per_sec``
the same way it covers the raw-throughput grid.  The deterministic columns
(``events``, ``actions``, ``retained``, ``alerts``) are identical on every
machine: ``events`` must not vary across scenarios (the plane only listens)
and ``alerts`` must be 0 (clean runs trip no monitor).

Run directly (``python benchmarks/bench_obs_overhead.py``) to regenerate and
additionally verify the sampling win: the profiler's ``trace_append`` bucket
under sampled mode must come in at most half of full mode's (wall clock, so
checked here — never in pytest, where a noisy shared runner would flake).
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
from repro.ioa import FIFOScheduler, TraceMode  # noqa: E402
from repro.obs import KernelProfiler, ObservabilityPlane  # noqa: E402
from repro.protocols import get_protocol  # noqa: E402

SEED = 17
REPS = 3  # best-of: see bench_throughput.py on container clock oscillation
PROTOCOLS = ("algorithm-b", "algorithm-c", "occ-double-collect")
SAMPLE_RATE = 0.1


def scenarios():
    """scenario name -> (plane factory, trace mode).  Factories, not
    instances: a plane observes exactly one simulation."""
    return (
        ("off", lambda: None, None),
        ("metrics", lambda: ObservabilityPlane(), None),
        ("monitors", lambda: ObservabilityPlane(monitors=True, health=True), None),
        ("sampled", lambda: ObservabilityPlane(), TraceMode.sampled(SAMPLE_RATE, seed=SEED)),
    )


def run_cell(protocol_name, scenario, make_plane, trace_mode, spec, reps=REPS):
    """Build + run one (protocol, scenario) cell ``reps`` times."""
    protocol = get_protocol(protocol_name)
    best_rate, elapsed_best, handle, plane = 0.0, None, None, None
    for _ in range(reps):
        plane = make_plane()
        kwargs = dict(
            num_readers=2,
            num_writers=2,
            num_objects=3,
            scheduler=FIFOScheduler(),
            seed=SEED,
            replication_factor=3,
            quorum="majority",
            consensus_factor=3,
        )
        if plane is not None:
            kwargs.update(obs=plane)
        if trace_mode is not None:
            kwargs.update(trace_mode=trace_mode)
        handle = protocol.build(**kwargs)
        workload = generate_workload(spec, handle.readers, handle.writers, handle.objects)
        submit_workload(handle, workload)
        started = perf_counter()
        handle.run_to_completion()
        elapsed = perf_counter() - started
        rate = handle.simulation.steps_taken / elapsed if elapsed > 0 else 0.0
        if rate > best_rate:
            best_rate, elapsed_best = rate, elapsed
    trace = handle.simulation.trace
    alerts = len(plane.monitors.alerts) if plane is not None and plane.monitors else 0
    row = {
        "protocol": protocol_name,
        "scenario": scenario,
        "replication_factor": 3,
        "consensus_factor": 3,
        "events": handle.simulation.steps_taken,
        "actions": trace.total_appended,
        "retained": len(trace),
        "alerts": alerts,
        "elapsed_ms": round((elapsed_best or 0.0) * 1e3, 2),
        "events_per_sec": round(best_rate, 1),
    }
    return row, handle


def regenerate(spec=None, reps=REPS):
    spec = spec or WorkloadSpec(reads_per_reader=6, writes_per_writer=6, seed=SEED)
    rows = []
    for name in PROTOCOLS:
        baseline_events = None
        for scenario, make_plane, trace_mode in scenarios():
            row, _ = run_cell(name, scenario, make_plane, trace_mode, spec, reps=reps)
            if baseline_events is None:
                baseline_events = row["events"]
            # The plane and the trace mode only *listen*: the executed run —
            # and therefore the step count — must be identical per protocol.
            assert row["events"] == baseline_events, (name, scenario, row)
            assert row["alerts"] == 0, (name, scenario, row)
            rows.append(row)

    headers = ["protocol", "scenario", "events", "actions", "retained", "events/sec"]
    table = format_table(
        headers,
        [
            [
                r["protocol"], r["scenario"], r["events"], r["actions"],
                r["retained"], f"{r['events_per_sec']:,.0f}",
            ]
            for r in rows
        ],
    )
    return rows, table


def trace_append_seconds(trace_mode, spec):
    """Wall seconds spent in ``trace.append`` for one bare profiled run (no
    metrics observer riding the append, so the bucket isolates retention
    cost — the thing sampling is supposed to cut)."""
    protocol = get_protocol("algorithm-b")
    kwargs = dict(
        num_readers=2,
        num_writers=2,
        num_objects=3,
        scheduler=FIFOScheduler(),
        seed=SEED,
        replication_factor=3,
        quorum="majority",
        consensus_factor=3,
    )
    if trace_mode is not None:
        kwargs.update(trace_mode=trace_mode)
    handle = protocol.build(**kwargs)
    profiler = KernelProfiler()
    profiler.install(handle.simulation)
    workload = generate_workload(spec, handle.readers, handle.writers, handle.objects)
    submit_workload(handle, workload)
    handle.run_to_completion()
    return profiler.seconds("trace_append"), profiler.count("trace_append")


def emit_obs_json(rows):
    emit_json(
        "obs",
        {
            # the columns identifying a ``grid`` row, for the bench gate
            "axes": ["protocol", "scenario"],
            "grid": rows,
            "reps": REPS,
            "sample_rate": SAMPLE_RATE,
            "workload": {"reads_per_reader": 6, "writes_per_writer": 6, "seed": SEED},
        },
    )


def test_obs_overhead(benchmark):
    rows, table = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    emit("obs_overhead", table)
    emit_obs_json(rows)
    assert len(rows) == len(PROTOCOLS) * len(scenarios())
    for row in rows:
        assert row["events"] > 0 and row["events_per_sec"] > 0, row
        if row["scenario"] == "sampled":
            # Sampling must actually drop records — and only send/recv ones,
            # so the retained count stays well above rate * actions.
            assert row["retained"] < row["actions"], row
        else:
            assert row["retained"] == row["actions"], row


if __name__ == "__main__":
    spec = WorkloadSpec(reads_per_reader=6, writes_per_writer=6, seed=SEED)
    rows, table = regenerate(spec)
    emit("obs_overhead", table)
    emit_obs_json(rows)
    # The sampling win, measured where wall clock is allowed to matter:
    # best-of-REPS trace_append seconds, full vs sampled retention.
    big = WorkloadSpec(reads_per_reader=12, writes_per_writer=12, seed=SEED)
    full_s = min(trace_append_seconds(None, big)[0] for _ in range(REPS))
    sampled_s = min(trace_append_seconds(TraceMode.sampled(SAMPLE_RATE, seed=SEED), big)[0] for _ in range(REPS))
    ratio = full_s / sampled_s if sampled_s > 0 else float("inf")
    print(
        f"[bench_obs] trace_append: full={full_s * 1e3:.2f} ms, "
        f"sampled={sampled_s * 1e3:.2f} ms ({ratio:.1f}x)"
    )
    if ratio < 2.0:
        print("[bench_obs] WARNING: sampled mode cut trace_append by < 2x", file=sys.stderr)
        raise SystemExit(1)
