"""One perf benchmark for the whole stack (see README.md beside this file).

Two ways in, one measuring loop:

* ``python3 benchmarks/perf/run.py [--seed 17] [--workload W] [--reps 5]``
  runs every workload: ``--reps`` fresh-process repetitions each, interleaved
  round-robin, then one traced child per workload; prints every metric by
  name with its unit and writes ``results/latest.json``.
* ``... --workload W --seed N --seconds S --trace 0|1`` is the form the
  benchmark driver calls: repetitions of one workload until ``S`` seconds are
  used, then one JSON object on the last line of stdout (``--trace 0``: the
  end-to-end metrics, ``--trace 1``: the per-layer metrics of traced runs).

Metric names, units and bounds are read from ``BENCHMARK.json``.  Host-time
metrics are medians over repetitions; simulated metrics repeat exactly under a
fixed seed and are checked to.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"

#: host seconds are rescaled to a machine on which the child's calibration
#: loop (``child.calibrate``) takes this long; see README "Calibration"
CALIBRATION_REF_S = 0.11
#: a host time may differ by this much before its relative bound applies
#: (``--selfcheck`` only; the driver knows relative bounds only)
ABS_FLOOR_S = 0.03
#: a child that runs longer than this is killed and the run fails
CHILD_TIMEOUT_S = 150
#: repetitions a time-budgeted run makes at least
MIN_ROUNDS = 2

Report = Dict[str, Any]


def load_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_child(workload: str, seed: int, traced: bool, scale: int) -> Report:
    """One repetition in a fresh interpreter; returns the child's report."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [
            sys.executable, str(HERE / "child.py"),
            "--workload", workload, "--seed", str(seed),
            "--trace", str(int(traced)), "--scale", str(scale),
        ],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"child for {workload!r} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def collect(
    names: Sequence[str],
    seed: int,
    scale: int,
    kinds: Sequence[bool],
    reps: Optional[int] = None,
    seconds: Optional[float] = None,
) -> Dict[str, List[Report]]:
    """Run rounds of children; a round is one child per (workload, kind),
    workloads interleaved so slow drift of the machine hits all alike.
    ``kinds`` are the ``traced`` flags of a round.  Stops after ``reps``
    rounds, or when another round would overrun ``seconds``."""
    reports: Dict[str, List[Report]] = {name: [] for name in names}
    start = time.perf_counter()
    rounds = 0
    while True:
        for traced in kinds:
            for name in names:
                reports[name].append(run_child(name, seed, traced, scale))
        rounds += 1
        if reps is not None:
            if rounds >= reps:
                return reports
        else:
            elapsed = time.perf_counter() - start
            if rounds >= MIN_ROUNDS and elapsed + elapsed / rounds > seconds:
                return reports


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def problems(reports: Sequence[Report]) -> List[str]:
    """What is wrong with a workload's outputs (empty = correct): failed
    transactions or checks, and repetitions (traced ones too) that disagree
    on the simulated metrics although they ran the same seed."""
    first = reports[0]["sim"]
    found = list(first["problems"])
    if first["failed"]:
        found.append(f"{first['failed']} of {first['submitted']} transactions failed")
    if any(r["sim"] != first for r in reports[1:]):
        found.append("repetitions under one seed disagree on simulated metrics")
    return found


def end_to_end(reports: Sequence[Report]) -> Dict[str, Dict[str, Any]]:
    """End-to-end metrics of one workload from its untraced repetitions:
    ``name -> {value, clock, n[, q1, q3]}``.  Clock ``host`` = wall seconds or
    memory of the simulator: noisy, a median over ``n`` repetitions, compared
    within its bound.  Clock ``sim`` = steps and counts over ``n`` samples:
    must repeat exactly under a fixed seed."""
    hosts = [r["host"] for r in reports]
    sim = reports[0]["sim"]
    speed = [CALIBRATION_REF_S / h["calibration_s"] for h in hosts]
    setup = [(h["import_s"] + h["setup_s"]) * k for h, k in zip(hosts, speed)]
    run = [h["run_s"] * k for h, k in zip(hosts, speed)]
    verify = [h["verify_s"] * k for h, k in zip(hosts, speed)]
    host = {
        "setup_s": setup,
        "txns_per_s": [sim["completed"] / s for s in run],
        "experiment_s": [sum(parts) for parts in zip(setup, run, verify)],
        "peak_rss_mb": [h["peak_rss_mb"] for h in hosts],
    }
    out: Dict[str, Dict[str, Any]] = {}
    for name, values in host.items():
        q1, median, q3 = quartiles(values)
        out[name] = {"value": median, "clock": "host", "n": len(values), "q1": q1, "q3": q3}
    samples = {
        "read_latency_steps_p50": sim["reads"],
        "read_latency_steps_p95": sim["reads"],
        "write_latency_steps_p50": sim["writes"],
        "read_rounds_max": sim["reads"],
        "msgs_per_txn": sim["completed"],
        "events_per_txn": sim["completed"],
        "completed_share": sim["submitted"],
    }
    for name, n in samples.items():
        out[name] = {"value": sim[name], "clock": "sim", "n": n}
    return out


def per_layer(untraced: Sequence[Report], traced: Sequence[Report]) -> Dict[str, float]:
    """Per-layer metrics of one workload: host times are medians over the
    traced repetitions, counts come from the (identical) simulated blocks."""

    def median(values) -> float:
        return statistics.median(list(values))

    out: Dict[str, float] = {}
    traces = [r["trace"] for r in traced]
    totals = [t["traced_run_s"] for t in traces]
    for layer in traces[0]["self_s"]:
        out[f"{layer}.self_s"] = median(t["self_s"][layer] for t in traces)
        out[f"{layer}.calls"] = traces[0]["calls"][layer]
        out[f"{layer}.share"] = median(t["self_s"][layer] / t["traced_run_s"] for t in traces)
    loose = [t["traced_run_s"] - sum(t["self_s"].values()) for t in traces]
    out["run.unattributed_s"] = median(loose)
    out["run.unattributed_share"] = median(s / total for s, total in zip(loose, totals))
    for phase in traced[0]["host"]["phases"]:
        out[f"{phase}.self_s"] = median(r["host"]["phases"][phase] for r in traced)
    out["bench.import.self_s"] = median(r["host"]["import_s"] for r in untraced)
    out["bench.verify_s"] = median(r["host"]["verify_s"] for r in untraced)
    out["bench.calibration_s"] = median(r["host"]["calibration_s"] for r in untraced)

    sim = traced[0]["sim"]
    counts = {**sim["counts"], **traces[0]["counts"]}
    run_s = median(r["host"]["run_s"] for r in untraced)
    out["ioa.events"] = sim["events"]
    out["ioa.actions"] = sim["actions"]
    out["ioa.trace_retained"] = sim["trace_retained"]
    out["ioa.events_per_s"] = sim["events"] / run_s
    out["protocols.read_rounds_mean"] = sim["read_rounds_mean"]
    coordinator_reads = counts["consensus.local_reads"] + counts.pop("consensus.read_applies")
    out["consensus.local_read_ratio"] = (
        counts["consensus.local_reads"] / coordinator_reads if coordinator_reads else 0.0
    )
    out.update(counts)
    # virtual time exists only under a fault plane: 0 off the chaos workload
    out["faults.read_latency_vt_p95"] = sim["read_latency_vt_p95"] or 0
    out["faults.outage_vt_max"] = sim["outage_vt_max"] or 0

    for protocol, txns in sim["protocol_txns"].items():
        out[f"run_s.{protocol}"] = median(r["host"]["protocol_run_s"][protocol] for r in untraced)
        out[f"txns.{protocol}"] = txns
    out["traced_run_s"] = median(totals)
    out["trace_overhead_ratio"] = out["traced_run_s"] / run_s
    return out


# ----------------------------------------------------------------------
# the driver's form: one workload, a time budget, one JSON line
# ----------------------------------------------------------------------
def driver_run(spec, workload: str, seed: int, seconds: float, traced: bool, scale: int) -> None:
    kinds = (False, True) if traced else (False,)
    reports = collect([workload], seed, scale, kinds, seconds=seconds)[workload]
    untraced = [r for r in reports if not r["traced"]]
    if traced:
        values = per_layer(untraced, [r for r in reports if r["traced"]])
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        values = end_to_end(untraced)
        metrics = {
            m["name"]: {"value": values[m["name"]]["value"], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    wrong = problems(reports)
    for problem in wrong:
        print(f"problem: {problem}")
    print(f"{workload}: seed {seed}, {len(untraced)} untraced + {len(reports) - len(untraced)} traced repetitions")
    for key in ("run_s", "calibration_s"):
        print(f"   untraced {key} as measured: " + " ".join(f"{r['host'][key]:.3f}" for r in untraced))
    result = {
        "correct": not wrong,
        "attempted": sum(r["sim"]["submitted"] for r in reports),
        "failed": sum(r["sim"]["failed"] for r in reports),
        "metrics": metrics,
    }
    print(json.dumps(result))


# ----------------------------------------------------------------------
# the full suite: every workload, tables, results/latest.json
# ----------------------------------------------------------------------
def machine() -> Dict[str, Any]:
    return {
        "machine": platform.machine(),
        "system": platform.platform(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


def suite(spec, names: Sequence[str], seed: int, reps: int, scale: int) -> Dict[str, Any]:
    """Measure ``names``; returns the document written to ``results/``."""
    untraced = collect(names, seed, scale, (False,), reps=reps)
    traced = collect(names, seed, scale, (True,), reps=1)
    workloads = {}
    for name in names:
        workloads[name] = {
            "problems": problems(untraced[name] + traced[name]),
            "end_to_end": end_to_end(untraced[name]),
            "per_layer": per_layer(untraced[name], traced[name]),
            "repetitions": untraced[name] + traced[name],
        }
    return {"seed": seed, "reps": reps, "scale": scale, **machine(), "workloads": workloads}


def fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4f}" if abs(value) < 1000 else f"{value:.1f}"
    return str(value)


def print_suite(spec, document: Dict[str, Any]) -> None:
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    print(
        f"seed {document['seed']}, {document['reps']} fresh-process repetitions per workload "
        f"(PYTHONHASHSEED=0) + 1 traced; {document['nproc']} cores, Python {document['python']}"
    )
    print(
        "clock: host = wall time/memory of the simulator (median, quartiles); "
        "sim = trace steps and counts (identical under a fixed seed)"
    )
    for name, result in document["workloads"].items():
        print(f"\n== {name} — {whys[name]}")
        if name == "chaos":
            print("   injected message delay: UniformLatency(0, 4) virtual steps; elsewhere none,")
            print("   so latency in steps is processing order only")
        print(f"   {'end-to-end':<28}{'value':>12}{'q1':>12}{'q3':>12}{'n':>8}  {'unit':<8}{'clock':<6}bound")
        for metric in spec["end_to_end"]:
            row = result["end_to_end"][metric["name"]]
            print(
                f"   {metric['name']:<28}{fmt(row['value']):>12}{fmt(row.get('q1', '')):>12}"
                f"{fmt(row.get('q3', '')):>12}{row['n']:>8}  {metric['unit']:<8}{row['clock']:<6}"
                f"{metric['bound']:.0%} ({metric['better']} is better)"
            )
        print(f"   {'per-layer (traced run)':<40}{'value':>14}  unit")
        for metric in spec["per_layer"]:
            print(f"   {metric['name']:<40}{fmt(result['per_layer'][metric['name']]):>14}  {metric['unit']}")
        for problem in result["problems"]:
            print(f"   PROBLEM: {problem}")
        print(f"   outputs correct: {not result['problems']}")


def compare(spec, first: Dict[str, Any], second: Dict[str, Any]) -> bool:
    """``--selfcheck``: two suites of the same code must agree."""
    ok = True
    for name in first["workloads"]:
        print(f"\n== {name}")
        for metric in spec["end_to_end"]:
            row = first["workloads"][name]["end_to_end"][metric["name"]]
            a = row["value"]
            b = second["workloads"][name]["end_to_end"][metric["name"]]["value"]
            if row["clock"] == "host":
                allowed = metric["bound"] * min(a, b)
                if metric["unit"] == "s":
                    allowed = max(allowed, ABS_FLOOR_S)
                agree = abs(a - b) <= allowed
            else:
                agree = a == b
            ok &= agree
            print(f"   {metric['name']:<28}{fmt(a):>12}{fmt(b):>12}  {'ok' if agree else 'DIFFERS'}")
    return ok


def cprofile(name: str, seed: int) -> None:
    """One ``cProfile`` pass over setup+run+verify of ``name`` (a cross-check
    of the layer table, not a metric: profiling inflates Python-call-heavy
    code)."""
    import cProfile
    import io
    import pstats

    sys.path.insert(0, str(ROOT / "src"))
    import child

    child.warm_up(name, seed)
    profiler = cProfile.Profile()
    report = profiler.runcall(child.run_once, name, seed)
    text = io.StringIO()
    stats = pstats.Stats(profiler, stream=text).sort_stats("tottime")
    stats.print_stats(20)
    per_txn = stats.total_calls / report["sim"]["completed"]
    text.write(f"{stats.total_calls} calls / {report['sim']['completed']} txns = {per_txn:.1f} calls per txn\n")
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"cprofile-{name}.txt"
    path.write_text(text.getvalue(), encoding="utf-8")
    print(text.getvalue())
    print(f"wrote {path}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--workload", "--only", help="run this workload only")
    parser.add_argument("--reps", type=int, default=5, help="repetitions per workload (full suite)")
    parser.add_argument("--seconds", type=float, help="driver form: measure one workload this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="driver form: 1 = per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="1/20 sizes")
    parser.add_argument("--selfcheck", action="store_true", help="run the suite twice and compare")
    parser.add_argument("--cprofile", metavar="WORKLOAD", help="profile one workload into results/")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    for chosen in (args.workload, args.cprofile):
        if chosen is not None and chosen not in names:
            parser.error(f"unknown workload {chosen!r}; choose from {', '.join(names)}")
    scale = 20 if args.smoke else 1

    if args.cprofile:
        cprofile(args.cprofile, args.seed)
        return 0
    if args.seconds is not None:
        if args.workload is None:
            parser.error("--seconds needs --workload")
        driver_run(spec, args.workload, args.seed, args.seconds, bool(args.trace), scale)
        return 0

    chosen = [args.workload] if args.workload else names
    document = suite(spec, chosen, args.seed, args.reps, scale)
    print_suite(spec, document)
    ok = not any(w["problems"] for w in document["workloads"].values())
    if args.selfcheck:
        second = suite(spec, chosen, args.seed, args.reps, scale)
        ok &= not any(w["problems"] for w in second["workloads"].values())
        ok &= compare(spec, document, second)
        print(f"\nselfcheck: {'two runs agree' if ok else 'FAILED'}")
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "latest.json").write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"\nwrote {RESULTS / 'latest.json'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
