"""Where the cyclic garbage collector runs during a perf-benchmark repetition.

``benchmarks/perf/child.py`` is imported unchanged and one untraced repetition
per workload runs in this process with a ``gc.callbacks`` probe around
``child.run_once``: passes and seconds per generation, split by whether the
pass *started* inside ``handle.run()``, then the unreachable count of a final
``gc.collect()``.  ``Simulation.run()`` pauses the collector and a dropped
simulation dies by reference count, so the exit status is 1 when a pass starts
inside ``run()`` or the final collect finds anything.  The layer table cannot
show this: the traced child drives ``step()`` itself and keeps the collector.

    python3 benchmarks/collector_probe.py [--scale 20] [--seed 17] [--workload W]
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "perf")]

import child  # noqa: E402  (benchmarks/perf/child.py)
from repro.protocols.base import SystemHandle  # noqa: E402

GENERATIONS = ("young", "middle", "full")


def probe(workload: str, seed: int, scale: int) -> dict:
    """Counts of one repetition: ``{in_run|outside: {young|middle|full|pass_s}, unreachable}``."""
    seen = {where: dict.fromkeys((*GENERATIONS, "pass_s"), 0) for where in ("in_run", "outside")}
    state = {"where": "outside", "started": 0.0}
    handle_run = SystemHandle.run

    def on_pass(phase, info):
        if phase == "start":  # a pass belongs to where it *starts*
            state["counts"] = seen[state["where"]]
            state["started"] = perf_counter()
        else:
            state["counts"][GENERATIONS[info["generation"]]] += 1
            state["counts"]["pass_s"] += perf_counter() - state["started"]

    def probed_run(handle):
        state["where"] = "in_run"
        try:
            return handle_run(handle)
        finally:
            state["where"] = "outside"

    child.warm_up(workload, seed)
    gc.collect()
    SystemHandle.run = probed_run
    gc.callbacks.append(on_pass)
    try:
        report = child.run_once(workload, seed, scale=scale)
    finally:
        gc.callbacks.remove(on_pass)
        SystemHandle.run = handle_run
    return {**seen, "unreachable": gc.collect(), "run_s": report["host"]["run_s"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(child.WORKLOADS), help="default: all five")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--scale", type=int, default=1, help="divide sizes (smoke runs)")
    args = parser.parse_args()
    results = {}
    columns = "".join(f"{g:>8}" for g in GENERATIONS) + f"{'pass_s':>9}"
    print(f"{'workload':<18}{'where':<9}{columns}  unreachable / run_s")
    for name in [args.workload] if args.workload else list(child.WORKLOADS):
        results[name] = found = probe(name, args.seed, args.scale)
        for where in ("in_run", "outside"):
            counts = found[where]
            cells = "".join(f"{counts[g]:>8}" for g in GENERATIONS) + f"{counts['pass_s']:>9.3f}"
            tail = f"  {found['unreachable']} / {found['run_s']:.3f}" if where == "outside" else ""
            print(f"{name:<18}{where:<9}{cells}{tail}")
    print(json.dumps(results))
    return int(any(sum(r["in_run"][g] for g in GENERATIONS) or r["unreachable"] for r in results.values()))


if __name__ == "__main__":
    sys.exit(main())
