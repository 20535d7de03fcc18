"""A tour of the observability plane on a chaotic reconfiguration run.

``repro.obs`` gives every simulation four coordinated views, all derived
from the same deterministic trace:

1. a **causal span tree** — one span per transaction, child spans per
   quorum round, zero-length spans for applied consensus entries, plus
   election and reconfiguration windows, stitched together with one causal
   edge per delivered message;
2. a **kernel metrics registry** — virtual-time counters, gauges and
   histograms (events by kind, messages by type and channel class, mailbox
   depth watermarks) fed by cheap hooks instead of trace re-walks;
3. **streaming invariant monitors** — the offline safety checkers as
   online automata (election safety, log matching, quorum intersection,
   config-in-flight), alerting at the exact offending trace index;
4. a **health/SLO plane** — per-kind latency SLOs, rolling timeout/error
   rates and staleness-derived replica health, all on the virtual clock.

The scenario here is PR 4's acceptance story under chaos: a replica of one
object fail-stops mid-run and a joint-consensus change replaces it — with
the plane enabled you can *watch* the crash, the joint window and the
commit on one timeline, with the monitors confirming live that no safety
rule broke along the way.  Run twice, the printed timeline, registry
snapshot and health report are byte-identical; the trace itself matches
the plane-free run.

The ``--inject-violation`` flag forges a second leader for an already-led
term into the finished run's live trace — the streaming suite fires
immediately, and the printed alert carries the offending index plus a
bounded causal suffix (the post-mortem checker would need the whole trace
to say the same thing).

Run with:  PYTHONPATH=src python examples/observability_tour.py [--export timeline.json]
"""

from __future__ import annotations

import argparse

from repro.faults import ChaosScheduler, FaultInjector, replace_dead_replica
from repro.ioa import FIFOScheduler
from repro.ioa.actions import Action, ActionKind
from repro.obs import ObservabilityPlane, derive_spans, render_timeline, write_chrome_trace
from repro.protocols import get_protocol

SEED = 3


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--protocol", default="algorithm-b")
    parser.add_argument(
        "--export",
        metavar="FILE",
        help="also write the Chrome trace-event timeline (open in ui.perfetto.dev)",
    )
    parser.add_argument(
        "--inject-violation",
        action="store_true",
        help="forge a duplicate leader into the live trace to demo the alert path",
    )
    args = parser.parse_args()

    plan, reconfig = replace_dead_replica()
    plane = ObservabilityPlane(monitors=True, health=True)
    protocol = get_protocol(args.protocol)
    handle = protocol.build(
        num_readers=2 if protocol.supports_multiple_readers else 1,
        num_writers=2,
        num_objects=2,
        scheduler=ChaosScheduler(base=FIFOScheduler()),
        seed=SEED,
        replication_factor=3,
        quorum="majority",
        reconfig=reconfig,
        obs=plane,
        fault_plane=FaultInjector(plan, seed=SEED),
    )
    previous = None
    for index in range(1, 4):
        previous = handle.submit_write(
            {obj: f"v{index}-{obj}" for obj in handle.objects},
            txn_id=f"W{index}",
            after=[previous] if previous else (),
        )
        handle.submit_read(handle.objects, txn_id=f"R{index}", after=[previous])
    handle.run()

    tree = derive_spans(handle.simulation)
    print("=== causal span timeline (clock = trace index) ===")
    print(render_timeline(tree))
    print()
    print("=== kernel metrics registry ===")
    print(plane.registry.describe())
    print()
    print("=== streaming invariant monitors (watched the run live) ===")
    print(plane.monitors.describe())
    print()
    print("=== end-of-run health/SLO report (virtual clock) ===")
    print(plane.health_view.render())

    if args.inject_violation:
        print()
        print("=== injecting a duplicate leader for term 999 ... ===")
        trace = handle.simulation.trace
        for member in ("demo-a", "demo-b"):
            trace.append(
                Action.make(
                    ActionKind.INTERNAL,
                    member,
                    info={"consensus": "became-leader", "term": 999, "member": member},
                )
            )
        alert = plane.monitors.alerts[-1]
        print(alert.describe())
        print(f"(flagged live at trace index {alert.trace_index}, "
              f"{trace.total_appended - 1 - alert.trace_index} events before the run would end)")

    if args.export:
        path = write_chrome_trace(tree, args.export)
        print(f"\nwrote Chrome trace-event timeline to {path} (open in ui.perfetto.dev)")


if __name__ == "__main__":
    main()
