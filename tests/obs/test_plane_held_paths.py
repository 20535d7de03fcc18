"""The plane's held paths keep the registry's two edge contracts.

The plane bumps held instruments in place: one counter per action kind, per
message type, per ``(src, dst)`` channel pair and one gauge per mailbox.  A
held instrument must never swallow a touch the registry would have counted:

* past a metric's label cap (:data:`~repro.obs.registry.MAX_LABEL_SETS`),
  every touch of a label set the registry did not admit still goes through
  the registry, which counts it on ``obs.label_overflow{metric=...}``;
* a held channel pair is dropped when the topology's membership changes, so
  a name that rejoins as another kind of automaton is classified again, and
  a run that spawns and retires replicas still files every send under the
  channel its topology gives it.
"""

from __future__ import annotations

from collections import Counter
from types import SimpleNamespace

from repro.faults import ChaosScheduler, replace_dead_replica
from repro.ioa import FIFOScheduler, Simulation
from repro.ioa.actions import ActionKind, Message, new_action
from repro.ioa.automaton import Automaton
from repro.obs import ObservabilityPlane
from repro.obs.registry import MAX_LABEL_SETS

from tests.obs.conftest import run_observed

#: label values past the cap, each touched three times
EXTRA = 3


def overflow_count(plane, metric):
    return plane.registry.counter_value("obs.label_overflow", metric=metric)


def test_message_types_past_the_cap_count_every_routed_touch():
    plane = ObservabilityPlane()
    types = [f"t{i}" for i in range(MAX_LABEL_SETS + EXTRA)]
    touches = types + types[-EXTRA:] * 2 + types[:2]
    for msg_type in touches:
        plane.on_action(new_action(ActionKind.SEND, "c1", Message.make(msg_type, "c1", "s1")))
    assert overflow_count(plane, "kernel.messages_sent") == 3 * EXTRA
    direct = ObservabilityPlane().registry
    for msg_type in touches:
        direct.counter("kernel.messages_sent", type=msg_type).inc()
    counters = plane.registry.snapshot()["counters"]
    assert {k: v for k, v in counters.items() if "messages_sent" in k} == direct.snapshot()["counters"]
    assert counters["kernel.events{kind=send}"] == len(touches)


def test_mailboxes_past_the_cap_count_every_routed_touch():
    plane = ObservabilityPlane()
    names = [f"a{i}" for i in range(MAX_LABEL_SETS + EXTRA)]
    deliveries = [SimpleNamespace(message=SimpleNamespace(dst=name)) for name in names]
    for delivery in deliveries + deliveries[-EXTRA:]:
        plane.on_enqueue(delivery)
    for delivery in deliveries:
        plane.on_dequeue(delivery.message)
    # each name past the cap was touched three times: twice in, once out
    assert overflow_count(plane, "kernel.mailbox_depth") == 3 * EXTRA
    gauges = plane.registry.snapshot()["gauges"]
    assert gauges["kernel.mailbox_depth{label_overflow=true}"] == {"value": EXTRA, "max": 2 * EXTRA}
    assert gauges["kernel.mailbox_depth{automaton=a0}"] == {"value": 0, "max": 1}
    assert len(gauges) == MAX_LABEL_SETS + 1


class Server(Automaton):
    kind = "server"


class Pinger(Automaton):
    """Sends one ``ping`` to ``s`` when it starts."""

    kind = "client"

    def on_start(self, ctx):
        ctx.send("s", "ping")


class ServerPinger(Pinger):
    kind = "server"


def test_a_name_that_rejoins_as_another_kind_is_classified_again():
    plane = ObservabilityPlane()
    simulation = Simulation(scheduler=FIFOScheduler(), obs=plane)
    simulation.add_automata([Server("s"), Pinger("x")])
    simulation.run()
    assert simulation.remove_automaton("x")
    simulation.add_automaton(ServerPinger("x"))  # mid-run: START, then its ping
    simulation.run()
    registry = plane.registry
    assert registry.counter_value("kernel.messages_channel", channel="c2s") == 1
    assert registry.counter_value("kernel.messages_channel", channel="s2s") == 1


def test_channel_counters_hold_across_a_replica_spawned_and_one_retired():
    """The replace-dead-replica reconfiguration spawns ``sx.4`` and retires
    ``sx.3`` mid-run; every send is still filed under its channel class."""
    plan, reconfig = replace_dead_replica()
    handle, plane = run_observed(
        "algorithm-b",
        scheduler=ChaosScheduler(base=FIFOScheduler()),
        num_objects=2,
        replication_factor=3,
        quorum="majority",
        plan=plan,
        reconfig=reconfig,
        run_to_completion=False,
    )
    simulation, registry = handle.simulation, plane.registry
    names = {automaton.name for automaton in simulation.automata()}
    assert "sx.4" in names and "sx.3" not in names  # the membership did change
    topology = simulation.topology
    sends = [a.message for a in handle.trace() if a.kind is ActionKind.SEND]
    assert any(m.src == "sx.4" or m.dst == "sx.4" for m in sends)
    expected = Counter(topology.channel_class(m.src, m.dst) for m in sends)
    for channel, count in expected.items():
        assert registry.counter_value("kernel.messages_channel", channel=channel) == count
    assert registry.counter_total("kernel.messages_channel") == registry.counter_total("kernel.messages_sent")
    by_clients = sum(registry.counter_value("kernel.messages_channel", channel=c) for c in ("c2s", "c2c"))
    assert by_clients == sum(r.messages_sent for r in simulation.transaction_records()) > 0
