"""The plane's registry agrees with the trace it observed.

The analysis collectors have one source, a metrics registry: the live
plane's when the run had one, else the same registry *replayed* from the
retained trace through a detached plane
(:func:`repro.obs.derive_registry`).  These tests pin the two to equal
blocks on the very same simulation — what a live plane counted is what a
replay of its trace counts, so a block never depends on whether the run was
observed — and the kernel-side counters to the trace they were fed from.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.analysis.metrics import _collect_consensus_metrics
from repro.faults import ChaosScheduler, FaultPlan, grow_group_mid_run, replace_dead_replica
from repro.ioa import FIFOScheduler
from repro.ioa.actions import ActionKind
from repro.protocols import protocol_names

from tests.conftest import trace_digest
from tests.obs.conftest import run_observed
from tests.replication.conftest import run_fixed_workload


def chaos_fifo():
    return ChaosScheduler(base=FIFOScheduler())


def both_collector_paths(collector, simulation, *extra):
    """Run a collector off the live registry, then off the replayed one."""
    live = collector(simulation, *extra)
    plane, simulation.obs = simulation.obs, None
    try:
        replayed = collector(simulation, *extra)
    finally:
        simulation.obs = plane
    return live, replayed


def test_kernel_event_counters_match_the_trace():
    handle, plane = run_observed("algorithm-b", num_objects=2)
    registry = plane.registry
    trace = handle.trace()
    by_kind = Counter(action.kind.value for action in trace)
    for kind, expected in by_kind.items():
        assert registry.counter_value("kernel.events", kind=kind) == expected
    assert registry.counter_total("kernel.events") == len(trace)
    sends = sum(
        1
        for action in trace
        if action.kind is ActionKind.SEND and action.message is not None
    )
    assert registry.counter_total("kernel.messages_sent") == sends
    assert registry.counter_total("kernel.messages_channel") == sends


def test_a_hand_appended_send_between_unknown_names_counts_as_s2s():
    """Channel classes come from the topology; a send appended to the trace
    by hand may name automata the kernel never registered."""
    from repro.ioa import Message, Simulation, send_action
    from repro.obs import ObservabilityPlane

    plane = ObservabilityPlane()
    simulation = Simulation(obs=plane)
    simulation.trace.append(send_action(Message("read", "r9", "s9", (("txn", "R1"),), msg_id=1)))
    assert plane.registry.counter_value("kernel.messages_channel", channel="s2s") == 1


def test_message_type_counters_match_the_trace():
    handle, plane = run_observed("algorithm-b", num_objects=2)
    by_type = Counter(
        action.message.msg_type
        for action in handle.trace()
        if action.kind is ActionKind.SEND and action.message is not None
    )
    for msg_type, expected in by_type.items():
        assert (
            plane.registry.counter_value("kernel.messages_sent", type=msg_type)
            == expected
        )


def test_mailbox_depth_gauges_track_the_pending_set():
    handle, plane = run_observed("algorithm-b", num_objects=2)
    simulation = handle.simulation
    still_pending = Counter(d.message.dst for d in simulation.pending_deliveries())
    snapshot = plane.registry.snapshot()
    depths = {
        label: gauge
        for label, gauge in snapshot["gauges"].items()
        if label.startswith("kernel.mailbox_depth")
    }
    assert depths  # every automaton that ever got mail has a gauge
    for label, gauge in depths.items():
        automaton = label.split("automaton=", 1)[1].rstrip("}")
        assert gauge["value"] == still_pending.get(automaton, 0), label
        assert gauge["max"] >= gauge["value"] >= 0


def test_consensus_block_from_registry_equals_trace_walk():
    handle, _plane = run_observed(
        "algorithm-b",
        scheduler=chaos_fifo(),
        num_objects=2,
        consensus_factor=3,
        run_to_completion=False,
    )
    live, replayed = both_collector_paths(
        _collect_consensus_metrics, handle.simulation
    )
    assert live is not None
    assert live == replayed
    assert live.entries_applied > 0


def test_consensus_block_parity_holds_with_leases_on():
    """The lease counters and the read-latency histogram are in the live and
    the replayed registry alike: a leased run's consensus block is the same
    from either, and the lease activity is really in it."""
    handle, _plane = run_observed(
        "algorithm-b",
        scheduler=chaos_fifo(),
        num_objects=2,
        consensus_factor=3,
        leases=True,
        run_to_completion=False,
    )
    live, replayed = both_collector_paths(
        _collect_consensus_metrics, handle.simulation
    )
    assert live is not None
    assert live == replayed
    assert live.lease_acquisitions >= 1
    assert live.local_reads >= 1
    assert live.lease_read_latency.count == live.local_reads
    assert live.local_read_ratio == 1.0  # every read served locally


def test_chaos_scheduler_counters_populate_under_the_plane():
    plan, reconfig = replace_dead_replica()
    _handle, plane = run_observed(
        "algorithm-b",
        scheduler=chaos_fifo(),
        num_objects=2,
        replication_factor=3,
        quorum="majority",
        plan=plan,
        reconfig=reconfig,
        run_to_completion=False,
    )
    registry = plane.registry
    assert registry.counter_value("scheduler.chaos_steps") > 0
    assert registry.counter_value("scheduler.chaos_ripe_events") > 0


def test_a_reused_chaos_scheduler_counts_into_each_runs_own_registry():
    """The scheduler holds its two per-step counters; a second kernel (after
    ``reset``) must not keep feeding the first kernel's registry."""
    scheduler = chaos_fifo()
    _handle, first = run_observed("simple-rw", scheduler=scheduler, plan=FaultPlan.none())
    steps = first.registry.counter_value("scheduler.chaos_steps")
    scheduler.reset()
    _handle, second = run_observed("simple-rw", scheduler=scheduler, plan=FaultPlan.none())
    assert steps > 0
    assert first.registry.counter_value("scheduler.chaos_steps") == steps
    assert second.registry.snapshot() == first.registry.snapshot()


@pytest.mark.parametrize("protocol", protocol_names())
def test_the_plane_counts_a_membership_change_without_perturbing_it(protocol):
    """Attached to a run that grows a group mid-run, the plane counts the
    change's steps off the reconfiguration actions — one joint entry, one
    sync per added replica, one commit — and the trace stays the one the
    unobserved run produces."""
    _, reconfig = grow_group_mid_run("ox", 3, to_factor=5, at=3)
    settings = dict(
        num_objects=2, replication_factor=3, quorum="majority", reconfig=reconfig
    )
    bare = run_fixed_workload(protocol, scheduler=chaos_fifo(), **settings)
    handle, plane = run_observed(protocol, scheduler=chaos_fifo(), **settings)
    assert trace_digest(handle) == trace_digest(bare)
    assert handle.directory.group("ox") == ("sx", "sx.2", "sx.3", "sx.4", "sx.5")
    registry = plane.registry
    assert registry.counter_value("reconfig.events", kind="joint-begin") == 1
    assert registry.counter_value("reconfig.events", kind="sync-done") == 2
    assert registry.counter_value("reconfig.events", kind="commit") == 1
