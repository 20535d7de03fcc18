"""The indexed transport buffer and the window spans execute exactly what
the scans they replaced did.

Every run is made twice — once with :class:`FaultInjector`, once with
:class:`ReferenceFaultInjector` (the seed's two full scans of parked mail and
the per-call scans of the plan that PR 21's span cache replaced,
``tests/faults/reference_injector.py``) — and must agree on the trace
signature, on every :class:`FaultStats` counter and on the *order* of
``held_messages()`` at the end.  The oracle also keeps the seed's
never-forgetting delivered-id set, so equal ``duplicates_suppressed`` counts
and equal traces show that forgetting an id with its last copy suppresses
exactly what remembering it forever did.  Re-admission order decides every
later RNG draw: a buffer that released due mail in ``release_at`` order
instead of insertion order fails the clock-skipping test below (the kernel's
own clock visits every release time, so there the two orders coincide).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis.workload import WorkloadSpec, generate_workload, submit_workload
from repro.faults import (
    ChaosScheduler,
    CrashEvent,
    FaultInjector,
    flaky_everything,
    lossy_network,
    replace_dead_replica,
)
from repro.protocols import get_protocol, protocol_names

from tests.faults.perf_chaos_cell import run_chaos_cell, workloads
from tests.faults.reference_injector import ReferenceFaultInjector

# at-most-once delivery is a safety property: CI's invariants gate runs these
pytestmark = pytest.mark.invariants

SEEDS = (1, 2, 3, 4, 5)


def outcome(handle):
    plane = handle.simulation.fault_plane
    return (
        handle.trace().signature(),
        plane.stats.as_dict(),
        # compare parked mail by content, in order (not by msg_id)
        tuple((m.msg_type, m.src, m.dst, m.items) for m in plane.held_messages()),
    )


def run(protocol_name, injector_cls, plan, seed, spec, scheduler_cls=ChaosScheduler, **build):
    protocol = get_protocol(protocol_name)
    handle = protocol.build(
        num_readers=2 if protocol.supports_multiple_readers else 1,
        num_writers=2,
        scheduler=scheduler_cls(seed=seed),
        seed=seed,
        fault_plane=injector_cls(plan, seed=seed),
        **build,
    )
    submit_workload(handle, generate_workload(spec, handle.readers, handle.writers, handle.objects))
    handle.run()
    return handle


def both(protocol_name, plan, seed, spec, **build):
    """Run under both injectors, require the same outcome; returns the new run."""
    new = run(protocol_name, FaultInjector, plan, seed, spec, **build)
    old = run(protocol_name, ReferenceFaultInjector, plan, seed, spec, **build)
    assert outcome(new) == outcome(old)
    return new


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("plan_factory", (lossy_network, flaky_everything))
@pytest.mark.parametrize("protocol", protocol_names())
def test_lossy_runs_match_the_list_scan(protocol, plan_factory, seed):
    spec = WorkloadSpec(reads_per_reader=5, writes_per_writer=4, seed=seed)
    handle = both(protocol, plan_factory(seed=seed), seed, spec, num_objects=2)
    assert handle.simulation.fault_plane.stats.retransmissions > 0


def perf_shaped_plan(protocol, seed):
    """``benchmarks/perf``'s ``chaos_plan`` at 1/20 scale: loss, duplication,
    latency, a fail-stop, an amnesia crash and a healed partition.  Protocols
    without a coordinator group have no ``coor``; they lose a replica instead."""
    plan = workloads.chaos_plan(seed, 20)
    if protocol.has_coordinator:
        return plan, dict(consensus_factor=3, leases=True)
    fail_stop, amnesia = plan.crashes
    return replace(plan, crashes=(replace(fail_stop, server="s3.3"), amnesia)), {}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("protocol", protocol_names())
def test_perf_chaos_plan_shape_matches_the_list_scan(protocol, seed):
    plan, extra = perf_shaped_plan(get_protocol(protocol), seed)
    spec = WorkloadSpec(reads_per_reader=8, writes_per_writer=8, seed=seed)
    handle = both(
        protocol, plan, seed, spec,
        num_objects=3, replication_factor=3, quorum="majority", **extra,
    )
    plane = handle.simulation.fault_plane
    assert plane.stats.crashes == 2 and plane.stats.recoveries == 1
    assert plane.held_messages(), "the fail-stop should leave mail parked forever"


class ClockSkippingScheduler(ChaosScheduler):
    """Fast-forwards the kernel's clock by 12 every fifth choice — the public
    ``Simulation.advance_to`` a scheduler may call.  Several release times
    (and crash boundaries) then fall due in one step, which the kernel's own
    boundary-by-boundary clock never produces."""

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed=seed)
        self._choices = 0

    def choose(self, pending, kernel):
        self._choices += 1
        if self._choices % 5 == 0:
            kernel.advance_to(kernel.now() + 12)
        return super().choose(pending, kernel)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("protocol", protocol_names())
def test_mail_due_out_of_release_order_is_readmitted_in_insertion_order(protocol, seed):
    """Crash-held mail (release = the recovery, parked early) and retransmit
    timers (release = now + 10, parked later but due sooner) released by one
    clock jump: heap order and insertion order differ, and only insertion
    order reproduces the list scan's RNG draws."""
    plan = replace(
        flaky_everything(seed=seed),
        crashes=(CrashEvent("sx", at=10, recover=45), CrashEvent("sy", at=60, recover=90)),
    )
    spec = WorkloadSpec(reads_per_reader=5, writes_per_writer=4, seed=seed)
    both(protocol, plan, seed, spec, scheduler_cls=ClockSkippingScheduler, num_objects=2)


@pytest.mark.parametrize("seed", SEEDS)
def test_the_benchmark_cell_matches_the_list_scan(seed):
    """The real thing: ``build_cell`` with monitors, health and persistence."""
    new = run_chaos_cell(seed, 20)
    old = run_chaos_cell(seed, 20, injector_cls=ReferenceFaultInjector)
    assert outcome(new) == outcome(old)
    assert new.simulation.obs.registry.snapshot() == old.simulation.obs.registry.snapshot()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("protocol", protocol_names())
def test_retiring_a_replica_with_mail_parked_matches_the_list_scan(protocol, seed):
    """``on_remove`` discards from the middle of the buffer (and leaves stale
    timers behind in the indexed one): order of what remains must not move."""
    plan, reconfig = replace_dead_replica("ox", 3, seed=seed)
    dead = plan.crashes[0].server
    # loss on top, so timed records are parked around the dead replica's mail
    plan = replace(plan, drops=lossy_network().drops, retry=lossy_network().retry)
    spec = WorkloadSpec(reads_per_reader=4, writes_per_writer=3, seed=seed)
    discarded = []

    class Watching(FaultInjector):
        def on_remove(self, name, kernel):
            before = len(self.held_messages())
            super().on_remove(name, kernel)
            discarded.append(before - len(self.held_messages()))

    build = dict(num_objects=2, replication_factor=3, quorum="majority", reconfig=reconfig)
    new = run(protocol, Watching, plan, seed, spec, **build)
    old = run(protocol, ReferenceFaultInjector, plan, seed, spec, **build)
    assert outcome(new) == outcome(old)
    assert new.directory.is_retired(dead)
    assert sum(discarded) > 0, "the retirement found nothing parked: the case is not exercised"
    assert all(dead not in (m.src, m.dst) for m in new.simulation.fault_plane.held_messages())
