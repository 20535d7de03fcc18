"""The three contracts ``Simulation.run()``'s collector pause rests on.

``run()`` switches the cyclic garbage collector off while it loops.  That is
only sound — and only safe on memory — while three things hold, so each is
pinned here rather than discovered in a memory graph:

(a) *no cycles per event*: a run leaves nothing for the collector to find;
(b) *freed by reference count*: dropping the last handle frees the simulation
    (and its trace) at once, with the collector off;
(c) *``run()`` leaves the collector as it found it*, on every exit path, and
    no collection starts while it loops.
"""

from __future__ import annotations

import gc
import weakref
from contextlib import contextmanager

import pytest

from repro.analysis.workload import WorkloadSpec, generate_workload, submit_workload
from repro.faults import ChaosScheduler, FaultInjector, auto_heal, replace_dead_replica
from repro.ioa import Context, FIFOScheduler, LivenessError, Simulation
from repro.obs import InvariantViolationError, MonitorSuite, ObservabilityPlane
from repro.obs.monitor import OnlineMonitor
from repro.protocols import get_protocol, protocol_names

from tests.faults.perf_chaos_cell import workloads


@contextmanager
def collector_off():
    """Collect what earlier tests left behind, then keep the collector off."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def plain(protocol="algorithm-b", rf=1, reads=80, writes=20, **build):
    """Build ``protocol`` and submit a generated workload: 200 transactions
    by default (120 where the protocol has one reader)."""
    protocol = get_protocol(protocol)
    if rf > 1:
        build.update(replication_factor=rf, quorum="majority")
    handle = protocol.build(
        num_readers=2 if protocol.supports_multiple_readers else 1,
        num_writers=2,
        num_objects=3,
        seed=7,
        **build,
    )
    spec = WorkloadSpec(reads_per_reader=reads, writes_per_writer=writes, seed=7)
    submit_workload(handle, generate_workload(spec, handle.readers, handle.writers, handle.objects))
    return handle


def perf_cell(name, scale):
    """The first cell of a ``benchmarks/perf`` workload, divided by ``scale``:
    ``replicated-stack`` is B at rf=3/cf=3 with leases, persistence and a ring
    trace; ``chaos`` adds the fault plan, the chaos scheduler, monitors and
    health."""
    workload = workloads.WORKLOADS[name]
    cell = workload.cells[0]
    handle = workloads.build_cell(workload, cell, 7, scale, workloads.Parts())
    workloads.load_cell(handle, cell, 7, scale)
    return handle


def reconfig_and_controller():
    """A hand-authored replica replacement *and* the controller's own heal."""
    faults, reconfig = replace_dead_replica("o1", 3, crash_at=8, reconfig_at=30, seed=7)
    _, policy = auto_heal("o2", 3, crash_at=8, seed=7)
    return plain(
        rf=3,
        scheduler=ChaosScheduler(base=FIFOScheduler()),
        fault_plane=FaultInjector(faults, seed=7),
        reconfig=reconfig,
        controller=policy,
    )


def fully_observed():
    return plain(obs=ObservabilityPlane(profile=True, monitors=True, health=True))


STACKS = {
    "plain": plain,
    "replicated": lambda: perf_cell("replicated-stack", 12),
    "chaos": lambda: perf_cell("chaos", 6),
    "reconfig+controller": reconfig_and_controller,
    "profile+monitors+health": fully_observed,
}


# ----------------------------------------------------------------------
# (a) no cycles per event
# ----------------------------------------------------------------------
@pytest.mark.parametrize("rf", (1, 3))
@pytest.mark.parametrize("protocol", protocol_names())
def test_a_run_leaves_nothing_for_the_collector(protocol, rf):
    with collector_off():
        handle = plain(protocol, rf)
        handle.run_to_completion()
        assert gc.collect() == 0  # the handle is alive: only true garbage counts
        assert len(handle.transaction_records()) >= 120


@pytest.mark.parametrize("stack", ("replicated", "chaos"))
def test_a_run_on_the_benchmark_stacks_leaves_nothing_for_the_collector(stack):
    with collector_off():
        handle = STACKS[stack]()
        handle.run()
        assert gc.collect() == 0
        assert len(handle.transaction_records()) == 200
        assert sum(r.complete for r in handle.transaction_records()) >= 150


# ----------------------------------------------------------------------
# (b) freed by reference count
# ----------------------------------------------------------------------
@pytest.mark.parametrize("stack", sorted(STACKS))
def test_dropping_the_handle_frees_the_simulation_by_reference_count(stack):
    with collector_off():
        handle = STACKS[stack]()
        handle.run()
        assert handle.simulation.steps_taken > 500
        simulation = weakref.ref(handle.simulation)
        trace = weakref.ref(handle.simulation.trace)
        obs = handle.obs
        health = obs.health_view.report() if obs is not None else None
        del handle
        assert simulation() is None and trace() is None
        if obs is not None:
            assert obs.simulation is None and obs.registry.snapshot()
            assert obs.health.simulation is None
            assert obs.health_view.report() == health and health["vtime"] > 500


def test_a_plane_still_observes_exactly_one_simulation():
    plane = ObservabilityPlane(health=True)
    first = Simulation(obs=plane)
    assert plane.simulation is first and plane.health.simulation is first
    plane.on_attach(first)  # the same one again is fine
    with pytest.raises(ValueError, match="exactly one simulation"):
        Simulation(obs=plane)
    with collector_off():
        del first
        assert plane.simulation is None
    with pytest.raises(ValueError, match="exactly one simulation"):
        Simulation(obs=plane)  # its registry still holds the dead run's counts


def test_a_context_that_outlives_its_simulation_raises_reference_error():
    with collector_off():
        simulation = Simulation()
        context = Context(simulation, "r1")
        assert context.vtime == 0 and context.topology is simulation.topology
        alive = weakref.ref(simulation)
        del simulation
        assert alive() is None  # the context did not keep it
        with pytest.raises(ReferenceError):
            context.vtime
        with pytest.raises(ReferenceError):
            context.send("s1", "read-val")
        assert context.actor == "r1" and alive() is None


# ----------------------------------------------------------------------
# (c) run() leaves the collector as it found it
# ----------------------------------------------------------------------
@contextmanager
def collections_started():
    """The generations of every collection that *starts* inside the block.

    The young-generation count is zeroed first, so the few allocations between
    here and the code under test cannot trigger a pass of their own."""
    started = []

    def probe(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.collect()
    gc.callbacks.append(probe)
    try:
        yield started
    finally:
        gc.callbacks.remove(probe)


@pytest.fixture
def collector_enabled():
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


def test_run_pauses_an_enabled_collector_and_re_enables_it(collector_enabled):
    handle = plain()
    with collections_started() as started:
        handle.run()
        assert gc.isenabled()
    assert started == []  # 1400 events: dozens of young passes at the parent
    assert handle.simulation.steps_taken > 1000 and gc.get_freeze_count() == 0


def test_the_survivors_of_a_run_are_handed_to_the_oldest_generation(collector_enabled):
    handle = plain()
    handle.run()
    trace = handle.trace()
    assert all(gc.is_tracked(action) for action in trace.actions[:50])
    young_and_middle = {id(o) for generation in (0, 1) for o in gc.get_objects(generation)}
    assert not any(id(action) in young_and_middle for action in trace)


def test_a_disabled_collector_stays_disabled_and_nothing_is_handed_over():
    handle = plain()
    with collector_off():
        young = gc.get_count()[0]
        handle.run()
        assert not gc.isenabled()
        # no freeze()/unfreeze(): the young generation still holds the run
        assert gc.get_count()[0] > young + 1000


class _RunsATwin(FIFOScheduler):
    """Runs a whole other simulation from inside the first steps of a run
    (what an oracle that replays a twin per event would do)."""

    def __init__(self):
        super().__init__()
        self.enabled_after_inner_run = []

    def choose(self, pending, kernel):
        if len(self.enabled_after_inner_run) < 3:
            plain(reads=3, writes=2).run_to_completion()
            self.enabled_after_inner_run.append(gc.isenabled())
        return super().choose(pending, kernel)


def test_a_nested_run_leaves_the_outer_pause_in_place(collector_enabled):
    scheduler = _RunsATwin()
    handle = plain(scheduler=scheduler)
    with collections_started() as started:
        handle.run_to_completion()
    assert scheduler.enabled_after_inner_run == [False, False, False]
    assert started == [] and gc.isenabled()


def test_the_collector_is_restored_when_the_loop_raises(collector_enabled):
    handle = plain(max_steps=300)
    with collections_started() as started, pytest.raises(LivenessError, match="max_steps=300"):
        handle.run()
    assert started == [] and gc.isenabled() and gc.get_freeze_count() == 0

    class Tripwire(OnlineMonitor):
        name = "tripwire"

        def observe(self, action, index):
            return "tripped" if index == 300 else None

    suite = MonitorSuite(monitors=(Tripwire(),), halt_on_violation=True)
    handle = plain(obs=ObservabilityPlane(monitors=suite))
    with collections_started() as started, pytest.raises(InvariantViolationError, match="tripped"):
        handle.run()
    assert started == [] and gc.isenabled() and gc.get_freeze_count() == 0

    with collector_off():
        with pytest.raises(LivenessError):
            plain(max_steps=300).run()
        assert not gc.isenabled()


def test_budgeted_runs_in_a_loop_restore_the_collector_every_time(collector_enabled):
    handle = plain(reads=10, writes=5)
    simulation = handle.simulation
    with collections_started() as started:
        while simulation.run(max_new_steps=1) and simulation.pending_events():
            assert gc.isenabled()
    assert started == [] and not simulation.incomplete_transactions()


def test_objects_the_host_froze_stay_frozen(collector_enabled):
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert frozen > 0
        plain(reads=10, writes=5).run()  # built after the freeze: none of it is frozen
        assert gc.get_freeze_count() == frozen and gc.isenabled()
    finally:
        gc.unfreeze()


def test_a_loop_over_step_changes_no_collector_state(collector_enabled):
    handle = plain(reads=10, writes=5)
    simulation = handle.simulation
    threshold = gc.get_threshold()
    with collections_started() as started:
        while simulation.step():
            assert gc.isenabled()
    assert started  # the collector kept running: step() is not run()
    assert gc.get_threshold() == threshold and gc.get_freeze_count() == 0
    with collector_off():
        handle = plain(reads=10, writes=5)
        while handle.simulation.step():
            assert not gc.isenabled()
