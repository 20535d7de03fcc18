"""The kernel offers a scheduler only ripe events.

In the paper's I/O-automaton model the adversary chooses among *enabled*
events.  Under a latency model a delivery is enabled once the run's one
virtual clock (``Simulation.now()``) has reached its ``ready_at`` stamp, and a
timer once the clock has reached its own.  The kernel decides that, not the
scheduler: every scheduler, whatever its policy, is offered the ripe events
only, and when nothing is ripe the kernel moves the clock to the next arrival,
timer or fault-plane boundary before it asks.
"""

from __future__ import annotations

import pytest

from repro.analysis import ExperimentConfig, WorkloadSpec, run_experiment
from repro.analysis.workload import generate_workload, submit_workload
from repro.faults import ChaosScheduler, FaultInjector, FaultPlan, FixedLatency, UniformLatency
from repro.ioa import FIFOScheduler, Message, ServerAutomaton, Simulation, SimulationError
from repro.ioa.network import FaultPlane
from repro.ioa.scheduler import (
    AdversarialScheduler,
    LIFOScheduler,
    PriorityScheduler,
    RandomScheduler,
)
from repro.protocols import get_protocol

POLICIES = {
    "fifo": (FIFOScheduler, {}),
    "lifo": (LIFOScheduler, {}),
    "random": (RandomScheduler, {"seed": 5}),
    "priority": (PriorityScheduler, {"key": lambda event: -event.enqueued_at}),
    "adversarial": (AdversarialScheduler, {}),
    "chaos": (ChaosScheduler, {"seed": 5}),
}


def counting(policy):
    """The scheduler named ``policy``, answering through a ``choose``-only
    subclass that counts the offered events whose stamp the clock has not
    reached."""
    base, kwargs = POLICIES[policy]

    class Counting(base):
        offered = unripe = 0

        def choose(self, pending, kernel):
            self.offered += len(pending)
            self.unripe += sum(getattr(e, "ready_at", 0) > kernel.now() for e in pending)
            return super().choose(pending, kernel)

    return Counting(**kwargs)


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_a_scheduler_is_offered_only_ripe_events(policy):
    scheduler = counting(policy)
    plane = FaultInjector(FaultPlan(latency=UniformLatency(0, 6), seed=5), seed=5)
    handle = get_protocol("algorithm-b").build(
        num_readers=2, num_writers=2, num_objects=2, scheduler=scheduler, seed=5, fault_plane=plane
    )
    spec = WorkloadSpec(reads_per_reader=3, writes_per_writer=3, seed=5)
    submit_workload(handle, generate_workload(spec, handle.readers, handle.writers, handle.objects))
    handle.run_to_completion()
    assert scheduler.offered > handle.simulation.steps_taken > 40
    assert scheduler.unripe == 0


class Sink(ServerAutomaton):
    def on_message(self, message, ctx):
        pass


def test_without_a_plane_the_kernel_moves_the_clock_to_an_unripe_delivery():
    simulation = Simulation(scheduler=FIFOScheduler())
    simulation.add_automaton(Sink("s1"))
    simulation.enqueue_delivery(Message.make("m", "c1", "s1"), ready_at=50)
    assert simulation.pending_events() == []
    assert simulation.step()
    assert simulation.pending_deliveries() == ()
    assert simulation.now() == 50
    assert not simulation.step()


def test_a_plane_naming_a_boundary_that_is_not_ahead_fails_loudly():
    """``on_idle`` names a boundary strictly after now; one that does not
    (here the old ``bool`` answer, read as boundary 0) would stall the
    kernel's walk forever, so it raises instead."""

    class Stale(FaultPlane):
        def on_idle(self, kernel):
            return False

    simulation = Simulation(scheduler=FIFOScheduler(), fault_plane=Stale())
    simulation.add_automaton(Sink("s1"))
    with pytest.raises(SimulationError, match="not after now"):
        simulation.step()


def test_a_latency_plan_runs_under_any_named_scheduler():
    config = ExperimentConfig(
        protocol="simple-rw",
        num_readers=2,
        num_writers=2,
        num_objects=2,
        workload=WorkloadSpec(reads_per_reader=4, writes_per_writer=2, read_size=2, write_size=2, seed=5),
        scheduler="fifo",
        seed=5,
        faults=FaultPlan(name="slow", latency=FixedLatency(40)),
    )
    faults = run_experiment(config).metrics.faults
    assert faults.read_completed == faults.read_submitted > 0
    # a READ is one round trip: two 40-step hops
    assert faults.read_latency_virtual.count == faults.read_completed
    assert faults.read_latency_virtual.minimum >= 80
