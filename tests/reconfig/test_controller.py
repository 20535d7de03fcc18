"""The rebalancing controller: observe → derive → submit, no hand-authored plans.

End-to-end: a fail-stopped replica is detected by the probe loop's relative
(sibling-witness) failure detector and replaced through a derived
``ReconfigRequest`` — the group returns to full strength with availability
1.0 and zero epoch retries.  Also covered: the fault-free no-op contract,
the grow-on-latency rule, the protected-coordinator guard at
``consensus_factor=1`` (both controller- and driver-side), policy
validation, and the metrics block.
"""

from __future__ import annotations

import pytest

from repro.consensus import ADMIN_NAME, ControllerPolicy
from repro.faults import ChaosScheduler, FaultInjector, auto_heal
from repro.faults.plan import CrashEvent, FaultPlan, UniformLatency
from repro.ioa import FIFOScheduler
from repro.ioa.actions import Message
from repro.protocols import get_protocol

from tests import invariants
from tests.reconfig.conftest import final_read_values

pytestmark = pytest.mark.invariants

#: every family the self-healing grid covers (s2pl blocks on dead replicas
#: by design — giving up N is its defining property)
HEALABLE = (
    "algorithm-a",
    "algorithm-b",
    "algorithm-c",
    "occ-double-collect",
    "eiger",
    "naive-snow",
)


def run_controlled(
    protocol_name,
    plan=None,
    policy=None,
    rounds=4,
    seed=3,
    replication_factor=3,
    quorum="majority",
    obs=None,
):
    """Build with the controller installed, run a chained workload to idle."""
    protocol = get_protocol(protocol_name)
    num_readers = 1 if not protocol.supports_multiple_readers else 2
    handle = protocol.build(
        num_readers=num_readers,
        num_writers=2,
        num_objects=2,
        scheduler=ChaosScheduler(base=FIFOScheduler()),
        seed=seed,
        replication_factor=replication_factor,
        quorum=quorum,
        controller=policy if policy is not None else ControllerPolicy(),
        obs=obs,
        fault_plane=FaultInjector(plan, seed=seed) if plan is not None else None,
    )
    previous = None
    for index in range(1, rounds + 1):
        previous = handle.submit_write(
            {obj: f"v{index}-{obj}" for obj in handle.objects},
            writer=handle.writers[(index - 1) % len(handle.writers)],
            txn_id=f"W{index}",
            after=[previous] if previous else (),
        )
        handle.submit_read(
            handle.objects,
            reader=handle.readers[(index - 1) % len(handle.readers)],
            txn_id=f"R{index}",
            after=[previous],
        )
    handle.run()
    return invariants.register(handle)


def controller_events(handle, *kinds):
    return [
        dict(a.info)
        for a in handle.trace()
        if a.info and dict(a.info).get("controller") in kinds
    ]


@pytest.mark.parametrize("protocol", HEALABLE)
class TestAutoHeal:
    def run(self, protocol, seed=3):
        plan, policy = auto_heal("ox", 3, crash_at=8, seed=seed)
        return run_controlled(protocol, plan=plan, policy=policy, seed=seed)

    def test_detects_and_replaces_autonomously(self, protocol):
        handle = self.run(protocol)
        dead = controller_events(handle, "replica-dead")
        plans = controller_events(handle, "plan-replace")
        assert [e["replica"] for e in dead] == ["sx.3"]
        assert len(plans) == 1 and plans[0]["object"] == "ox"
        assert handle.directory.group("ox") == ("sx", "sx.2", "sx.4")
        assert handle.directory.is_retired("sx.3")
        assert "sx.4" in handle.simulation.servers()

    def test_full_availability_and_no_retries(self, protocol):
        handle = self.run(protocol)
        assert not handle.simulation.incomplete_transactions()
        assert final_read_values(handle, "R4") == {
            obj: f"v4-{obj}" for obj in handle.objects
        }
        assert handle.directory.retries == []

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_across_seeds(self, protocol, seed):
        handle = self.run(protocol, seed=seed)
        assert not handle.simulation.incomplete_transactions(), (protocol, seed)
        assert handle.directory.group("ox") == ("sx", "sx.2", "sx.4"), (protocol, seed)


class TestNoFalseDerivation:
    @pytest.mark.parametrize("protocol", HEALABLE)
    def test_fault_free_run_derives_nothing(self, protocol):
        handle = run_controlled(protocol)
        assert controller_events(handle, "replica-dead", "plan-replace", "plan-grow") == []
        assert handle.directory.epoch == 0
        assert not handle.simulation.incomplete_transactions()


class TestGrowOnLatency:
    def test_slow_network_grows_the_groups(self):
        plan = FaultPlan(name="slow", latency=UniformLatency(8, 16), seed=5)
        policy = ControllerPolicy(
            latency_bound=4, fail_after=2, max_actions=2
        )
        handle = run_controlled("algorithm-b", plan=plan, policy=policy, seed=5)
        grows = controller_events(handle, "plan-grow")
        assert grows, "a slow network must trigger the grow rule"
        grown_objects = {e["object"] for e in grows}
        for object_id in grown_objects:
            assert len(handle.directory.group(object_id)) > 3
        assert controller_events(handle, "replica-dead") == []

    def test_fast_network_stays_at_rf3(self):
        plan = FaultPlan(name="fastish", latency=UniformLatency(0, 2), seed=5)
        policy = ControllerPolicy(latency_bound=50, fail_after=2)
        handle = run_controlled("algorithm-b", plan=plan, policy=policy, seed=5)
        assert controller_events(handle, "plan-grow") == []
        assert handle.directory.group("ox") == ("sx", "sx.2", "sx.3")


class TestProtectedCoordinator:
    def test_dead_coordinator_is_never_replaced(self):
        """At consensus_factor=1 the designated coordinator's replica must
        not be reconfigured away by a derived change — the role does not
        migrate, and replacing the replica would strand coordinator rounds
        that could otherwise resume (e.g. after a recovery)."""
        plan = FaultPlan(
            name="dead-coordinator",
            crashes=(CrashEvent(server="sx", at=8, recover=None),),
            seed=3,
        )
        handle = run_controlled("algorithm-b", plan=plan)
        assert controller_events(handle, "plan-replace") == []
        assert "sx" in handle.directory.group("ox")
        assert not handle.directory.is_retired("sx")

    def test_driver_rejects_protected_retirement(self):
        """Defence in depth: even a direct submission retiring a protected
        name is rejected by the driver."""
        handle = run_controlled("algorithm-b")
        driver = handle.simulation.automaton(ADMIN_NAME)
        ctx = handle.simulation._contexts[ADMIN_NAME]
        before = len(driver.requests)
        driver.on_message(
            Message.make(
                "reconfig-submit",
                "reconfig-controller",
                ADMIN_NAME,
                {"kind": "replica-group", "object": "ox", "group": ("sx.2", "sx.3", "sx.4")},
            ),
            ctx,
        )
        assert len(driver.requests) == before
        rejected = [
            dict(a.info)
            for a in handle.trace()
            if a.info and dict(a.info).get("reconfig") == "rejected"
        ]
        assert rejected and rejected[-1]["protected"] == "sx"


class TestPolicyAndMetrics:
    def test_policy_validation(self):
        with pytest.raises(ValueError, match="fail_after"):
            ControllerPolicy(fail_after=0)

    def test_metrics_block(self):
        from repro.analysis import ExperimentConfig, WorkloadSpec, run_experiment

        plan, policy = auto_heal("ox", 3, crash_at=8, seed=3)
        result = run_experiment(
            ExperimentConfig(
                protocol="algorithm-b",
                scheduler="chaos",
                seed=3,
                replication_factor=3,
                quorum="majority",
                workload=WorkloadSpec(reads_per_reader=4, writes_per_writer=3, seed=3),
                faults=plan,
                controller=policy,
            )
        )
        metrics = result.metrics.controller
        assert metrics is not None
        assert metrics.probes > 0 and metrics.acks > 0
        assert metrics.dead_detected == 1
        assert metrics.plans_replace == 1 and metrics.healed == 1
        assert metrics.converged
        assert metrics.time_to_heal is not None and metrics.time_to_heal > 0
        assert metrics.as_dict()["dead_detected"] == 1
        # The reconfiguration block rides along: one joint entry + commit.
        assert result.metrics.reconfig is not None
        assert result.metrics.reconfig.epochs == 2
        assert result.metrics.reconfig.unavailability_window == 0


class TestProbeOnlyDetection:
    """The controller's detector is the probe loop alone: there is no
    health-corroborated mode to opt into, and an attached health plane is a
    passive listener."""

    def test_use_health_is_refused(self):
        with pytest.raises(TypeError, match="use_health"):
            ControllerPolicy(use_health=True)
        assert "health" not in ControllerPolicy().describe()

    def test_attached_health_plane_is_byte_identical(self):
        from repro.obs import ObservabilityPlane

        plan, policy = auto_heal("ox", 3, crash_at=8, seed=3)
        bare = run_controlled("algorithm-b", plan=plan, policy=policy)
        watched = run_controlled(
            "algorithm-b", plan=plan, policy=policy, obs=ObservabilityPlane(health=True)
        )
        assert watched.trace().signature() == bare.trace().signature()
