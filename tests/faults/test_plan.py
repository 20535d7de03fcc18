"""Unit tests for the declarative fault plans."""

from __future__ import annotations

import random

import pytest

from repro.faults import (
    BimodalLatency,
    CrashEvent,
    DropPolicy,
    DuplicatePolicy,
    FaultPlan,
    FixedLatency,
    Partition,
    RetryPolicy,
    UniformLatency,
    standard_fault_scenarios,
)


class TestLatencyModels:
    def test_fixed_latency_is_constant(self):
        rng = random.Random(0)
        assert [FixedLatency(3).sample(rng) for _ in range(5)] == [3, 3, 3, 3, 3]

    def test_uniform_latency_stays_in_range(self):
        rng = random.Random(1)
        model = UniformLatency(2, 6)
        samples = [model.sample(rng) for _ in range(200)]
        assert min(samples) >= 2 and max(samples) <= 6

    def test_uniform_latency_rejects_bad_range(self):
        with pytest.raises(ValueError):
            UniformLatency(5, 2)

    def test_bimodal_latency_hits_both_modes(self):
        rng = random.Random(2)
        model = BimodalLatency(fast=1, slow=20, slow_probability=0.5)
        samples = {model.sample(rng) for _ in range(100)}
        assert samples == {1, 20}

    def test_bimodal_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            BimodalLatency(slow_probability=1.5)

    def test_latency_sampling_is_deterministic_in_seed(self):
        model = UniformLatency(0, 10)
        a = [model.sample(random.Random(7)) for _ in range(1)]
        b = [model.sample(random.Random(7)) for _ in range(1)]
        assert a == b


class TestPolicies:
    def test_drop_policy_validates_probability(self):
        with pytest.raises(ValueError):
            DropPolicy(probability=-0.1)
        with pytest.raises(ValueError):
            DropPolicy(probability=0.5, max_consecutive=0)

    def test_duplicate_policy_validates_probability(self):
        with pytest.raises(ValueError):
            DuplicatePolicy(probability=2.0)

    def test_retry_policy_validates(self):
        with pytest.raises(ValueError):
            RetryPolicy(timeout_steps=0)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


class TestPartition:
    def test_window_semantics(self):
        p = Partition(left=("r1",), right=("sx",), start=5, heal=10)
        assert not p.active(4)
        assert p.active(5) and p.active(9)
        assert not p.active(10)

    def test_blocks_both_directions_only_across_the_cut(self):
        p = Partition(left=("r1",), right=("sx",), start=0, heal=10)
        assert p.blocks("r1", "sx", 3) and p.blocks("sx", "r1", 3)
        assert not p.blocks("r1", "sy", 3)
        assert not p.blocks("r1", "sx", 11)

    def test_permanent_partition(self):
        p = Partition(left=("r1",), right=("sx",), start=2, heal=None)
        assert p.active(10_000)

    def test_sides_must_be_disjoint(self):
        with pytest.raises(ValueError):
            Partition(left=("a", "b"), right=("b",))

    def test_heal_must_follow_start(self):
        with pytest.raises(ValueError):
            Partition(left=("a",), right=("b",), start=5, heal=5)


class TestCrashEvent:
    def test_crash_window(self):
        c = CrashEvent(server="sx", at=3, recover=8)
        assert not c.crashed(2)
        assert c.crashed(3) and c.crashed(7)
        assert not c.crashed(8)

    def test_fail_stop_never_recovers(self):
        assert CrashEvent(server="sx", at=0, recover=None).crashed(10**9)

    def test_recover_must_follow_crash(self):
        with pytest.raises(ValueError):
            CrashEvent(server="sx", at=5, recover=5)


class TestFaultPlan:
    def test_none_is_inert(self):
        plan = FaultPlan.none()
        assert plan.is_inert()
        assert not plan.needs_retry()
        assert "reliable" in plan.describe()

    def test_any_fault_breaks_inertness(self):
        assert not FaultPlan(drops=DropPolicy(0.1)).is_inert()
        assert not FaultPlan(latency=FixedLatency(1)).is_inert()
        assert not FaultPlan(crashes=(CrashEvent(server="sx"),)).is_inert()
        assert not FaultPlan(partitions=(Partition(left=("a",), right=("b",)),)).is_inert()

    def test_needs_retry_tracks_lossy_features(self):
        assert FaultPlan(drops=DropPolicy(0.1)).needs_retry()
        assert FaultPlan(crashes=(CrashEvent(server="sx"),)).needs_retry()
        assert not FaultPlan(latency=FixedLatency(2)).needs_retry()

    def test_with_seed(self):
        plan = FaultPlan(drops=DropPolicy(0.2), seed=0)
        assert plan.with_seed(9).seed == 9
        assert plan.seed == 0  # frozen original untouched

    def test_describe_mentions_every_component(self):
        plan = FaultPlan(
            name="kitchen-sink",
            latency=UniformLatency(0, 3),
            drops=DropPolicy(0.1),
            duplicates=DuplicatePolicy(0.1),
            partitions=(Partition(left=("r1",), right=("sx",), start=1, heal=2),),
            crashes=(CrashEvent(server="sx", at=1, recover=2),),
            retry=RetryPolicy(),
        )
        text = plan.describe()
        for needle in ("kitchen-sink", "uniform", "drop", "duplicate", "partition", "crash", "retry"):
            assert needle in text

    def test_every_latency_model_describes_itself(self):
        assert FixedLatency(3).describe() == "fixed(3)"
        assert BimodalLatency(fast=1, slow=9, slow_probability=0.25).describe() == "bimodal(fast=1, slow=9@0.25)"


class TestScenarios:
    def test_standard_grid_has_baseline_and_faults(self):
        scenarios = standard_fault_scenarios(seed=4, crash_server="sx")
        assert "none" in scenarios and scenarios["none"].is_inert()
        assert len(scenarios) >= 5
        # every non-baseline scenario actually perturbs something
        assert all(not plan.is_inert() for name, plan in scenarios.items() if name != "none")

    def test_crash_scenario_targets_requested_server(self):
        scenarios = standard_fault_scenarios(seed=0, crash_server="s9")
        assert scenarios["crash-recover"].crashes[0].server == "s9"

    def test_a_given_partition_adds_a_healing_scenario(self):
        partition = Partition(left=("r1",), right=("sx",), start=5, heal=40)
        scenarios = standard_fault_scenarios(seed=2, partition=partition)
        assert scenarios["partition-heal"] == FaultPlan(name="partition-heal", partitions=(partition,), seed=2)
        assert "partition-heal" not in standard_fault_scenarios(seed=2)

    def test_lossy_scenarios_carry_a_retry_policy(self):
        scenarios = standard_fault_scenarios(seed=0)
        assert scenarios["lossy"].retry is not None
        assert scenarios["crash-recover"].retry is not None
