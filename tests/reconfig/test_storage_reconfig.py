"""End-to-end replica-group reconfiguration under live traffic.

The headline scenarios of the reconfiguration layer, run through real
protocol executions with the shared invariant checker applied automatically:
replace a dead replica (availability 1.0, unavailability window 0), grow a
group rf 3 → 5 (state transfer before commit), shrink a group, and the
epoch-mismatch retry path when a client catches a retired replica.
"""

from __future__ import annotations

import pytest

from repro.consensus.reconfig import ReconfigPlan, set_replica_group
from repro.faults import CrashEvent, FaultPlan, grow_group_mid_run, replace_dead_replica
from repro.protocols import get_protocol

from tests.reconfig.conftest import final_read_values, run_reconfig_workload

RECONFIG_PROTOCOLS = ("algorithm-a", "algorithm-b")

pytestmark = pytest.mark.invariants


@pytest.mark.parametrize("protocol", RECONFIG_PROTOCOLS)
class TestReplaceDeadReplica:
    def run(self, protocol, seed=3):
        plan, reconfig = replace_dead_replica("ox", 3, crash_at=8, reconfig_at=30, seed=seed)
        return run_reconfig_workload(
            protocol, reconfig=reconfig, plan=plan, rounds=4, seed=seed,
            run_to_completion=False,
        )

    def test_full_availability_and_final_values(self, protocol):
        handle = self.run(protocol)
        assert not handle.simulation.incomplete_transactions()
        assert final_read_values(handle, "R4") == {
            obj: f"v4-{obj}" for obj in handle.objects
        }

    def test_dead_replica_replaced_and_removed(self, protocol):
        handle = self.run(protocol)
        servers = set(handle.simulation.servers())
        assert "sx.3" not in servers
        assert "sx.4" in servers
        assert handle.directory.group("ox") == ("sx", "sx.2", "sx.4")
        assert handle.directory.is_retired("sx.3")

    def test_replacement_synced_before_commit(self, protocol):
        handle = self.run(protocol)
        assert handle.directory.transfer_volume() >= 1
        replacement = handle.simulation.automaton("sx.4")
        # The new replica holds every version installed before the change.
        keys = {k.describe() if hasattr(k, "describe") else k for k in replacement.store.keys()}
        assert len(keys) >= 2

    def test_verdicts_unchanged_and_consistent(self, protocol):
        handle = self.run(protocol)
        baseline = run_reconfig_workload(protocol, rounds=4, run_to_completion=False)
        assert not baseline.simulation.incomplete_transactions()
        assert (
            handle.snow_report().property_string()
            == baseline.snow_report().property_string()
        )
        assert handle.serializability().ok
        assert handle.lemma20().ok

    def test_no_epoch_retries_needed(self, protocol):
        """Replacing a *dead* replica never blocks a live round: the retained
        majority serves every quorum, so the unavailability window is 0."""
        handle = self.run(protocol)
        assert handle.directory.retries == []

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_across_seeds(self, protocol, seed):
        handle = self.run(protocol, seed=seed)
        assert not handle.simulation.incomplete_transactions(), (protocol, seed)
        assert handle.serializability().ok, (protocol, seed)


@pytest.mark.parametrize("protocol", RECONFIG_PROTOCOLS)
class TestGrowAndShrink:
    def test_grow_rf3_to_5(self, protocol):
        _, reconfig = grow_group_mid_run("ox", 3, to_factor=5, at=20)
        handle = run_reconfig_workload(protocol, reconfig=reconfig, rounds=4)
        assert handle.directory.group("ox") == ("sx", "sx.2", "sx.3", "sx.4", "sx.5")
        assert {"sx.4", "sx.5"} <= set(handle.simulation.servers())
        # Both added replicas synced state before the commit.
        assert len(handle.directory.transfers) == 2
        assert final_read_values(handle, "R4")["ox"] == "v4-ox"
        assert handle.serializability().ok

    def test_shrink_rf3_to_2(self, protocol):
        reconfig = ReconfigPlan(
            name="shrink",
            requests=(set_replica_group("ox", ("sx", "sx.2"), at=20),),
        )
        handle = run_reconfig_workload(protocol, reconfig=reconfig, rounds=4)
        assert handle.directory.group("ox") == ("sx", "sx.2")
        assert "sx.3" not in handle.simulation.servers()
        # Pure shrink: nothing to sync, the change commits immediately.
        assert handle.directory.transfers == []
        assert final_read_values(handle, "R4")["ox"] == "v4-ox"
        assert handle.serializability().ok

    def test_noop_change_is_recorded_and_free(self, protocol):
        reconfig = ReconfigPlan(
            name="noop",
            requests=(set_replica_group("ox", ("sx", "sx.2", "sx.3"), at=20),),
        )
        handle = run_reconfig_workload(protocol, reconfig=reconfig, rounds=2)
        assert handle.directory.epoch == 0
        noops = [
            dict(a.info)
            for a in handle.trace()
            if a.info and dict(a.info).get("reconfig") == "noop"
        ]
        assert len(noops) == 1

    def test_shrink_then_grow_back_unretires_the_name(self, protocol):
        """Regression: a replica name removed by one change and re-added by
        a later one must serve again — it used to stay in the directory's
        retired set forever and answer every request with epoch-mismatch
        until the round exhausted its retries."""
        reconfig = ReconfigPlan(
            name="shrink-then-grow-back",
            requests=(
                set_replica_group("ox", ("sx", "sx.2"), at=5),
                set_replica_group("ox", ("sx", "sx.2", "sx.3"), at=120),
            ),
        )
        handle = run_reconfig_workload(protocol, reconfig=reconfig, rounds=6)
        assert handle.directory.group("ox") == ("sx", "sx.2", "sx.3")
        assert not handle.directory.is_retired("sx.3")
        assert "sx.3" in handle.simulation.servers()
        assert final_read_values(handle, "R6")["ox"] == "v6-ox"
        assert handle.serializability().ok

    def test_two_sequential_changes(self, protocol):
        """grow then shrink back: the second change defers until the first
        commits (at-most-one-in-flight), then runs to completion."""
        reconfig = ReconfigPlan(
            name="grow-then-shrink",
            requests=(
                set_replica_group("ox", ("sx", "sx.2", "sx.3", "sx.4"), at=15),
                set_replica_group("ox", ("sx", "sx.2", "sx.3"), at=16),
            ),
        )
        handle = run_reconfig_workload(protocol, reconfig=reconfig, rounds=5)
        assert handle.directory.group("ox") == ("sx", "sx.2", "sx.3")
        assert handle.directory.epoch == 4  # two joint entries + two commits
        assert final_read_values(handle, "R5")["ox"] == "v5-ox"


class TestGuardsAndFailover:
    def test_retiring_the_designated_coordinator_is_rejected(self):
        """At consensus_factor=1 the coordinator is the first object's
        primary; a replica-group change that would retire it must fail at
        validation, not strand coordinator rounds mid-run."""
        reconfig = ReconfigPlan(
            requests=(set_replica_group("ox", ("sx.2", "sx.3", "sx.4"), at=10),)
        )
        with pytest.raises(ValueError, match="designated coordinator"):
            get_protocol("algorithm-b").build(
                num_readers=2,
                num_writers=2,
                num_objects=2,
                replication_factor=3,
                quorum="majority",
                reconfig=reconfig,
            )

    def test_replacing_primary_allowed_without_coordinator(self):
        """Algorithm A has no coordinator, so even the primary replica may
        be reconfigured away."""
        reconfig = ReconfigPlan(
            requests=(set_replica_group("ox", ("sx.2", "sx.3", "sx.4"), at=20),)
        )
        handle = run_reconfig_workload("algorithm-a", reconfig=reconfig, rounds=4)
        assert handle.directory.group("ox") == ("sx.2", "sx.3", "sx.4")
        assert "sx" not in handle.simulation.servers()
        assert final_read_values(handle, "R4")["ox"] == "v4-ox"

    def test_sync_fails_over_when_the_first_source_is_dead(self):
        """The preferred state-transfer source (the first retained replica)
        is fail-stopped: the sync timer rotates to the next retained
        replica and the change still commits."""
        plan = FaultPlan(
            name="dead-source",
            crashes=(CrashEvent(server="sx", at=5, recover=None),),
            seed=3,
        )
        reconfig = ReconfigPlan(
            name="replace-under-dead-source",
            requests=(set_replica_group("ox", ("sx", "sx.2", "sx.4"), at=30),),
        )
        handle = run_reconfig_workload(
            "algorithm-a",
            reconfig=reconfig,
            plan=plan,
            rounds=4,
            run_to_completion=False,
        )
        assert handle.directory.group("ox") == ("sx", "sx.2", "sx.4")
        assert not handle.directory.in_flight()
        assert handle.directory.transfer_volume() >= 1
        retries = [
            dict(a.info)
            for a in handle.trace()
            if a.info and dict(a.info).get("reconfig") == "sync-done"
        ]
        assert retries and retries[0]["replica"] == "sx.4"


class TestEpochMismatchRetry:
    def test_retired_replica_answers_epoch_mismatch(self):
        """A request addressed to a retired replica is answered with
        epoch-mismatch instead of data (checked at the automaton level)."""
        _, reconfig = grow_group_mid_run("ox", 3, to_factor=4, at=10)
        handle = run_reconfig_workload("algorithm-b", reconfig=reconfig, rounds=3)
        server = handle.simulation.automaton("sx")
        server.directory.retired.add("sx")
        ctx = handle.simulation._contexts["sx"]
        from repro.ioa.actions import Message

        server.on_message(
            Message.make("read-val", "r1", "sx", {"txn": "RX", "key": None, "attempt": 9}),
            ctx,
        )
        reply = handle.simulation.pending_deliveries()[-1].message
        assert reply.msg_type == "epoch-mismatch"
        assert reply.get("txn") == "RX"
        assert reply.get("attempt") == 9
        assert reply.get("epoch") == handle.directory.epoch
        server.directory.retired.discard("sx")

    def test_rounds_tag_epoch_and_attempt(self):
        _, reconfig = grow_group_mid_run("ox", 3, to_factor=4, at=10)
        handle = run_reconfig_workload("algorithm-b", reconfig=reconfig, rounds=3)
        tagged = [
            a.message
            for a in handle.trace()
            if a.message is not None
            and a.message.msg_type in ("write-val", "read-val")
            and a.message.get("epoch") is not None
        ]
        assert tagged, "epoch-aware rounds must stamp requests"
        assert all(m.get("attempt") == 1 for m in tagged)



#: every family whose quorum rounds absorb a fail-stopped replica
QUORUM_FAMILIES = RECONFIG_PROTOCOLS + (
    "algorithm-c", "occ-double-collect", "eiger", "naive-snow", "simple-rw",
)
#: the two objects' groups at replication factor 3
GROUPS = {"ox": ("sx", "sx.2", "sx.3"), "oy": ("sy", "sy.2", "sy.3")}


@pytest.mark.parametrize("object_id, dead", [("ox", "sx.2"), ("oy", "sy.3")])
@pytest.mark.parametrize("protocol", QUORUM_FAMILIES)
def test_any_dead_member_of_any_group_is_replaced(protocol, object_id, dead):
    """A hand-authored swap is not tied to ``replace_dead_replica``'s choice
    of the first object's last replica: a dead middle member, or a member of
    another object's group, is replaced the same way — the change commits,
    the other group is untouched, no round retries, every read completes."""
    group = GROUPS[object_id]
    new_group = tuple(s for s in group if s != dead) + (f"{group[0]}.4",)
    plan = FaultPlan(
        name="dead-member",
        crashes=(CrashEvent(server=dead, at=8, recover=None),),
        seed=3,
    )
    reconfig = ReconfigPlan(
        name="replace-dead-member",
        requests=(set_replica_group(object_id, new_group, at=30),),
    )
    handle = run_reconfig_workload(
        protocol, reconfig=reconfig, plan=plan, rounds=4, run_to_completion=False
    )
    assert not handle.simulation.incomplete_transactions()
    assert handle.directory.group(object_id) == new_group
    assert handle.directory.is_retired(dead)
    assert dead not in handle.simulation.servers()
    assert handle.directory.transfer_volume() >= 1
    for other, members in GROUPS.items():
        if other != object_id:
            assert handle.directory.group(other) == members
    assert handle.directory.retries == []
    assert final_read_values(handle, "R4") == {obj: f"v4-{obj}" for obj in handle.objects}
