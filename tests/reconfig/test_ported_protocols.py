"""Universal reconfiguration: the ported protocol families under live changes.

PR 4 made algorithms A and B epoch-aware; this suite covers the port of the
*remaining* families — algorithm C's combined read-values-and-tags round,
OCC's collect/install rounds, Eiger's two-round rich reads, the naive
baselines and the strict-2PL baseline — through the same headline scenarios:
replace a dead replica (quorum families: availability 1.0, zero epoch
retries), grow a group with state transfer before commit, and the
epoch-mismatch restart paths.  The shared invariant checker is applied to
every run by the suite's autouse fixture.
"""

from __future__ import annotations

import pytest

from repro.analysis.workload import WorkloadSpec, generate_workload, submit_workload
from repro.consensus.reconfig import ReconfigPlan, set_consensus_group, set_replica_group
from repro.faults import (
    ChaosScheduler,
    FaultInjector,
    FaultPlan,
    UniformLatency,
    grow_group_mid_run,
    replace_dead_replica,
)
from repro.ioa import RandomScheduler
from repro.protocols import get_protocol

from tests import invariants
from tests.reconfig.conftest import final_read_values, run_reconfig_workload

#: the families ported in this PR whose quorum rounds absorb a dead replica
QUORUM_PORTED = ("algorithm-c", "occ-double-collect", "eiger", "naive-snow", "simple-rw")
#: the ported families whose executions are strictly serializable
SERIALIZABLE_PORTED = ("algorithm-c", "occ-double-collect")
#: every family ported in this PR (s2pl handles live changes only; a *dead*
#: replica blocks its lock rounds — giving up N is its defining property)
ALL_PORTED = QUORUM_PORTED + ("s2pl",)

pytestmark = pytest.mark.invariants


@pytest.mark.parametrize("protocol", QUORUM_PORTED)
class TestReplaceDeadReplicaPorted:
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

    def test_no_epoch_retries_needed(self, protocol):
        """Replacing a *dead* replica never blocks a live round: the retained
        majority serves every quorum, so the unavailability window is 0."""
        handle = self.run(protocol)
        assert handle.directory.retries == []

    def test_verdicts_unchanged(self, protocol):
        handle = self.run(protocol)
        baseline = run_reconfig_workload(protocol, rounds=4, run_to_completion=False)
        assert not baseline.simulation.incomplete_transactions()
        assert (
            handle.snow_report().property_string()
            == baseline.snow_report().property_string()
        )
        if protocol in SERIALIZABLE_PORTED:
            assert handle.serializability().ok
        if protocol == "algorithm-c":
            # The one ported family that reports Lemma-20 tags.
            assert handle.lemma20().ok

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_across_seeds(self, protocol, seed):
        handle = self.run(protocol, seed=seed)
        assert not handle.simulation.incomplete_transactions(), (protocol, seed)
        if protocol in SERIALIZABLE_PORTED:
            assert handle.serializability().ok, (protocol, seed)


@pytest.mark.parametrize("protocol", ALL_PORTED)
class TestGrowAndShrinkPorted:
    def test_grow_rf3_to_5(self, protocol):
        _, reconfig = grow_group_mid_run("ox", 3, to_factor=5, at=20)
        handle = run_reconfig_workload(protocol, reconfig=reconfig, rounds=4)
        assert handle.directory.group("ox") == ("sx", "sx.2", "sx.3", "sx.4", "sx.5")
        assert {"sx.4", "sx.5"} <= set(handle.simulation.servers())
        # Both added replicas synced state before the commit.
        assert len(handle.directory.transfers) == 2
        assert final_read_values(handle, "R4")["ox"] == "v4-ox"
        if protocol in SERIALIZABLE_PORTED or protocol == "s2pl":
            assert handle.serializability().ok

    def test_shrink_rf3_to_2(self, protocol):
        reconfig = ReconfigPlan(
            name="shrink",
            requests=(set_replica_group("ox", ("sx", "sx.2"), at=20),),
        )
        handle = run_reconfig_workload(protocol, reconfig=reconfig, rounds=4)
        assert handle.directory.group("ox") == ("sx", "sx.2")
        assert "sx.3" not in handle.simulation.servers()
        assert final_read_values(handle, "R4")["ox"] == "v4-ox"


class TestEpochStamping:
    """The ported rounds stamp requests with epoch+attempt once a directory
    is installed (and only then — the golden suite pins the absence)."""

    REQUEST_TYPES = {
        "algorithm-c": ("read-vals", "write-val"),
        "occ-double-collect": ("collect", "install"),
        "eiger": ("eiger-read", "eiger-write"),
        "naive-snow": ("read-latest", "write-val"),
        "s2pl": ("lock-read", "lock-write", "commit-write"),
    }

    @pytest.mark.parametrize("protocol", sorted(REQUEST_TYPES))
    def test_requests_carry_attempt(self, protocol):
        _, reconfig = grow_group_mid_run("ox", 3, to_factor=4, at=10)
        handle = run_reconfig_workload(protocol, reconfig=reconfig, rounds=3)
        wanted = self.REQUEST_TYPES[protocol]
        tagged = [
            a.message
            for a in handle.trace()
            if a.message is not None
            and a.message.msg_type in wanted
            and a.message.get("attempt") is not None
        ]
        assert tagged, f"{protocol}: epoch-aware rounds must stamp requests"


class TestS2plLiveChanges:
    """The blocking baseline's reconfiguration contract: *live* membership
    changes work (retired replicas bounce lock requests with epoch-mismatch
    and the transaction restarts); a fail-stopped replica still blocks lock
    acquisition — the N property it gives up by design."""

    def test_replace_live_replica(self):
        reconfig = ReconfigPlan(
            name="live-replace",
            requests=(set_replica_group("ox", ("sx", "sx.2", "sx.4"), at=20),),
        )
        handle = run_reconfig_workload("s2pl", reconfig=reconfig, rounds=4)
        assert handle.directory.group("ox") == ("sx", "sx.2", "sx.4")
        assert "sx.3" not in handle.simulation.servers()
        assert final_read_values(handle, "R4")["ox"] == "v4-ox"
        assert handle.serializability().ok

    def test_retiring_replica_bounces_the_lock_requests_it_queued(self):
        """W1 restarts when the swap begins; its second lock request reaches
        ``sx`` before the first attempt's unlock does, so it queues behind
        W1's own lock.  The swap then retires ``sx``, and the unlock that
        arrives next proves ``sx`` is still addressed: the retirement flush
        bounces the queued request with an epoch mismatch.  Without the flush
        nothing would ever answer it, and W1 would wait forever."""
        handle = run_reconfig_workload(
            "s2pl",
            reconfig=ReconfigPlan(name="swap", requests=(set_replica_group("ox", ("sx.2", "sx.3", "sx.4"), at=8),)),
            rounds=4,
            seed=1,
            scheduler=ChaosScheduler(base=RandomScheduler(seed=1), seed=1),
        )
        at_sx = [
            (a.kind.value, a.message.msg_type, a.message.get("attempt"))
            for a in handle.trace()
            if a.actor == "sx" and a.message is not None and a.message.get("txn") == "W1"
        ]
        assert at_sx == [
            ("recv", "lock-write", 1),
            ("send", "lock-write-granted", 1),
            ("recv", "lock-write", 2),  # queued: W1's first attempt still holds the lock
            ("recv", "unlock-write", 1),  # sx has retired by now
            ("send", "epoch-mismatch", 1),
            ("send", "epoch-mismatch", 2),  # the flush answers the queued request
        ]
        assert handle.serializability().ok

    def test_a_read_restarts_when_its_first_lock_meets_a_retired_replica(self):
        """R1's first lock request reaches ``sx`` after the swap retired it:
        ``sx`` answers with an epoch mismatch, R1 gives up its first
        attempt (it holds no lock yet) and locks every replica of the new
        groups in its second.  Every transaction completes."""
        handle = run_reconfig_workload(
            "s2pl",
            reconfig=ReconfigPlan(name="swap", requests=(set_replica_group("ox", ("sx.2", "sx.3", "sx.4"), at=12),)),
            scheduler=ChaosScheduler(base=RandomScheduler(seed=9), seed=9),
        )
        at_r1 = [
            (a.kind.value, a.get("reconfig"))
            if a.message is None
            else (a.kind.value, a.message.msg_type, a.message.src if a.kind.value == "recv" else a.message.dst,
                  a.message.get("attempt"))
            for a in handle.trace()
            if a.actor == "r1" and a.get("txn") == "R1"
        ]
        assert at_r1[:5] == [
            ("invoke", None),
            ("send", "lock-read", "sx", 1),
            ("recv", "epoch-mismatch", "sx", 1),
            ("internal", "epoch-retry"),
            ("send", "lock-read", "sx.2", 2),
        ]
        locked = [row[2] for row in at_r1[4:] if row[1] == "lock-read"]
        assert locked == ["sx.2", "sx.3", "sx.4", "sy", "sy.2", "sy.3"]
        assert handle.simulation.incomplete_transactions() == ()
        assert handle.serializability().ok

    @pytest.mark.parametrize(
        "seed",
        [
            pytest.param(59, id="W2-holds-sx-R1-queued"),
            pytest.param(50, id="R1-holds-sx-W2-queued"),
        ],
    )
    def test_retiring_replica_bounces_its_queue_when_no_message_reaches_it(self, seed):
        """The swap commits while ``sx`` holds one client's lock with another's
        request queued behind it, and no later message ever reaches ``sx``:
        the holder finishes on the new group without it.  Removing ``sx``
        then would leave the queued client waiting forever, so ``sx``
        bounces its queue with an epoch mismatch as the driver retires it."""
        handle = run_reconfig_workload(
            "s2pl",
            reconfig=ReconfigPlan(requests=(set_replica_group("ox", ("sx.2", "sx.3", "sx.4"), at=24),)),
            plan=FaultPlan(latency=UniformLatency(0, 3), seed=seed),
            rounds=4,
            seed=seed,
            scheduler=ChaosScheduler(base=RandomScheduler(seed=seed), seed=seed),
            run_to_completion=False,
        )
        assert "sx" not in handle.simulation.servers()
        assert handle.simulation.incomplete_transactions() == ()
        assert len(handle.transaction_records()) == 8
        assert handle.serializability().ok

    def test_a_read_restarts_when_a_replica_it_locked_retires(self):
        """R1 read-locks ``sx`` (v1) under the joint configuration; the swap
        commits and retires ``sx``; W2 then locks and commits ``sx.2``,
        ``sx.3`` and ``sx.4`` without touching ``sx``, and R1 locks those
        three (v2).  Returning ``ox`` from ``sx``, its first grant, beside
        ``oy='v2-oy'`` would be a value no serial order explains: a lock on
        a retired replica no longer excludes the new group's writers, so R1
        restarts its attempt instead."""
        handle = run_reconfig_workload(
            "s2pl",
            reconfig=ReconfigPlan(requests=(set_replica_group("ox", ("sx.2", "sx.3", "sx.4"), at=12),)),
            rounds=4,
            scheduler=ChaosScheduler(base=RandomScheduler(seed=64), seed=64),
            run_to_completion=False,
        )
        assert handle.simulation.incomplete_transactions() == ()
        assert final_read_values(handle, "R1") in ({"ox": "v1-ox", "oy": "v1-oy"}, {"ox": "v2-ox", "oy": "v2-oy"})
        assert any(a.get("reconfig") == "epoch-retry" and a.get("txn") == "R1" for a in handle.trace())
        assert handle.serializability().ok


class TestEigerRound2Restart:
    """An Eiger READ whose round 1 saw a stale interval asks the replica it
    chose for the version valid at the effective time.  When the swap
    retires that replica between the rounds, the READ restarts from round 1
    instead of waiting on a replica that is gone."""

    @staticmethod
    def run(seed, at):
        handle = get_protocol("eiger").build(
            num_readers=2,
            num_writers=2,
            num_objects=2,
            replication_factor=3,
            quorum="majority",
            reconfig=ReconfigPlan(requests=(set_replica_group("ox", ("sx", "sx.2", "sx.4"), at=at),)),
            fault_plane=FaultInjector(FaultPlan(latency=UniformLatency(0, 8), seed=seed), seed=seed),
            scheduler=ChaosScheduler(base=RandomScheduler(seed=seed), seed=seed),
        )
        spec = WorkloadSpec(6, 6, 2, 2, 0.0, seed)
        submit_workload(handle, generate_workload(spec, handle.readers, handle.writers, handle.objects))
        handle.run()
        invariants.register(handle)
        assert not handle.simulation.incomplete_transactions()
        return handle

    @staticmethod
    def at_reader(handle, txn):
        return [
            a.message.msg_type if a.message is not None else a.get("reconfig")
            for a in handle.trace()
            if a.actor == "r2" and a.get("txn") == txn and a.kind.value in ("send", "internal")
        ]

    def test_the_chosen_replica_retired_before_round_2_was_sent(self):
        handle = self.run(seed=3, at=20)
        steps = self.at_reader(handle, "R8")
        retry = steps.index("epoch-retry")
        assert set(steps[:retry]) == set(steps[retry + 1:]) == {"eiger-read"}
        assert "sx.3" in handle.directory.retired

    def test_the_chosen_replica_retired_with_round_2_in_flight(self):
        handle = self.run(seed=0, at=10)
        steps = self.at_reader(handle, "R7")
        retry = steps.index("epoch-retry")
        assert "eiger-read-at" in steps[:retry]
        mismatches = [
            a for a in handle.trace()
            if a.kind.value == "send" and a.actor == "sx.3" and a.message.msg_type == "epoch-mismatch"
        ]
        assert [m.message.get("txn") for m in mismatches] == ["R7"]


class TestPortedConsensusReconfig:
    """The ported coordinator protocols survive a consensus-group change:
    the metadata service (C's List, OCC's timestamp oracle) moves through
    the replicated log's joint configuration mid-run."""

    @pytest.mark.parametrize("protocol", ("algorithm-c", "occ-double-collect"))
    def test_grow_consensus_group(self, protocol):
        handle = run_reconfig_workload(
            protocol,
            reconfig=ReconfigPlan(
                name="cns-grow",
                requests=(set_consensus_group(("coor", "coor.2", "coor.3", "coor.4"), at=20),),
            ),
            consensus_factor=3,
            replication_factor=1,
            quorum="read-one-write-all",
            rounds=4,
        )
        assert handle.simulation.topology.consensus_group() == (
            "coor", "coor.2", "coor.3", "coor.4",
        )
        assert final_read_values(handle, "R4")["ox"] == "v4-ox"
        assert handle.serializability().ok
