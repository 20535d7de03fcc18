"""The post-run passes' outputs, pinned as digests.

Every verdict the paper's results rest on is computed after a run, from its
trace and transaction records: the span tree (``derive_spans``), the SNOW
report (``check_snow``) and the metric block (``collect_metrics``).  Each cell
below runs once at seed 17 and the ``repr`` of each output is hashed, so a
rewrite of these passes for speed must give equal results, not just similar
ones.  The cells reach every branch of the span builder: quorum rounds (A, B,
C, Eiger); consensus apply and election spans, and messages never received
(B at rf=3/cf=3 with leases, its leader fail-stopped); replica
reconfiguration spans (B growing a replica group mid-run); elections lost
and a reconfiguration left uncommitted (B with a member cut off for a while
and a group change whose sync never starts); and drops with
retransmission and duplicates (B under 10 % of each).  The kernel records no action for a suppressed duplicate or a
retransmitted copy, so a trace from a run never repeats a ``msg_id``; the
rule for a hand-built trace that does is pinned separately.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.analysis.metrics import collect_metrics
from repro.analysis.workload import WorkloadSpec, generate_workload, submit_workload
from repro.core.snow import check_snow
from repro.faults import (
    ChaosScheduler,
    DropPolicy,
    DuplicatePolicy,
    FaultInjector,
    FaultPlan,
    Partition,
    RetryPolicy,
    coordinator_failover,
    grow_group_mid_run,
)
from repro.ioa import FIFOScheduler, Message, Simulation, recv_action, send_action
from repro.obs import derive_spans
from repro.protocols import get_protocol

SEED = 17


def drops_and_duplicates():
    plan = FaultPlan(
        name="drop-dup",
        drops=DropPolicy(0.1),
        duplicates=DuplicatePolicy(0.1),
        retry=RetryPolicy(timeout_steps=10, max_attempts=8),
    )
    return {"fault_plane": FaultInjector(plan, seed=SEED), "scheduler": ChaosScheduler(base=FIFOScheduler())}


def leader_failover():
    return {
        "replication_factor": 3,
        "quorum": "majority",
        "consensus_factor": 3,
        "leases": True,
        "fault_plane": FaultInjector(coordinator_failover(at=40, seed=SEED), seed=SEED),
        "scheduler": ChaosScheduler(base=FIFOScheduler()),
    }


def lost_election_and_stuck_reconfig():
    """A member cut off from its peers campaigns and loses; a replica-group
    change whose state sync never reaches a source stays joint to the end."""
    plan = FaultPlan(
        name="isolated-member-stuck-sync",
        partitions=(
            Partition(left=("reconfig-admin",), right=("s1", "s1.2", "s1.3")),
            Partition(left=("coor.3",), right=("coor", "coor.2"), start=10, heal=150),
        ),
        seed=SEED,
    )
    return {
        "replication_factor": 3,
        "quorum": "majority",
        "consensus_factor": 3,
        "reconfig": grow_group_mid_run("o1", 3, to_factor=4, at=20)[1],
        "fault_plane": FaultInjector(plan, seed=SEED),
        "scheduler": ChaosScheduler(base=FIFOScheduler()),
    }


#: cell → protocol, and the build settings on top of 2 readers (1 for A),
#: 2 writers, 3 objects and FIFO (a function: fault planes keep state)
CELLS = {
    "algorithm-a": ("algorithm-a", dict),
    "algorithm-b": ("algorithm-b", dict),
    "algorithm-c": ("algorithm-c", dict),
    "eiger": ("eiger", dict),
    "b-rf3-cf3-leases-failover": ("algorithm-b", leader_failover),
    "b-grow-group": (
        "algorithm-b",
        lambda: {"replication_factor": 3, "quorum": "majority", "reconfig": grow_group_mid_run("o1", at=20)[1]},
    ),
    "b-drops-duplicates": ("algorithm-b", drops_and_duplicates),
    "b-lost-election-stuck-reconfig": ("algorithm-b", lost_election_and_stuck_reconfig),
}

#: sha256 of the three outputs' reprs, computed before the passes were
#: rewritten; the metrics digests were re-pinned once, when ``ExperimentMetrics``
#: lost its ``controller`` field (every other field's repr hashed as before),
#: and algorithm C's once more, when its READs lost the annotation counting
#: their fallback rounds (the only difference in that repr); the span tree
#: and metrics of the two cf=3 cells were re-pinned when the coordinator
#: group began announcing commits with an unacknowledged notice (their runs
#: send other consensus messages; both SNOW digests stayed as they were),
#: and the leased failover cell's once more, when append rounds began to
#: prove the lease (its SNOW digest again stayed as it was)
DIGESTS = {
    "algorithm-a": (
        "b09683d3c039dd2483cf6126098c1114b3b20a0e7882ada8ff064ae7fe009e48",
        "d1032657fc1776160dd5606cbf8ad42b407b7b6332171335c50deb1ab11fc072",
        "3ff346dd1d87a92802d7a40e3dafa20efbb9539a48dfbee07a6032850f3eb815",
    ),
    "algorithm-b": (
        "5a5d479f2e683f4dd77a44c48c7de6359f4a4b0cd66109cdc27cce7fe161e565",
        "5087e1fc845cf8e40fa1871df0ecca3fd8980c863586b9bd534b3bf545745869",
        "7e5e196d7c5d0f24004f3242f4fd556074a7f9ec3bb1c0cbc05e942261b82901",
    ),
    "algorithm-c": (
        "1c930c5077aa07b879117eea045f1e4a4bb123cbff2fca4b32bd8c5ea5a0924a",
        "dbe7a0891a6a9272907aeea902ad4cfbff9108ed24cd03799e8b15a3a9a2495b",
        "883f47c2d4f480f08d5033e65e7fc7b573e855c4a2c2f2274aa90228c90db137",
    ),
    "b-drops-duplicates": (
        "44bb6355cd6d11305ad136444a1c7da573b9df1d81bce9c3593c3845f231ccb4",
        "5087e1fc845cf8e40fa1871df0ecca3fd8980c863586b9bd534b3bf545745869",
        "064433f318cec3e3b7e3f298e1ca01e651421593bbf887ccb404743f9522288c",
    ),
    "b-grow-group": (
        "1f7539ab0f9e7879cb137d76984e2de88d88ea152946444489fd544bdb44ff8c",
        "c4e64324b63e2815f0cdd734fc889e353d8d760356077daf9119fdd6cceb9314",
        "158a1fa4294b48773b0d365c426f25d10c9e0d3abf7f3e23923f52668ae6b70f",
    ),
    "b-lost-election-stuck-reconfig": (
        "a8400bc89682a6bfe0b7f6318a177924b016f28ff1c644a397045e043970dc1f",
        "825987eb8797a8d31db9f8a0139a4e12014a86c522d2311cabc8b43fd5013a65",
        "ac4625a944ad307d1797f56e6ab08cfe92535ef2618b60d2c67bf9e3dd77a33c",
    ),
    "b-rf3-cf3-leases-failover": (
        "7e3328fe8b1d7b77140b7e4f7be93318eaef48a9dcebbc18a349907f15e46610",
        "b3687f8642510bb1cc2599cfb57ec1160c06a34679cac285f6bc9e44cb5151a7",
        "ff93685b84314e9a0883a6c98108514f913d4769f5a2f9b744155ea9f294b4fc",
    ),
    "eiger": (
        "d16f5afc91a8e7deae1ab92cc70e8c8debc08fd30eaaf5b5da0fe3ede98580ab",
        "d27c10c3d3ab2f1c07324022887103186fb817729e2cdb382f95071cb72e46a6",
        "1d9a9e694233749102c7e0737bcfc2bee1926fa9399a021f8545baa2ec88cd20",
    ),
}


def post_run(cell: str):
    """``(span tree, SNOW report, metrics)`` of one run of ``cell``."""
    protocol_name, settings = CELLS[cell]
    protocol = get_protocol(protocol_name)
    handle = protocol.build(
        num_readers=2 if protocol.supports_multiple_readers else 1,
        num_writers=2,
        num_objects=3,
        seed=SEED,
        **{"scheduler": FIFOScheduler(), **settings()},
    )
    spec = WorkloadSpec(10, 10, 2, 2, 0.0, SEED)
    submit_workload(handle, generate_workload(spec, handle.readers, handle.writers, handle.objects))
    handle.run()
    assert not handle.simulation.incomplete_transactions()
    simulation = handle.simulation
    history = handle.history()
    metrics = collect_metrics(
        simulation,
        protocol_name=protocol_name,
        placement=handle.placement,
        quorum_policy=handle.quorum_policy,
        directory=handle.directory,
    )
    return derive_spans(simulation), check_snow(simulation, history), metrics


def digests(cell: str):
    tree, snow, metrics = post_run(cell)
    texts = (repr(tree.signature()), snow.property_string() + repr(snow.read_reports), repr(metrics))
    return tuple(hashlib.sha256(text.encode()).hexdigest() for text in texts)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_post_run_outputs_match_their_digests(cell):
    assert digests(cell) == DIGESTS[cell]


def test_the_cells_reach_every_span_kind():
    kinds = set()
    for cell in CELLS:
        kinds.update(span.kind for span in post_run(cell)[0].spans)
    assert kinds == {"txn", "round", "consensus", "election", "reconfig"}


def test_the_isolated_member_loses_and_the_stuck_change_stays_open():
    spans = post_run("b-lost-election-stuck-reconfig")[0].spans
    assert {dict(s.attrs)["won"] for s in spans if s.kind == "election"} == {True, False}
    assert [(s.name, dict(s.attrs)) for s in spans if s.kind == "reconfig"] == [
        ("replica-change (uncommitted)", {"epoch": 1, "committed": False})
    ]


def test_the_failover_cell_leaves_messages_undelivered():
    assert post_run("b-rf3-cf3-leases-failover")[0].undelivered > 0


def test_a_repeated_msg_id_pairs_its_last_send_with_its_last_receive():
    simulation = Simulation()
    resent = Message("read", "r1", "s1", (("txn", "R1"),), msg_id=5)
    answered = Message("read", "r1", "s2", (("txn", "R1"),), msg_id=6)
    lost = Message("read", "r1", "s3", (("txn", "R1"),), msg_id=7)
    stray = Message("read-val", "s3", "r1", (("txn", "R1"),), msg_id=8)
    for action in (
        send_action(resent),
        send_action(answered),
        send_action(lost),
        recv_action(answered),
        send_action(resent),
        recv_action(stray),
        recv_action(resent),
    ):
        simulation.trace.append(action)
    tree = derive_spans(simulation)
    assert tree.spans == ()
    # edges in the order of their sends: the resent message's counts from its last send
    assert tree.signature()[1:] == ((("r1", "s2", 1, 3, "read"), ("r1", "s1", 4, 6, "read")), 1)
