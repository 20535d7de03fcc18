"""Every input-validation raise in ``src/`` that no other test reaches.

Each case is a public call with one bad argument, or a client handed the
wrong kind of transaction, which ``Simulation.submit`` refuses before any
step, and names the error type and message it must raise.  The raises that
no input can reach are listed with their reason in
``tests/unrun/UNRUN.json`` instead.
"""

from __future__ import annotations

import pytest

from repro.consensus import LeaderElection, ReconfigPlan, set_replica_group
from repro.faults import (
    CrashEvent,
    Partition,
    grow_group_mid_run,
    partition_grid_scenarios,
    shrink_consensus_group_mid_run,
)
from repro.ioa import ActionKind, FIFOScheduler, SimulationError, TraceError, WellFormednessError
from repro.ioa.actions import Action
from repro.ioa.trace import Fragment, Trace
from repro.proofs import extract_read_fragments
from repro.protocols import get_protocol
from repro.txn import Placement, QuorumPolicy, ReadTransaction, WriteTransaction, coordinator_group_names


class _TooLargeQuorum(QuorumPolicy):
    name = "too-large"

    def read_quorum(self, n: int) -> int:
        return n + 1

    def write_quorum(self, n: int) -> int:
        return n


ARGUMENT_CASES = {
    "election-group-size": (
        lambda: LeaderElection("coor", 0, group_size=0, initial_leader="coor"),
        ValueError, "group size must be >= 1",
    ),
    "election-timeout-range": (
        lambda: LeaderElection("coor", 0, group_size=3, initial_leader="coor", timeout_range=(5, 2)),
        ValueError, "needs 1 <= low <= high",
    ),
    "partition-start": (
        lambda: Partition(left=("r1",), right=("sx",), start=-1),
        ValueError, "partition start must be >= 0",
    ),
    "crash-time": (lambda: CrashEvent(server="sx", at=-1), ValueError, "crash time must be >= 0"),
    "grow-must-grow": (
        lambda: grow_group_mid_run("ox", replication_factor=3, to_factor=3),
        ValueError, "grows the group",
    ),
    "shrink-must-shrink": (
        lambda: shrink_consensus_group_mid_run(consensus_factor=3, to_factor=3),
        ValueError, "shrinks the group",
    ),
    "partition-grid-servers": (
        lambda: partition_grid_scenarios(clients=("r1",), servers=()),
        ValueError, "at least one server",
    ),
    "consensus-factor": (lambda: coordinator_group_names(0), ValueError, "consensus_factor must be >= 1"),
    "quorum-outside-group": (lambda: _TooLargeQuorum().validate(3), ValueError, r"R=4, W=3 outside \[1, 3\]"),
    "placed-twice": (
        lambda: Placement(groups=(("ox", ("sx",)), ("ox", ("sx.2",)))),
        ValueError, "placed twice",
    ),
    "unplaced-object": (lambda: Placement.single_copy(["ox"]).group("oz"), KeyError, "is not placed"),
    "replication-factor": (
        lambda: get_protocol("algorithm-a").build(replication_factor=0),
        ValueError, "replication_factor must be >= 1",
    ),
    "empty-fragment-end": (lambda: Fragment(actions=(), label="E").end_index, TraceError, "fragment 'E' is empty"),
    "reconfigure-unplaced-object": (
        lambda: get_protocol("algorithm-a").build(
            replication_factor=3,
            quorum="majority",
            reconfig=ReconfigPlan(requests=(set_replica_group("oz", ("sz", "sz.2", "sz.3"), at=5),)),
        ).run(),
        SimulationError, "reconfiguration names unplaced object 'oz'",
    ),
    "prefix-foreign-action": (
        lambda: Trace().prefix(Action.make(ActionKind.INVOKE, "r1", info={"txn": "R1"}).with_index(3)),
        TraceError, "not part of this trace",
    ),
}


@pytest.mark.parametrize("case", sorted(ARGUMENT_CASES))
def test_a_bad_argument_raises(case):
    call, error, match = ARGUMENT_CASES[case]
    with pytest.raises(error, match=match):
        call()


#: protocol -> its client kinds with a ``run_transaction`` of their own
CLIENTS = {
    "algorithm-a": ("reader", "writer"),
    "algorithm-b": ("reader", "writer"),
    "algorithm-c": ("reader",),
    "eiger": ("reader", "writer"),
    "naive-snow": ("reader", "writer"),
    "occ-double-collect": ("reader", "writer"),
    "s2pl": ("reader", "writer"),
}


@pytest.mark.parametrize(
    "protocol, client", [(p, c) for p, clients in sorted(CLIENTS.items()) for c in clients]
)
def test_a_client_refuses_the_other_transaction_kind(protocol, client):
    handle = get_protocol(protocol).build(scheduler=FIFOScheduler())
    if client == "reader":
        name, txn = handle.readers[0], WriteTransaction(updates=(("ox", 1),), txn_id="W1")
    else:
        name, txn = handle.writers[0], ReadTransaction(objects=("ox",), txn_id="R1")
    simulation = handle.simulation
    with pytest.raises(WellFormednessError, match=f"{client} '{name}' runs only"):
        simulation.submit(name, txn)
    assert simulation.steps_taken == 0 and len(simulation.trace) == 0
    assert simulation.transaction_records() == ()


def _one_round_read():
    handle = get_protocol("algorithm-a").build(scheduler=FIFOScheduler())
    write = handle.submit_write({"ox": 1, "oy": 1}, txn_id="W1")
    handle.submit_read(txn_id="R1", after=[write])
    handle.run_to_completion()
    return handle, list(handle.trace())


def _at(actions, kind, actor, src=None):
    """The position of the READ's first ``kind`` action at ``actor``."""
    for position, action in enumerate(actions):
        if (
            action.kind == kind
            and action.actor == actor
            and action.message is not None
            and action.message.get("txn") == "R1"
            and (src is None or action.message.src == src)
        ):
            return position
    raise AssertionError((kind, actor))


def _without(kind, actor, src=None):
    def edit(actions):
        del actions[_at(actions, kind, actor, src)]
        return actions

    return edit


def _with_foreign_input(actions):
    """A second input at ``sx`` while it serves the READ."""
    at = _at(actions, ActionKind.RECV, "sx", src="r1")
    actions.insert(at + 1, actions[at])
    return actions


#: a trace edit -> what ``extract_read_fragments`` must say about it
FRAGMENT_CASES = {
    "no-request": (lambda actions: actions, ("sx", "sz"), "no read request from r1 to sz"),
    "request-not-delivered": (_without(ActionKind.RECV, "sx", src="r1"), ("sx", "sy"), "never delivered at sx"),
    "no-reply": (_without(ActionKind.SEND, "sx"), ("sx", "sy"), "server sx never replied"),
    "foreign-input": (_with_foreign_input, ("sx", "sy"), "received other input while serving"),
    "reply-not-delivered": (_without(ActionKind.RECV, "r1", src="sy"), ("sx", "sy"), "reply from sy for R1 never delivered"),
}


@pytest.mark.parametrize("case", sorted(FRAGMENT_CASES))
def test_a_read_that_is_not_one_non_blocking_round_has_no_fragments(case):
    edit, servers, match = FRAGMENT_CASES[case]
    handle, actions = _one_round_read()
    with pytest.raises(TraceError, match=match):
        extract_read_fragments(Trace(edit(actions)), "R1", handle.readers[0], servers)
