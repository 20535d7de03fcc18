"""One message per delivery, one request per log entry.

The kernel has a single delivery path: every message a protocol sends is
its own pending delivery, and each scheduler step executes exactly one
delivery, one invocation or one timer.  A replicated coordinator appends
one log entry per coordinator request.  The paper counts a READ's cost in
client–server rounds, so neither grouping would change a result; this suite
pins the single path so a second one cannot creep back in unnoticed:

* on replicated stacks every SEND is received exactly once and the step
  count is the sum of deliveries, invocations and timers;
* a write burst against a consensus-replicated coordinator leaves one log
  entry per request, each applied once;
* runs stay deterministic and every safety verdict (SNOW, strict
  serializability, the shared invariant checker via the autouse fixture)
  holds.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.ioa import ActionKind, FIFOScheduler, RandomScheduler
from repro.protocols import get_protocol

from tests import invariants
from tests.replication.conftest import run_fixed_workload

REPLICATED = [
    "algorithm-a",
    "algorithm-b",
    "algorithm-c",
    "occ-double-collect",
    "eiger",
    "naive-snow",
]
COORDINATED = ["algorithm-b", "algorithm-c", "occ-double-collect"]


def signatures_equal(a, b) -> bool:
    return a.trace().signature() == b.trace().signature()


def replicated(protocol, **settings):
    return run_fixed_workload(protocol, replication_factor=3, quorum="majority", **settings)


# ----------------------------------------------------------------------
# Quorum fan-out: each message is its own delivery
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", REPLICATED)
def test_replicated_run_is_deterministic(protocol):
    assert signatures_equal(replicated(protocol), replicated(protocol))


@pytest.mark.parametrize("protocol", REPLICATED)
def test_every_send_is_received_once(protocol):
    actions = replicated(protocol).trace().actions
    sent = [a.message.msg_id for a in actions if a.kind is ActionKind.SEND]
    received = Counter(a.message.msg_id for a in actions if a.kind is ActionKind.RECV)
    assert len(sent) == len(set(sent))
    assert received == Counter(sent)


@pytest.mark.parametrize("protocol", REPLICATED)
def test_each_step_is_one_delivery_invocation_or_timer(protocol):
    handle = replicated(protocol)
    kinds = Counter(a.kind for a in handle.trace().actions)
    timers = sum(
        1
        for a in handle.trace().actions
        if a.kind is ActionKind.INTERNAL and dict(a.info).get("timeout")
    )
    assert handle.simulation.steps_taken == (
        kinds[ActionKind.RECV] + kinds[ActionKind.INVOKE] + timers
    )


@pytest.mark.parametrize("protocol", REPLICATED)
def test_replicated_verdicts_hold(protocol):
    handle = replicated(protocol)
    assert handle.serializability().ok
    assert handle.snow_report().non_blocking
    assert all(r.complete for r in handle.transaction_records())


def test_random_schedule_verdicts():
    """An adversarial interleaving of the fan-out keeps every verdict."""
    handle = replicated("algorithm-b", scheduler=RandomScheduler(seed=23))
    assert handle.serializability().ok
    assert all(r.complete for r in handle.transaction_records())


# ----------------------------------------------------------------------
# Consensus: one request per log entry
# ----------------------------------------------------------------------
WRITES = [f"W{i}" for i in range(6)]


def burst_workload(protocol_name, seed=3):
    """A write burst against a replicated coordinator (cf=3).

    The writes carry no dependencies, so coordinator requests pile up while
    the leader's first commit round is still in flight.
    """
    handle = get_protocol(protocol_name).build(
        num_readers=2,
        num_writers=3,
        num_objects=2,
        scheduler=FIFOScheduler(),
        seed=seed,
        replication_factor=3,
        quorum="majority",
        consensus_factor=3,
    )
    for i, txn_id in enumerate(WRITES):
        handle.submit_write(
            {obj: f"v{i}-{obj}" for obj in handle.objects},
            writer=handle.writers[i % len(handle.writers)],
            txn_id=txn_id,
        )
    handle.submit_read(handle.objects, reader=handle.readers[0], txn_id="R1")
    handle.submit_read(handle.objects, reader=handle.readers[1], txn_id="R2")
    handle.run_to_completion()
    return invariants.register(handle)


def member_logs(handle):
    return [handle.simulation.automaton(name).log for name in handle.consensus_group]


@pytest.mark.parametrize("protocol", COORDINATED)
def test_each_log_entry_carries_one_request(protocol):
    handle = burst_workload(protocol)
    for log in member_logs(handle):
        for entry in log.entries:
            if not entry.is_noop():
                assert entry.request_id.startswith(f"{entry.msg_type}/")


@pytest.mark.parametrize("protocol", COORDINATED)
def test_every_write_of_the_burst_has_its_own_entry(protocol):
    handle = burst_workload(protocol)
    for log in member_logs(handle):
        txns = [e.request_id.split("/", 1)[1] for e in log.committed_entries() if not e.is_noop()]
        assert set(WRITES) <= set(txns)


@pytest.mark.parametrize("protocol", COORDINATED)
def test_committed_requests_apply_once(protocol):
    handle = burst_workload(protocol)
    assert all(r.complete for r in handle.transaction_records())
    assert handle.serializability().ok
    for log in member_logs(handle):
        ids = [e.request_id for e in log.committed_entries() if not e.is_noop()]
        assert len(ids) == len(set(ids)), f"a request committed twice: {ids}"
        assert log.last_applied == log.commit_index


@pytest.mark.parametrize("protocol", COORDINATED)
def test_burst_is_deterministic(protocol):
    assert signatures_equal(burst_workload(protocol), burst_workload(protocol))


def test_replicated_servers_and_coordinator_compose():
    handle = replicated("algorithm-b", consensus_factor=3)
    assert handle.serializability().ok
    assert all(r.complete for r in handle.transaction_records())
    assert signatures_equal(handle, replicated("algorithm-b", consensus_factor=3))
