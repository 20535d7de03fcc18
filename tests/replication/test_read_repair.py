"""Read-repair on quorum reads: stale replicas get the freshest version back.

When an exact-key quorum read collects a ``read-val-miss`` (a replica that
never installed — or forgot — the version the metadata layer named), the
round ends by writing that version back to the stale replica.  This restores
durability after crash-with-amnesia: the formerly blank replica holds the
named version again, so even a later ``read-one-write-all`` read served by it
finds the data (the ROADMAP's read-repair item).
"""

from __future__ import annotations

import pytest

from repro.ioa import FIFOScheduler
from repro.ioa.actions import ActionKind
from repro.protocols import get_protocol
from repro.txn.objects import Key


def build(protocol="algorithm-b", replication_factor=3):
    handle = get_protocol(protocol).build(
        num_readers=1,
        num_writers=1,
        num_objects=2,
        scheduler=FIFOScheduler(),
        seed=0,
        replication_factor=replication_factor,
        quorum="majority" if replication_factor > 1 else "read-one-write-all",
    )
    return handle


def repair_sends(handle):
    return [
        action.message
        for action in handle.trace()
        if action.kind == ActionKind.SEND
        and action.message is not None
        and action.message.get("repair")
    ]


@pytest.mark.parametrize("protocol", ["algorithm-a", "algorithm-b"])
def test_amnesiac_replica_is_repaired_by_the_next_quorum_read(protocol):
    handle = build(protocol)
    w1 = handle.submit_write({"ox": "v1-ox", "oy": "v1-oy"}, txn_id="W1")
    handle.run()  # W1 installs at every replica

    amnesiac = handle.simulation.automaton("sx.2")
    amnesiac.forget()  # crash-with-amnesia, surgically
    key = Key(1, "w1")
    assert amnesiac.store.get(key) is None

    handle.submit_read(("ox", "oy"), txn_id="R1", after=[w1])
    handle.run()

    # The read completed correctly off the surviving quorum...
    r1 = handle.simulation.transaction_record("R1")
    assert dict(r1.result.values) == {"ox": "v1-ox", "oy": "v1-oy"}

    # ...and wrote the named version back to the blank replica.
    repaired = amnesiac.store.get(key)
    assert repaired is not None and repaired.value == "v1-ox"
    sends = repair_sends(handle)
    assert sends and all(m.dst == "sx.2" for m in sends)


def test_repair_restores_durability_for_subsequent_reads():
    """After the repair, the once-blank replica serves the version itself."""
    handle = build()
    w1 = handle.submit_write({"ox": "v1-ox", "oy": "v1-oy"}, txn_id="W1")
    handle.run()
    handle.simulation.automaton("sx.2").forget()
    r1 = handle.submit_read(("ox", "oy"), txn_id="R1", after=[w1])
    handle.run()
    # A second read collects only hits: no replica is stale any more.
    handle.submit_read(("ox", "oy"), txn_id="R2", after=[r1])
    handle.run()
    assert len(repair_sends(handle)) == 1  # R1 repaired; R2 found nothing stale
    r2 = handle.simulation.transaction_record("R2")
    assert dict(r2.result.values) == {"ox": "v1-ox", "oy": "v1-oy"}


def test_repair_installs_are_not_acknowledged():
    """Repairs are fire-and-forget: the reader gets no stray write acks."""
    handle = build()
    w1 = handle.submit_write({"ox": "v1-ox", "oy": "v1-oy"}, txn_id="W1")
    handle.run()
    handle.simulation.automaton("sx.2").forget()
    handle.submit_read(("ox", "oy"), txn_id="R1", after=[w1])
    handle.run()
    acks_to_reader = [
        a.message
        for a in handle.trace()
        if a.kind == ActionKind.SEND
        and a.message is not None
        and a.message.msg_type == "ack-write"
        and a.message.dst == "r1"
    ]
    assert acks_to_reader == []


def test_repair_is_invisible_to_the_snow_checkers():
    """A repairing read keeps its N verdict and round-trip counts: the
    repair send is maintenance traffic, not a protocol round trip awaiting
    a reply — so the repairing run's per-read report matches the report of
    the identical run where nothing was stale."""

    def r1_report(forget: bool):
        handle = build()
        w1 = handle.submit_write({"ox": "v1-ox", "oy": "v1-oy"}, txn_id="W1")
        handle.run()
        if forget:
            handle.simulation.automaton("sx.2").forget()
        handle.submit_read(("ox", "oy"), txn_id="R1", after=[w1])
        handle.run()
        report = next(
            r for r in handle.snow_report().read_reports if r.txn_id == "R1"
        )
        return handle, report

    repaired_handle, repaired = r1_report(forget=True)
    _, clean = r1_report(forget=False)
    assert repair_sends(repaired_handle)  # the repair actually happened...
    # ...yet R1 is still non-blocking and its trip counts are the clean run's.
    assert repaired.non_blocking and repaired.blocking_servers == ()
    assert repaired.round_trips_per_server == clean.round_trips_per_server
    assert repaired.one_round == clean.one_round


def test_no_repair_traffic_at_rf1():
    """Single-copy groups can never miss, so rf=1 traces stay untouched."""
    handle = build(replication_factor=1)
    w1 = handle.submit_write({"ox": "v1-ox", "oy": "v1-oy"}, txn_id="W1")
    handle.submit_read(("ox", "oy"), txn_id="R1", after=[w1])
    handle.run()
    assert repair_sends(handle) == []


@pytest.mark.parametrize("protocol", ["algorithm-a", "algorithm-b"])
def test_a_miss_alone_never_completes_a_read_quorum(protocol):
    """Read-one-write-all reads need one reply per object, and the first to
    arrive (FIFO: the primary's) is the amnesiac replica's miss: the round
    must wait for a hit rather than complete without a value."""
    handle = get_protocol(protocol).build(
        num_readers=1,
        num_writers=1,
        num_objects=2,
        scheduler=FIFOScheduler(),
        seed=0,
        replication_factor=3,
        quorum="read-one-write-all",
    )
    w1 = handle.submit_write({"ox": "v1-ox", "oy": "v1-oy"}, txn_id="W1")
    handle.run()
    handle.simulation.automaton("sy").forget()
    handle.submit_read(("ox", "oy"), txn_id="R1", after=[w1])
    handle.run()
    r1 = handle.simulation.transaction_record("R1")
    assert dict(r1.result.values) == {"ox": "v1-ox", "oy": "v1-oy"}
    assert [m.dst for m in repair_sends(handle)] == ["sy"]
