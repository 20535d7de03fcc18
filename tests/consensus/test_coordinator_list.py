"""The coordinator's ``List`` keeps each entry once, and its snapshots share it.

``CoordinatorList`` stores every entry as the immutable ``(κ, bits)`` pair a
checkpoint carries (``bits``: the sorted ``((object, 0|1), …)`` tuple, one
shared tuple per distinct pattern), so ``snapshot()`` is the list as a tuple,
and a consensus member's checkpoint and its stable-store record hold the live
entries instead of copies.  Pinned on a leased rf=3/cf=3 run of algorithm B
that checkpoints every few entries:

* the snapshot has the form it had when entries were dicts re-sorted at every
  checkpoint, and says what each WRITE wrote at its tag;
* it shares its entries with the live list, and so do the member's
  checkpoint and the stable store's copy of it;
* ``restore(snapshot())`` round-trips, in place and on a fresh list;
* the entries hold at most ``2**len(objects)`` distinct ``bits`` tuples.
"""

from __future__ import annotations

import pytest

from repro.analysis.workload import WorkloadSpec, generate_workload, submit_workload
from repro.consensus import CoordinatorList
from repro.faults import ChaosScheduler
from repro.persist import PersistencePolicy
from repro.protocols import get_protocol
from repro.txn.transactions import WriteTransaction

from tests.invariants import consensus_members


@pytest.fixture(scope="module")
def handle():
    handle = get_protocol("algorithm-b").build(
        num_readers=2,
        num_writers=2,
        num_objects=3,
        replication_factor=3,
        quorum="majority",
        consensus_factor=3,
        leases=True,
        persistence=PersistencePolicy(compact_every=4),
        scheduler=ChaosScheduler(seed=5),
        seed=5,
    )
    spec = WorkloadSpec(reads_per_reader=8, writes_per_writer=8, seed=5)
    submit_workload(handle, generate_workload(spec, handle.readers, handle.writers, handle.objects))
    handle.run_to_completion()
    return handle


def lists(handle):
    return [(member, member.machine.list) for member in consensus_members(handle)]


def written_at_tags(handle):
    """tag -> (writer, sorted (object, 0|1) pairs) of every WRITE, and the
    initial all-ones entry at tag 1."""
    objects = sorted(handle.objects)
    entries = {1: (None, tuple((obj, 1) for obj in objects))}
    for record in handle.simulation.transaction_records():
        if isinstance(record.txn, WriteTransaction):
            written = record.txn.objects
            bits = tuple((obj, int(obj in written)) for obj in objects)
            entries[record.annotations["tag"]] = (record.client, bits)
    return entries


def test_snapshot_has_the_checkpoint_form_and_the_writes(handle):
    expected = written_at_tags(handle)
    longest = 0
    for _, coordinator_list in lists(handle):
        snapshot = coordinator_list.snapshot()
        assert snapshot == tuple((key, tuple(sorted(dict(bits).items()))) for key, bits in snapshot)
        for tag, (key, bits) in enumerate(snapshot, 1):
            writer, written = expected[tag]
            assert bits == written
            assert writer is None or key.writer == writer
        longest = max(longest, len(snapshot))
    assert longest == len(expected)


def test_snapshots_and_checkpoints_share_the_live_entries(handle):
    checkpointed = 0
    for member, coordinator_list in lists(handle):
        live = coordinator_list.entries
        assert all(a is b for a, b in zip(coordinator_list.snapshot(), live, strict=True))
        if member.checkpoints:
            checkpointed += 1
            own = member._snapshot["machine"]
            stored = member.stable_store.load_snapshot()["machine"]
            assert stored is own
            assert 0 < len(own) <= len(live)
            assert all(a is b for a, b in zip(own, live))
    assert checkpointed, "no member checkpointed: the case is not exercised"


def test_restore_of_a_snapshot_round_trips(handle):
    for _, coordinator_list in lists(handle):
        snapshot = coordinator_list.snapshot()
        fresh = CoordinatorList(handle.objects)
        fresh.restore(snapshot)
        assert fresh.snapshot() == snapshot
        assert fresh.tag_array_for(handle.objects) == coordinator_list.tag_array_for(handle.objects)
        coordinator_list.restore(snapshot)
        assert all(a is b for a, b in zip(coordinator_list.entries, snapshot, strict=True))


def test_one_bits_tuple_per_written_pattern(handle):
    for _, coordinator_list in lists(handle):
        patterns = [bits for _, bits in coordinator_list.entries]
        assert len({id(bits) for bits in patterns}) == len(set(patterns))
        assert len(set(patterns)) <= 2 ** len(handle.objects)
