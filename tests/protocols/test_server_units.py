"""Direct unit tests of the protocol server/reader internals.

The end-to-end tests exercise the protocols through the kernel; these tests
poke the automata directly (with a capturing fake context) so that the
per-handler logic — coordinator list management, exact-key lookups, Lamport
arithmetic, lock queues, last-writer-wins installs — has focused coverage.
"""

from __future__ import annotations

import pytest

from repro.ioa.actions import Message
from repro.ioa.errors import SimulationError
from repro.protocols.algorithm_a import AlgorithmAReader, AlgorithmAServer
from repro.protocols.blocking import LockingServer
from repro.protocols.coordinated import CoordinatedServer, coordinator_name
from repro.protocols.eiger import EigerServer
from repro.protocols.occ import OccServer
from repro.txn.objects import Key


class FakeContext:
    """Captures outgoing sends instead of going through the kernel."""

    def __init__(self, actor: str = "server"):
        self.actor = actor
        self.sent = []

    def send(self, dst, msg_type, payload=None, phase=""):
        message = Message.make(msg_type, self.actor, dst, payload or {})
        self.sent.append(message)
        return message

    def internal(self, **info):
        pass

    def annotate_transaction(self, txn_id, **fields):
        pass

    def last(self):
        return self.sent[-1]


def msg(msg_type, src, dst, **payload):
    return Message.make(msg_type, src, dst, payload)


class TestAlgorithmAServerUnit:
    def test_write_then_read_by_key(self):
        server = AlgorithmAServer("sx", "ox", initial_value=0)
        ctx = FakeContext("sx")
        key = Key(1, "w1")
        server.on_message(msg("write-val", "w1", "sx", txn="W1", key=key, value="v1"), ctx)
        assert ctx.last().msg_type == "ack-write"
        server.on_message(msg("read-val", "r1", "sx", txn="R1", key=key), ctx)
        reply = ctx.last()
        assert reply.msg_type == "read-val-reply"
        assert reply.get("value") == "v1"
        assert reply.get("num_versions") == 1

    def test_read_of_initial_key(self):
        server = AlgorithmAServer("sx", "ox", initial_value="zero")
        ctx = FakeContext("sx")
        server.on_message(msg("read-val", "r1", "sx", txn="R1", key=Key.initial()), ctx)
        assert ctx.last().get("value") == "zero"

    def test_read_of_unknown_key_is_a_protocol_error(self):
        server = AlgorithmAServer("sx", "ox")
        with pytest.raises(SimulationError):
            server.on_message(msg("read-val", "r1", "sx", txn="R1", key=Key(9, "w9")), FakeContext("sx"))


class TestAlgorithmAReaderUnit:
    def test_latest_index_tracks_per_object_updates(self):
        reader = AlgorithmAReader("r1", ("ox", "oy"))
        ctx = FakeContext("r1")
        assert reader.list.latest_index_for("ox") == 1  # the initial all-ones entry
        reader.on_message(msg("info-reader", "w1", "r1", txn="W1", key=Key(1, "w1"), bits=(("ox", 1), ("oy", 0))), ctx)
        assert ctx.last().msg_type == "ack-info"
        assert ctx.last().get("tag") == 2
        assert reader.list.latest_index_for("ox") == 2
        assert reader.list.latest_index_for("oy") == 1
        reader.on_message(msg("info-reader", "w2", "r1", txn="W2", key=Key(1, "w2"), bits=(("ox", 0), ("oy", 1))), ctx)
        assert reader.list.latest_index_for("oy") == 3
        assert ctx.last().get("tag") == 3

    def test_non_info_messages_ignored(self):
        reader = AlgorithmAReader("r1", ("ox",))
        ctx = FakeContext("r1")
        reader.on_message(msg("something-else", "w1", "r1"), ctx)
        assert ctx.sent == []


class TestCoordinatedServerUnit:
    def make_coordinator(self):
        return CoordinatedServer("s1", "o1", ("o1", "o2"), is_coordinator=True, initial_value=0)

    def test_update_coor_appends_and_tags(self):
        server = self.make_coordinator()
        ctx = FakeContext("s1")
        server.on_message(msg("update-coor", "w1", "s1", txn="W1", key=Key(1, "w1"), bits=(("o1", 1), ("o2", 1))), ctx)
        assert ctx.last().msg_type == "ack-coor"
        assert ctx.last().get("tag") == 2
        server.on_message(msg("update-coor", "w2", "s1", txn="W2", key=Key(1, "w2"), bits=(("o1", 0), ("o2", 1))), ctx)
        assert ctx.last().get("tag") == 3

    def test_tag_array_for_read_subsets(self):
        server = self.make_coordinator()
        ctx = FakeContext("s1")
        server.on_message(msg("update-coor", "w1", "s1", txn="W1", key=Key(1, "w1"), bits=(("o1", 1), ("o2", 0))), ctx)
        tag, keys = server.coordinator_list.tag_array_for(("o1", "o2"))
        assert tag == 2
        assert keys["o1"] == Key(1, "w1")
        assert keys["o2"] == Key.initial()
        tag_only_o2, keys_only_o2 = server.coordinator_list.tag_array_for(("o2",))
        assert tag_only_o2 == 1
        assert keys_only_o2["o2"] == Key.initial()

    def test_non_coordinator_rejects_coordinator_messages(self):
        server = CoordinatedServer("s2", "o2", ("o1", "o2"), is_coordinator=False)
        with pytest.raises(SimulationError):
            server.on_message(msg("update-coor", "w1", "s2", txn="W1", key=Key(1, "w1"), bits=()), FakeContext())
        with pytest.raises(SimulationError):
            server.on_message(msg("get-tag-arr", "r1", "s2", txn="R1", read_set=("o2",)), FakeContext())

    def test_read_vals_returns_every_version_and_optionally_tags(self):
        server = self.make_coordinator()
        ctx = FakeContext("s1")
        server.on_message(msg("write-val", "w1", "s1", txn="W1", key=Key(1, "w1"), value="a"), ctx)
        server.on_message(msg("update-coor", "w1", "s1", txn="W1", key=Key(1, "w1"), bits=(("o1", 1), ("o2", 0))), ctx)
        server.on_message(msg("read-vals", "r1", "s1", txn="R1", want_tags=True, read_set=("o1", "o2")), ctx)
        reply = ctx.last()
        assert reply.msg_type == "read-vals-reply"
        assert reply.get("num_versions") == 2
        assert reply.get("tag") == 2
        assert dict(reply.get("keys"))["o1"] == Key(1, "w1")

    def test_coordinator_name_convention(self):
        assert coordinator_name(("s1", "s2", "s3")) == "s1"
        with pytest.raises(SimulationError):
            coordinator_name(())


class TestEigerServerUnit:
    def test_write_creates_interval_and_closes_previous(self):
        server = EigerServer("sx", "ox", initial_value="init")
        ctx = FakeContext("sx")
        server.on_message(msg("eiger-write", "w1", "sx", txn="W1", value="a", ts=0), ctx)
        assert server.latest().value == "a"
        assert server.versions[0].valid_until == 1
        server.on_message(msg("eiger-write", "w1", "sx", txn="W2", value="b", ts=5), ctx)
        assert server.latest().write_ts == 6
        assert server.versions[1].valid_until == 6

    def test_read_reply_carries_interval(self):
        server = EigerServer("sx", "ox")
        ctx = FakeContext("sx")
        server.on_message(msg("eiger-write", "w1", "sx", txn="W1", value="a", ts=0), ctx)
        server.on_message(msg("eiger-read", "r1", "sx", txn="R1", ts=0), ctx)
        reply = ctx.last()
        assert reply.get("evt") == 1
        assert reply.get("lvt") == server.clock
        assert reply.get("value") == "a"

    def test_read_at_returns_version_valid_at_effective_time(self):
        server = EigerServer("sx", "ox", initial_value="init")
        ctx = FakeContext("sx")
        server.on_message(msg("eiger-write", "w1", "sx", txn="W1", value="a", ts=0), ctx)   # ts 1
        server.on_message(msg("eiger-write", "w1", "sx", txn="W2", value="b", ts=3), ctx)   # ts 4
        server.on_message(msg("eiger-read-at", "r1", "sx", txn="R1", effective_time=2, ts=0), ctx)
        assert ctx.last().get("value") == "a"
        server.on_message(msg("eiger-read-at", "r1", "sx", txn="R2", effective_time=10, ts=0), ctx)
        assert ctx.last().get("value") == "b"


class TestLockingServerUnit:
    def test_read_granted_when_unlocked(self):
        server = LockingServer("sx", "ox", initial_value=7)
        ctx = FakeContext("sx")
        server.on_message(msg("lock-read", "r1", "sx", txn="R1"), ctx)
        assert ctx.last().msg_type == "lock-read-granted"
        assert ctx.last().get("value") == 7
        assert server.read_lock_holders == ["r1"]

    def test_write_deferred_behind_readers_and_granted_on_unlock(self):
        server = LockingServer("sx", "ox")
        ctx = FakeContext("sx")
        server.on_message(msg("lock-read", "r1", "sx", txn="R1"), ctx)
        server.on_message(msg("lock-write", "w1", "sx", txn="W1"), ctx)
        assert ctx.last().msg_type == "lock-read-granted"  # the write got no reply yet
        assert len(server.queue) == 1
        server.on_message(msg("unlock-read", "r1", "sx", txn="R1"), ctx)
        assert ctx.last().msg_type == "lock-write-granted"
        assert server.write_locked_by == "w1"

    def test_read_deferred_behind_writer_until_commit(self):
        server = LockingServer("sx", "ox")
        ctx = FakeContext("sx")
        server.on_message(msg("lock-write", "w1", "sx", txn="W1"), ctx)
        server.on_message(msg("lock-read", "r1", "sx", txn="R1"), ctx)
        assert ctx.last().msg_type == "lock-write-granted"
        server.on_message(msg("commit-write", "w1", "sx", txn="W1", key=Key(1, "w1"), value="new"), ctx)
        # After the commit the deferred read is answered with the new value.
        granted = [m for m in ctx.sent if m.msg_type == "lock-read-granted"]
        assert granted and granted[-1].get("value") == "new"

    def test_commit_without_lock_is_an_error(self):
        server = LockingServer("sx", "ox")
        with pytest.raises(SimulationError):
            server.on_message(msg("commit-write", "w1", "sx", txn="W1", key=Key(1, "w1"), value=1), FakeContext())


class TestOccServerUnit:
    def test_last_writer_wins_by_timestamp(self):
        server = OccServer("sx", "ox", is_timestamp_server=False, initial_value=0)
        ctx = FakeContext("sx")
        server.on_message(msg("install", "w1", "sx", txn="W1", value="late", timestamp=5, write_set=("ox",)), ctx)
        server.on_message(msg("install", "w2", "sx", txn="W2", value="early", timestamp=3, write_set=("ox",)), ctx)
        assert server.latest_value == "late"
        assert server.latest_timestamp == 5
        assert server.apply_counter == 2  # both installs counted

    def test_collect_reports_counter_and_write_set(self):
        server = OccServer("sx", "ox", is_timestamp_server=False)
        ctx = FakeContext("sx")
        server.on_message(msg("install", "w1", "sx", txn="W1", value="v", timestamp=1, write_set=("ox", "oy")), ctx)
        server.on_message(msg("collect", "r1", "sx", txn="R1", attempt=1), ctx)
        reply = ctx.last()
        assert reply.get("counter") == 1
        assert set(reply.get("write_set")) == {"ox", "oy"}

    def test_timestamp_oracle_monotone_and_exclusive(self):
        oracle = OccServer("s1", "o1", is_timestamp_server=True)
        ctx = FakeContext("s1")
        oracle.on_message(msg("get-ts", "w1", "s1", txn="W1"), ctx)
        oracle.on_message(msg("get-ts", "w2", "s1", txn="W2"), ctx)
        stamps = [m.get("timestamp") for m in ctx.sent]
        assert stamps == [1, 2]
        non_oracle = OccServer("s2", "o2", is_timestamp_server=False)
        with pytest.raises(SimulationError):
            non_oracle.on_message(msg("get-ts", "w1", "s2", txn="W1"), FakeContext())
