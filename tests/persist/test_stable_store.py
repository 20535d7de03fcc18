"""Unit tests for the stable-storage backends and the journal codec.

Both durable backends are driven through one shared behavioural suite (the
``StableStore`` contract), the base class — the store a volatile member
writes to — is checked to keep nothing, then the file backend's failure
handling gets its
own corruption matrix: a torn tail is the crash-mid-write artifact and is
recovered from, while *every* other corruption — a flipped bit, a damaged
mid-chain line, an unknown record — raises :class:`IntegrityError` instead
of silently serving damaged state.
"""

from __future__ import annotations

import json

import pytest

from repro.consensus.log import LogEntry
from repro.persist import (
    FileStableStore,
    IntegrityError,
    PersistencePlane,
    PersistencePolicy,
    SimStableStore,
    StableStore,
    decode_value,
    encode_value,
)
from repro.txn.objects import Key


def entry(term: int, rid: str, payload=()) -> LogEntry:
    return LogEntry(term=term, request_id=rid, msg_type="update-coor", payload=payload)


@pytest.fixture(params=["sim", "file"])
def store(request, tmp_path):
    if request.param == "sim":
        return SimStableStore()
    return FileStableStore(tmp_path / "member.wal")


# ----------------------------------------------------------------------
# The StableStore contract (both backends)
# ----------------------------------------------------------------------
def assert_empty(store):
    assert store.is_empty()
    assert store.load_meta() is None
    assert store.load_entries() == ()
    assert store.load_commit() == 0
    assert store.load_snapshot() is None


class TestStoreContract:
    def test_starts_empty(self, store):
        assert_empty(store)

    def test_is_durable(self, store):
        assert store.durable

    def test_meta_roundtrip_and_idempotence(self, store):
        store.save_meta(3, "coor.2")
        assert store.load_meta() == (3, "coor.2")
        assert not store.is_empty()
        saves = store.meta_saves
        store.save_meta(3, "coor.2")  # identical re-save: no churn
        assert store.meta_saves == saves
        store.save_meta(4, None)
        assert store.load_meta() == (4, None)
        assert store.meta_saves == saves + 1

    def test_log_append_truncate_roundtrip(self, store):
        for i in range(1, 5):
            store.log_append(i, entry(1, f"r{i}"))
        assert [i for i, _ in store.load_entries()] == [1, 2, 3, 4]
        store.log_truncate(3)  # drop indices >= 3 (conflict truncation)
        assert [i for i, _ in store.load_entries()] == [1, 2]
        store.log_append(3, entry(2, "r3b"))
        indices = dict(store.load_entries())
        assert indices[3].request_id == "r3b"

    def test_commit_cursor_only_advances(self, store):
        store.save_commit(3)
        store.save_commit(2)  # stale save: ignored
        assert store.load_commit() == 3

    def test_snapshot_prunes_covered_entries(self, store):
        for i in range(1, 6):
            store.log_append(i, entry(1, f"r{i}"))
        snapshot = {"index": 3, "term": 1, "machine": 7, "replies": {}, "config": None}
        store.save_snapshot(snapshot)
        assert store.load_snapshot()["index"] == 3
        assert [i for i, _ in store.load_entries()] == [4, 5]

    def test_snapshot_copies_do_not_alias(self, store):
        store.save_snapshot({"index": 1, "term": 1, "machine": 0, "replies": {"a": 1}})
        loaded = store.load_snapshot()
        loaded["replies"]["b"] = 2
        assert "b" not in store.load_snapshot()["replies"]


class TestTheStoreThatKeepsNothing:
    """A member built without persistence writes to the ``StableStore`` base
    class: every save is dropped, so recovery reads back a blank member."""

    def test_every_save_leaves_it_empty(self):
        store = StableStore()
        assert_empty(store)
        for save in (
            lambda: store.save_meta(3, "coor.2"),
            lambda: store.log_append(1, entry(1, "r1")),
            lambda: store.log_truncate(1),
            lambda: store.save_commit(3),
            lambda: store.save_snapshot({"index": 1, "term": 1, "machine": 7, "replies": {}}),
        ):
            save()
            assert_empty(store)

    def test_is_not_durable(self):
        assert not StableStore().durable


# ----------------------------------------------------------------------
# The tagged-JSON codec
# ----------------------------------------------------------------------
class TestCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            42,
            "text",
            Key(z=3, writer="w1"),
            entry(2, "update-coor/W1", payload=(("key", Key(z=1, writer="w0")), ("bits", (("ox", 1),)))),
            (1, ("nested", Key.initial()), [2, 3]),
            {"replies": {"update-coor/W1": ("ack-coor", (("tag", 2),))}},
        ],
    )
    def test_roundtrip(self, value):
        encoded = encode_value(value)
        assert json.loads(json.dumps(encoded)) == encoded  # JSON-clean
        assert decode_value(encoded) == value

    def test_non_string_dict_key_rejected(self):
        with pytest.raises(TypeError, match="dict key"):
            encode_value({1: "x"})

    def test_unencodable_type_rejected(self):
        with pytest.raises(TypeError, match="cannot encode"):
            encode_value(object())

    def test_unknown_tag_rejected(self):
        with pytest.raises(IntegrityError, match="unknown value tag"):
            decode_value({"~": "mystery", "v": []})


# ----------------------------------------------------------------------
# File backend: reopen, torn tails, corruption
# ----------------------------------------------------------------------
def populated(path, n=4):
    store = FileStableStore(path)
    store.save_meta(2, "coor")
    for i in range(1, n + 1):
        store.log_append(i, entry(1, f"r{i}"))
    store.save_commit(n - 1)
    store.close()
    return store


class TestFileBackend:
    def test_reopen_reproduces_state(self, tmp_path):
        path = tmp_path / "m.wal"
        populated(path)
        reopened = FileStableStore(path)
        assert not reopened.recovered_tail
        assert reopened.load_meta() == (2, "coor")
        assert [i for i, _ in reopened.load_entries()] == [1, 2, 3, 4]
        assert reopened.load_commit() == 3

    def test_reopen_replays_a_conflict_truncation(self, tmp_path):
        path = tmp_path / "m.wal"
        populated(path)
        store = FileStableStore(path)
        store.log_truncate(3)
        store.log_append(3, entry(2, "r3b"))
        store.close()
        reopened = FileStableStore(path)
        assert [(i, e.request_id) for i, e in reopened.load_entries()] == [(1, "r1"), (2, "r2"), (3, "r3b")]

    def test_torn_tail_recovers_to_last_intact_record(self, tmp_path):
        path = tmp_path / "m.wal"
        populated(path)
        with open(path, "ab") as handle:
            handle.write(b'{"h": "torn-partial-wri')  # crash mid-write
        reopened = FileStableStore(path)
        assert reopened.recovered_tail
        assert [i for i, _ in reopened.load_entries()] == [1, 2, 3, 4]
        # ... and the trim is durable: a third open sees a clean journal.
        assert not FileStableStore(path).recovered_tail

    def test_torn_tail_store_stays_writable(self, tmp_path):
        path = tmp_path / "m.wal"
        populated(path, n=2)
        with open(path, "ab") as handle:
            handle.write(b"garbage-without-newline")
        reopened = FileStableStore(path)
        assert reopened.recovered_tail
        reopened.log_append(3, entry(2, "r3"))
        reopened.close()
        assert [i for i, _ in FileStableStore(path).load_entries()] == [1, 2, 3]

    def test_bit_flip_mid_chain_raises_integrity_error(self, tmp_path):
        path = tmp_path / "m.wal"
        populated(path)
        lines = path.read_bytes().splitlines()
        target = json.loads(lines[2])
        target["r"]["i"] = 99  # tamper with a record body, keep valid JSON
        lines[2] = json.dumps(target, sort_keys=True, separators=(",", ":")).encode()
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(IntegrityError, match="hash chain breaks at journal line 3"):
            FileStableStore(path)

    def test_unreadable_mid_chain_line_refuses_recovery(self, tmp_path):
        path = tmp_path / "m.wal"
        populated(path)
        lines = path.read_bytes().splitlines()
        lines[1] = b"\x00\xff not json at all"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(IntegrityError, match="mid-chain corruption"):
            FileStableStore(path)

    def test_json_that_is_not_a_journal_line_refuses_recovery(self, tmp_path):
        path = tmp_path / "m.wal"
        populated(path)
        lines = path.read_bytes().splitlines()
        lines[1] = b'{"valid": "json", "but": "no hash"}'
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(IntegrityError, match="mid-chain corruption"):
            FileStableStore(path)

    def test_unknown_record_kind_rejected(self, tmp_path):
        path = tmp_path / "m.wal"
        store = FileStableStore(path)
        store._append_record({"k": "future-kind", "x": 1})
        store.close()
        with pytest.raises(IntegrityError, match="unknown journal record kind"):
            FileStableStore(path)

    def test_compaction_rewrites_and_bounds_the_journal(self, tmp_path):
        path = tmp_path / "m.wal"
        store = FileStableStore(path)
        store.save_meta(1, "coor")
        for i in range(1, 41):
            store.log_append(i, entry(1, f"update-coor/W{i}"))
            store.save_commit(i)
        store.save_snapshot({"index": 38, "term": 1, "machine": 38, "replies": {}})
        before, after = store.last_rewrite
        assert after < before  # 38 entry records collapsed into one snap
        store.close()
        reopened = FileStableStore(path)  # the fresh chain verifies end-to-end
        assert reopened.load_snapshot()["index"] == 38
        assert [i for i, _ in reopened.load_entries()] == [39, 40]
        assert reopened.load_commit() == 40


    def test_fsync_round_trip(self, tmp_path, monkeypatch):
        """``fsync=True``: every journal append and the compacting rewrite
        reach ``os.fsync``, and the rewritten chain reopens and verifies."""
        import repro.persist.filestore as filestore

        synced = []
        real_fsync = filestore.os.fsync
        monkeypatch.setattr(filestore.os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd)))
        path = tmp_path / "m.wal"
        store = FileStableStore(path, fsync=True)
        store.save_meta(1, "coor")
        for i in range(1, 6):
            store.log_append(i, entry(1, f"r{i}"))
        store.save_commit(5)
        appended = len(synced)
        assert appended == 7  # meta + five entries + commit
        store.save_snapshot({"index": 4, "term": 1, "machine": 4, "replies": {}})
        assert len(synced) > appended  # the rewrite syncs before its rename
        before, after = store.last_rewrite
        assert after < before
        store.log_append(6, entry(1, "r6"))
        store.close()
        reopened = FileStableStore(path, fsync=True)  # the chain verifies
        assert not reopened.recovered_tail
        assert reopened.load_meta() == (1, "coor")
        assert reopened.load_snapshot()["index"] == 4
        assert [i for i, _ in reopened.load_entries()] == [5, 6]
        assert reopened.load_commit() == 5


# ----------------------------------------------------------------------
# Policy / plane plumbing
# ----------------------------------------------------------------------
class TestPolicyAndPlane:
    def test_policy_validation(self, tmp_path):
        with pytest.raises(ValueError, match="unknown persistence backend"):
            PersistencePolicy(backend="tape")
        with pytest.raises(ValueError, match="needs a root directory"):
            PersistencePolicy(backend="file")
        with pytest.raises(ValueError, match="compact_every"):
            PersistencePolicy(compact_every=0)
        policy = PersistencePolicy(backend="file", root=str(tmp_path), compact_every=4)
        assert "compact_every=4" in policy.describe()

    def test_plane_hands_out_one_store_per_member(self, tmp_path):
        plane = PersistencePlane(PersistencePolicy(backend="file", root=str(tmp_path)))
        a, b = plane.store_for("coor"), plane.store_for("coor.2")
        assert a is plane.store_for("coor") and a is not b
        assert sorted(plane.stores()) == ["coor", "coor.2"]
        assert (tmp_path / "coor.wal").parent.exists()

    def test_of_rejects_other_types(self):
        with pytest.raises(ValueError, match="PersistencePolicy or PersistencePlane"):
            PersistencePlane.of("sim")
