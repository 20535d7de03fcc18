"""Unit tests for keys, versions and the multi-version store."""

from __future__ import annotations

import pickle
from dataclasses import make_dataclass
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus.log import LogEntry
from repro.persist import FileStableStore, decode_value, encode_value
from repro.txn.objects import (
    Key,
    Version,
    VersionStore,
    object_for_server,
    object_names,
    server_for_object,
)

#: what ``Key`` and ``Version`` were, frozen dataclasses of the same name, so
#: the named tuples are held to the ``==``, ``hash``, order and ``repr`` the
#: rest of the package was written against
KeyTwin = make_dataclass("Key", [("z", int), ("writer", str)], frozen=True, order=True)
VersionTwin = make_dataclass("Version", [("object_id", str), ("value", Any), ("key", KeyTwin)], frozen=True)

keys = st.tuples(st.integers(min_value=0, max_value=2**70), st.sampled_from(["w0", "w1", "w2", "w10", "r1"]))
values = st.one_of(st.integers(), st.text(max_size=3), st.none())


class TestKey:
    def test_initial_key(self):
        key = Key.initial()
        assert key.is_initial()
        assert key.z == 0

    def test_non_initial_key(self):
        assert not Key(3, "w1").is_initial()

    def test_ordering_is_lexicographic(self):
        assert Key(1, "w1") < Key(2, "w1")
        assert Key(1, "w1") < Key(1, "w2")

    def test_keys_are_hashable_and_equal_by_value(self):
        assert Key(1, "w1") == Key(1, "w1")
        assert len({Key(1, "w1"), Key(1, "w1"), Key(2, "w1")}) == 2

    def test_describe(self):
        assert Key(3, "w2").describe() == "(3,w2)"


class TestKeyAndVersionContract:
    """``Key`` and ``Version`` are named tuples that behave as their dataclass
    twins did: hashing and equality run in C, nothing else moves."""

    @settings(max_examples=300, deadline=None)
    @given(keys, keys, values)
    def test_equality_hash_order_and_repr_match_the_dataclass_twins(self, a, b, value):
        key_a, key_b, twin_a, twin_b = Key(*a), Key(*b), KeyTwin(*a), KeyTwin(*b)
        assert (key_a == key_b) == (twin_a == twin_b)
        assert hash(key_a) == hash(twin_a)
        assert (key_a < key_b) == (twin_a < twin_b)
        assert (key_a <= key_b) == (twin_a <= twin_b)
        assert repr(key_a) == repr(twin_a)
        version, twin = Version("ox", value, key_a), VersionTwin("ox", value, twin_a)
        assert hash(version) == hash(twin)
        assert repr(version) == repr(twin)
        assert (version == Version("ox", value, key_b)) == (twin == VersionTwin("ox", value, twin_b))

    @settings(max_examples=100, deadline=None)
    @given(keys, values)
    def test_pickle_and_keyword_construction(self, pair, value):
        key = Key(z=pair[0], writer=pair[1])
        assert key == Key(*pair) and (key.z, key.writer) == pair
        version = Version(object_id="oy", value=value, key=key)
        assert version == Version("oy", value, key) and version.key is key
        for item in (key, version):
            copy = pickle.loads(pickle.dumps(item))
            assert copy == item and type(copy) is type(item)
        assert type(pickle.loads(pickle.dumps(version)).key) is Key

    def test_a_key_is_an_immutable_tuple_equal_to_its_fields(self):
        key = Key(1, "w1")
        assert key == (1, "w1") and hash(key) == hash((1, "w1"))
        with pytest.raises(AttributeError):
            key.z = 2
        assert Key.initial() == Key(0, "w0") and Key.initial().describe() == "(0,w0)"

    def test_the_codec_round_trips_a_key_as_a_key(self):
        """A key now equals its plain tuple, so ``==`` alone cannot see a key
        decoded as a tuple: ``encode_value`` must test ``Key`` first."""
        assert encode_value(Key(3, "w1")) == {"~": "key", "v": [3, "w1"]}
        decoded = decode_value(encode_value((Key(3, "w1"), (1, "w1"))))
        assert decoded == (Key(3, "w1"), (1, "w1"))
        assert [type(item) for item in decoded] == [Key, tuple]

    def test_a_file_stable_store_reopens_a_key_as_a_key(self, tmp_path):
        path = tmp_path / "member.wal"
        store = FileStableStore(path)
        payload = (("key", Key(2, "w1")), ("bits", (("ox", 1),)))
        store.log_append(1, LogEntry(term=1, request_id="r1", msg_type="update-coor", payload=payload))
        store.close()
        ((index, entry),) = FileStableStore(path).load_entries()
        assert index == 1 and entry.payload == payload
        assert type(dict(entry.payload)["key"]) is Key


class TestVersionStore:
    def test_initial_version_present(self):
        store = VersionStore("ox", initial_value=41)
        assert len(store) == 1
        assert store.initial().value == 41
        assert store.latest().value == 41

    def test_put_and_get(self):
        store = VersionStore("ox")
        key = Key(1, "w1")
        store.put(key, "hello")
        assert store.get(key).value == "hello"
        assert key in store

    def test_get_missing_returns_none(self):
        store = VersionStore("ox")
        assert store.get(Key(9, "w9")) is None

    def test_latest_follows_insertion_order(self):
        store = VersionStore("ox")
        store.put(Key(1, "w1"), "a")
        store.put(Key(1, "w2"), "b")
        assert store.latest().value == "b"

    def test_overwrite_same_key_keeps_single_entry(self):
        store = VersionStore("ox")
        key = Key(1, "w1")
        store.put(key, "a")
        store.put(key, "b")
        assert len(store) == 2  # initial + one key
        assert store.get(key).value == "b"

    def test_all_versions_in_order(self):
        store = VersionStore("ox", initial_value=0)
        store.put(Key(1, "w1"), "a")
        store.put(Key(2, "w1"), "b")
        values = [v.value for v in store.all_versions()]
        assert values == [0, "a", "b"]

    def test_keys_listing(self):
        store = VersionStore("ox")
        store.put(Key(1, "w1"), "a")
        assert store.keys() == (Key.initial(), Key(1, "w1"))

    def test_version_describe(self):
        version = Version("ox", 5, Key(1, "w1"))
        assert "ox" in version.describe()


class TestNaming:
    def test_two_objects_are_x_and_y(self):
        assert object_names(2) == ("ox", "oy")

    def test_many_objects_are_numbered(self):
        assert object_names(3) == ("o1", "o2", "o3")
        assert object_names(1) == ("o1",)

    def test_server_for_object_round_trip(self):
        for obj in ("ox", "oy", "o1", "o7"):
            assert object_for_server(server_for_object(obj)) == obj

    def test_server_naming(self):
        assert server_for_object("ox") == "sx"
        assert server_for_object("o3") == "s3"
