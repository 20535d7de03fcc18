"""Tests for the protocol registry and the shared Protocol/SystemHandle surface."""

from __future__ import annotations

import pytest

from repro.protocols import (
    Protocol,
    all_protocols,
    get_protocol,
    protocol_names,
    register_protocol,
)
from repro.protocols.base import BuildConfig, reader_names, writer_names


class TestRegistry:
    def test_all_expected_protocols_registered(self):
        names = protocol_names()
        for expected in (
            "algorithm-a",
            "algorithm-b",
            "algorithm-c",
            "eiger",
            "naive-snow",
            "occ-double-collect",
            "s2pl",
            "simple-rw",
        ):
            assert expected in names

    def test_get_protocol_returns_fresh_instances(self):
        assert get_protocol("algorithm-a") is not get_protocol("algorithm-a")

    def test_unknown_protocol_raises_with_known_names(self):
        with pytest.raises(KeyError) as excinfo:
            get_protocol("does-not-exist")
        assert "algorithm-a" in str(excinfo.value)

    def test_all_protocols_instantiates_everything(self):
        protocols = all_protocols()
        assert len(protocols) == len(protocol_names())
        assert all(isinstance(p, Protocol) for p in protocols)

    def test_register_protocol_rejects_duplicates(self):
        with pytest.raises(ValueError):
            register_protocol("algorithm-a", lambda: get_protocol("algorithm-a"))

    def test_table_keys_are_the_classes_own_names(self):
        """The table's keys are literals now; they must not drift from ``.name``."""
        assert protocol_names() == (
            "algorithm-a", "algorithm-b", "algorithm-c", "eiger",
            "naive-snow", "occ-double-collect", "s2pl", "simple-rw",
        )
        for name in protocol_names():
            assert type(get_protocol(name)).name == name

    def test_unknown_protocol_message_is_the_seeds(self):
        with pytest.raises(KeyError) as excinfo:
            get_protocol("nope")
        assert excinfo.value.args == (
            "unknown protocol 'nope'; known protocols: algorithm-a, algorithm-b, algorithm-c, "
            "eiger, naive-snow, occ-double-collect, s2pl, simple-rw",
        )

    def test_names_and_refusals_need_no_protocol_module(self, fresh_python):
        """In a fresh interpreter: listing the names loads no protocol, a
        built-in name is refused before its module was ever loaded, and asking
        for one protocol loads that one."""
        report = fresh_python(
            """
import json, sys
from repro.protocols import get_protocol, protocol_names, register_protocol

def protocol_modules():
    loaded = {m.rpartition(".")[2] for m in sys.modules if m.startswith("repro.protocols.")}
    return sorted(loaded - {"base", "registry"})

report = {"names": len(protocol_names()), "after_names": protocol_modules()}
try:
    register_protocol("eiger", object)
except ValueError as error:
    report["refused"] = str(error)
report["after_refusal"] = protocol_modules()
get_protocol("simple-rw")
report["after_get"] = protocol_modules()
print(json.dumps(report))
"""
        )
        assert report == {
            "names": 8,
            "after_names": [],
            "refused": "protocol name 'eiger' is already registered",
            "after_refusal": [],
            # simple-rw subclasses the naive candidate, which builds on the replication rounds
            "after_get": ["naive_snow", "replication", "simple_rw"],
        }

    def test_register_and_use_custom_protocol(self):
        class Custom(Protocol):
            name = "custom-test-protocol"

            def make_automata(self, config):
                return get_protocol("naive-snow").make_automata(config)

        try:
            register_protocol("custom-test-protocol", Custom)
            assert "custom-test-protocol" in protocol_names()
            handle = get_protocol("custom-test-protocol").build()
            assert handle.protocol.name == "custom-test-protocol"
        finally:
            from repro.protocols import registry

            registry._FACTORIES.pop("custom-test-protocol", None)


class TestBuildConfig:
    def test_object_and_server_naming(self):
        config = BuildConfig(num_objects=2)
        assert config.objects() == ("ox", "oy")
        assert config.servers() == ("sx", "sy")
        config3 = BuildConfig(num_objects=3)
        assert config3.servers() == ("s1", "s2", "s3")

    def test_client_naming(self):
        assert reader_names(2) == ("r1", "r2")
        assert writer_names(3) == ("w1", "w2", "w3")

    def test_validate_rejects_empty_system(self):
        protocol = get_protocol("algorithm-b")
        with pytest.raises(ValueError):
            protocol.build(num_readers=0)
        with pytest.raises(ValueError):
            protocol.build(num_objects=0)
        with pytest.raises(ValueError, match="consensus_factor must be >= 1"):
            protocol.build(consensus_factor=0)
        with pytest.raises(ValueError, match="persistence attaches stable storage.*consensus_factor >= 2"):
            protocol.build(persistence=object())


class TestSystemHandle:
    def test_round_robin_client_selection(self):
        handle = get_protocol("algorithm-b").build(num_readers=2, num_writers=2)
        first = handle.submit_read()
        second = handle.submit_read()
        records = {r.txn_id: r for r in handle.transaction_records()}
        assert records[first].client != records[second].client

    def test_describe_lists_population(self):
        handle = get_protocol("algorithm-b").build(num_readers=2, num_writers=1, num_objects=3)
        text = handle.describe()
        assert "r2" in text and "w1" in text and "s3" in text

    def test_tags_empty_before_run(self):
        handle = get_protocol("algorithm-b").build()
        assert handle.tags() == {}

    def test_snow_report_and_serializability_available_after_run(self):
        handle = get_protocol("algorithm-b").build()
        w = handle.submit_write({"ox": 1, "oy": 1})
        handle.submit_read(after=[w])
        handle.run_to_completion()
        assert handle.snow_report().satisfies_snw
        assert handle.serializability().ok
