"""Unit tests for READ/WRITE transaction value types."""

from __future__ import annotations

import pytest

from repro.txn.transactions import (
    ReadResult,
    ReadTransaction,
    WRITE_OK,
    WriteTransaction,
    is_read_transaction,
    is_write_transaction,
    read,
    write,
    write_pairs,
)


class TestReadTransaction:
    def test_read_constructor(self):
        txn = read("ox", "oy")
        assert txn.objects == ("ox", "oy")
        assert txn.is_read()
        assert not txn.is_write()
        assert txn.kind == "read"

    def test_read_requires_objects(self):
        with pytest.raises(ValueError):
            ReadTransaction(objects=())

    def test_read_rejects_duplicates(self):
        with pytest.raises(ValueError):
            read("ox", "ox")

    def test_an_id_less_transaction_is_unnamed_until_submitted(self):
        # the simulation it is submitted to names it (Simulation.submit)
        assert read("ox").txn_id == write(ox=1).txn_id == ""

    def test_explicit_txn_id_preserved(self):
        assert read("ox", txn_id="R-explicit").txn_id == "R-explicit"

    def test_describe_mentions_objects(self):
        description = read("ox", "oy", txn_id="R9").describe()
        assert "R9" in description and "ox" in description


class TestWriteTransaction:
    def test_write_constructor(self):
        txn = write(ox=1, oy=2)
        assert txn.objects == ("ox", "oy")
        assert txn.value_for("oy") == 2
        assert txn.is_write()
        assert txn.kind == "write"

    def test_write_pairs_constructor(self):
        txn = write_pairs((("ox", 1), ("oy", 2)), txn_id="W7")
        assert txn.txn_id == "W7"
        assert txn.values == {"ox": 1, "oy": 2}

    def test_write_requires_updates(self):
        with pytest.raises(ValueError):
            WriteTransaction(updates=())

    def test_write_rejects_duplicate_objects(self):
        with pytest.raises(ValueError):
            write_pairs((("ox", 1), ("ox", 2)))

    def test_write_ok_constant(self):
        assert WRITE_OK == "ok"

    def test_describe_mentions_values(self):
        assert "ox=1" in write(ox=1, txn_id="W1").describe()


class TestReadResult:
    def test_from_mapping_and_back(self):
        result = ReadResult.from_mapping({"oy": 2, "ox": 1})
        assert result.as_dict == {"ox": 1, "oy": 2}
        assert result.objects() == ("ox", "oy")

    def test_value_for(self):
        result = ReadResult.from_mapping({"ox": 1})
        assert result.value_for("ox") == 1
        with pytest.raises(KeyError):
            result.value_for("oz")

    def test_results_are_value_equal(self):
        assert ReadResult.from_mapping({"ox": 1}) == ReadResult.from_mapping({"ox": 1})

    def test_describe(self):
        assert "ox=1" in ReadResult.from_mapping({"ox": 1}).describe()


class TestPredicates:
    def test_is_read_transaction(self):
        assert is_read_transaction(read("ox"))
        assert not is_read_transaction(write(ox=1))

    def test_is_write_transaction(self):
        assert is_write_transaction(write(ox=1))
        assert not is_write_transaction(read("ox"))

    def test_predicates_reject_other_values(self):
        assert not is_read_transaction("not a txn")
        assert not is_write_transaction(42)
