"""The per-transaction records a full run keeps carry no instance ``__dict__``.

``TransactionRecord`` (one per submitted transaction) and the transaction
values it holds — ``ReadTransaction``, ``WriteTransaction`` and the
``ReadResult`` of every READ — are slotted dataclasses.  The derived views
(``WriteTransaction.objects``/``values``, ``ReadResult.as_dict``) are
properties over cache fields kept out of ``==``, ``hash`` and ``repr``: built
on the first read, the same object on every later one, and carried along by
``copy``, ``deepcopy`` and ``pickle``.
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from repro.analysis.workload import WorkloadSpec, generate_workload, submit_workload
from repro.ioa.simulation import TransactionRecord
from repro.protocols import get_protocol
from repro.txn import ReadResult, ReadTransaction, WriteTransaction, read, write


def run_records():
    handle = get_protocol("algorithm-b").build(num_readers=2, num_writers=2, num_objects=3, seed=5)
    spec = WorkloadSpec(reads_per_reader=6, writes_per_writer=3, seed=5)
    submit_workload(handle, generate_workload(spec, handle.readers, handle.writers, handle.objects))
    handle.run_to_completion()
    return handle.transaction_records()


def test_a_run_keeps_no_instance_dict_per_transaction():
    records = run_records()
    kinds = {type(value) for record in records for value in (record, record.txn, record.result)}
    assert {TransactionRecord, ReadTransaction, WriteTransaction, ReadResult} <= kinds
    for record in records:
        for value in (record, record.txn, record.result):
            assert not hasattr(value, "__dict__"), type(value)


VIEWS = [
    (lambda: write(ox=1, oy=2, txn_id="W1"), "objects", ("ox", "oy")),
    (lambda: write(ox=1, oy=2, txn_id="W1"), "values", {"ox": 1, "oy": 2}),
    (lambda: ReadResult.from_mapping({"oy": 2, "ox": 1}), "as_dict", {"ox": 1, "oy": 2}),
]


@pytest.mark.parametrize("make, view, expected", VIEWS, ids=[v for _, v, _ in VIEWS])
def test_a_cached_view_is_shared_and_outside_eq_hash_and_repr(make, view, expected):
    cold, warm = make(), make()
    text = repr(cold)
    first = getattr(warm, view)
    assert first == expected and getattr(warm, view) is first
    assert repr(warm) == text and view not in text
    assert warm == cold and not warm != cold and hash(warm) == hash(cold)
    assert len({warm, cold}) == 1


@pytest.mark.parametrize("make, view, expected", VIEWS, ids=[v for _, v, _ in VIEWS])
def test_a_filled_cache_survives_copy_deepcopy_and_pickle(make, view, expected):
    original = make()
    getattr(original, view)
    for clone in (copy.copy(original), copy.deepcopy(original), pickle.loads(pickle.dumps(original))):
        assert clone == original and type(clone) is type(original)
        assert repr(clone) == repr(original)
        assert getattr(clone, view) == expected
        assert getattr(clone, view) is getattr(clone, view)


def test_read_transactions_stay_frozen_and_validated():
    txn = read("ox", "oy", txn_id="R1")
    assert txn.kind == "read" and not hasattr(txn, "__dict__")
    with pytest.raises(FrozenInstanceError):
        txn.objects = ("oz",)
    assert pickle.loads(pickle.dumps(txn)) == txn and hash(copy.deepcopy(txn)) == hash(txn)
    with pytest.raises(ValueError):
        ReadTransaction(objects=("ox", "ox"))
