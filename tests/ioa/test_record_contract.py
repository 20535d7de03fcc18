"""The contract of the per-event records and of the payload freeze.

``Action``, ``Message`` and ``PendingDelivery`` are hand-written slotted
classes; everything else in the repository treats them as the frozen
dataclasses they used to be.  The twins in ``reference_freeze.py`` *are*
frozen dataclasses with the same fields, so "same ``==``, ``hash`` and
``repr``" is checked against what ``dataclasses`` generates.
"""

from __future__ import annotations

import copy
import pickle
from collections import OrderedDict, defaultdict
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ioa import Action, ActionKind, Message, PendingDelivery
from repro.ioa.actions import _freeze_payload
from tests.ioa import reference_freeze as reference

names = st.sampled_from(["r1", "w1", "sx", "sy"])
atoms = st.one_of(st.integers(-3, 3), st.sampled_from(["a", "b", ""]), st.none())
item_tuples = st.lists(st.tuples(st.sampled_from(["k", "txn", "v"]), atoms), max_size=3).map(tuple)

messages = st.builds(
    lambda *fields: (Message(*fields), reference.Message(*fields)),
    st.sampled_from(["read-val", "ack"]), names, names, item_tuples, st.integers(0, 2),
)


@st.composite
def actions(draw):
    message, twin = draw(st.one_of(st.just((None, None)), messages))
    head = (draw(st.sampled_from(list(ActionKind))), draw(names))
    tail = (draw(item_tuples), draw(st.integers(-1, 2)))
    return Action(*head, message, *tail), reference.Action(*head, twin, *tail)


@st.composite
def deliveries(draw):
    message, twin = draw(messages)
    stamps = draw(st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 2)))
    return PendingDelivery(message, *stamps), reference.PendingDelivery(twin, *stamps)


records = st.one_of(messages, actions(), deliveries())


@settings(max_examples=300, deadline=None)
@given(records, records)
def test_eq_and_hash_agree_with_the_frozen_dataclass_twin(first, second):
    (a, a_twin), (b, b_twin) = first, second
    assert (a == b) == (a_twin == b_twin)
    assert (a != b) == (a_twin != b_twin)
    assert (hash(a) == hash(b)) == (hash(a_twin) == hash(b_twin))
    assert a == copy.copy(a) and hash(a) == hash(copy.copy(a))
    assert repr(a) == repr(a_twin)


def test_equal_content_under_different_msg_ids_is_not_equal():
    a = Message("read-val", "r1", "sx", (("txn", "R1"),), 1)
    b = Message("read-val", "r1", "sx", (("txn", "R1"),), 2)
    assert a != b and a == Message("read-val", "r1", "sx", (("txn", "R1"),), 1)
    assert len({a, b, Message("read-val", "r1", "sx", (("txn", "R1"),), 1)}) == 2
    # the index is part of an action's identity, same_step ignores it
    first, second = Action(ActionKind.SEND, "r1", a, (), 0), Action(ActionKind.SEND, "r1", a, (), 5)
    assert first != second and first.same_step(second)
    assert not first.same_step(Action(ActionKind.SEND, "r1", b, (), 0))
    assert a != ("read-val", "r1", "sx", (("txn", "R1"),), 1)


MESSAGE = Message("read-val", "r1", "sx", (("txn", "R1"),), 7)
RECORDS = [
    MESSAGE,
    Action(ActionKind.RECV, "sx", MESSAGE, (("session", "R1"),), 3),
    PendingDelivery(MESSAGE, 4, 9, 2),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_immutable_slotted_and_round_trip(record):
    for name in record.__slots__:
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):  # FrozenInstanceError is one
            delattr(record, name)
    with pytest.raises(FrozenInstanceError):
        record.brand_new = 1
    assert not hasattr(record, "__dict__")
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert clone == record and clone is not record and type(clone) is type(record)


def test_keyword_and_positional_construction():
    assert Message(msg_type="m", src="a", dst="b", items=(("k", 1),), msg_id=3) == Message("m", "a", "b", (("k", 1),), 3)
    assert Message("m", "a", "b", msg_id=3).items == ()
    message = Message("m", "a", "b")
    assert Action(kind=ActionKind.SEND, actor="a", message=message, info=(("k", 1),), index=2) == Action(
        ActionKind.SEND, "a", message, (("k", 1),), 2
    )
    bare = Action(ActionKind.START, "a")
    assert (bare.message, bare.info, bare.index) == (None, (), -1)
    assert PendingDelivery(message=message, enqueued_at=1, ready_at=2, flight=3) == PendingDelivery(message, 1, 2, 3)
    assert (PendingDelivery(message, 1).ready_at, PendingDelivery(message, 1).flight) == (0, 0)


def test_repr_names_every_field():
    assert repr(MESSAGE) == "Message(msg_type='read-val', src='r1', dst='sx', items=(('txn', 'R1'),), msg_id=7)"
    assert repr(RECORDS[2]) == f"PendingDelivery(message={MESSAGE!r}, enqueued_at=4, ready_at=9, flight=2)"
    assert repr(Action(ActionKind.START, "sx")) == (
        "Action(kind=<ActionKind.START: 'start'>, actor='sx', message=None, info=(), index=-1)"
    )


def test_derived_copies_keep_their_contracts():
    action = Action.make(ActionKind.SEND, "r1", MESSAGE, {"phase": "read"})
    moved = action.with_index(9)
    assert moved.index == 9 and action.index == -1 and moved.same_step(action)
    updated = MESSAGE.with_payload(extra=[1, 2])
    assert updated.items == (("extra", (1, 2)), ("txn", "R1"))
    assert (updated.msg_type, updated.src, updated.dst) == ("read-val", "r1", "sx")
    assert updated.msg_id != MESSAGE.msg_id


def test_messages_built_outside_a_kernel_never_collide_with_a_kernels():
    first, second = Message.make("m", "a", "b"), Message("m", "a", "b")
    assert first.msg_id != second.msg_id and first.msg_id < 0 and second.msg_id < 0


# ----------------------------------------------------------------------
# payload freeze == the seed's
# ----------------------------------------------------------------------
keys = st.sampled_from(["txn", "object", "key", "value", "versions", "attempt", "z"])
leaves = st.one_of(st.integers(-2, 2), st.sampled_from(["x", "y"]), st.tuples(st.integers(0, 2), st.just("w")))
small_dicts = st.dictionaries(st.sampled_from(["b", "a", "c"]), leaves, max_size=3)
mutable = st.one_of(
    st.lists(leaves, max_size=3),
    st.sets(st.integers(0, 3), max_size=3),
    small_dicts,
    small_dicts.map(lambda d: OrderedDict(reversed(list(d.items())))),
    small_dicts.map(lambda d: defaultdict(int, d)),
    # a nested mutable stays as it is: the freeze is one level deep
    st.lists(st.lists(st.integers(0, 2), max_size=2), max_size=2),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(keys, st.one_of(leaves, mutable)), max_size=5, unique_by=lambda kv: kv[0]), st.randoms())
def test_freeze_payload_equals_the_seed(pairs, rng):
    rng.shuffle(pairs)  # unsorted key order
    for payload in (dict(pairs), OrderedDict(pairs)):
        frozen = _freeze_payload(payload)
        expected = reference.reference_freeze_payload(payload)
        assert frozen == expected
        assert [type(v) for _, v in frozen] == [type(v) for _, v in expected]
        assert [k for k, _ in frozen] == sorted(payload)
