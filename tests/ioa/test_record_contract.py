"""The contract of the per-event records and of the payload freeze.

``Action``, ``Message``, ``PendingDelivery``, ``PendingInvocation`` and
``PendingTimeout``, and the span tree's ``Span`` and ``CausalEdge``, are
hand-written slotted classes, each built on a writable twin and then frozen;
everything else in the repository treats them as the frozen dataclasses they
used to be.  The twins in ``reference_freeze.py`` *are*
frozen dataclasses with the same fields, so "same ``==``, ``hash`` and
``repr``" is checked against what ``dataclasses`` generates.  A message the
kernel sends and an action it records (``Trace.record``) are built from an
interned layout (shared sorted keys plus a values tuple) and must equal their
twins built from the seed's freeze; every builder's output is of the frozen
class itself, and no writable twin outlives a run; an ``ast`` pin keeps the
``info`` pair view to the few readers that need the pairs themselves.
"""

from __future__ import annotations

import ast
import copy
import gc
import pickle
import random
from collections import OrderedDict, defaultdict
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.workload import WorkloadSpec, generate_workload, submit_workload
from repro.ioa import (
    Action,
    ActionKind,
    ClientAutomaton,
    Message,
    PendingDelivery,
    PendingInvocation,
    PendingTimeout,
    ServerAutomaton,
    Simulation,
    Trace,
    TraceMode,
)
from repro.ioa.actions import _freeze_payload, _freeze_values, new_action
from repro.obs import CausalEdge, Span, derive_spans
from repro.protocols import get_protocol
from repro.txn.transactions import ReadResult
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
    stamps = draw(st.tuples(st.integers(0, 3), st.integers(0, 2)))
    return PendingDelivery(message, *stamps), reference.PendingDelivery(twin, *stamps)


invocations = st.builds(
    lambda *fields: (PendingInvocation(*fields), reference.PendingInvocation(*fields)),
    names, st.one_of(st.none(), st.sampled_from(["read", "write"])), st.sampled_from(["R1", "W2"]), st.integers(0, 2),
)

timeouts = st.builds(
    lambda *fields: (PendingTimeout(*fields), reference.PendingTimeout(*fields)),
    names, st.sampled_from([{}, {"kind": "election"}]), st.integers(0, 2), st.integers(0, 3),
)

spans = st.builds(
    lambda *fields: (Span(*fields), reference.Span(*fields)),
    st.sampled_from(["txn:R1", "txn:R1/round1"]), st.sampled_from(["read R1", "read"]),
    st.sampled_from(["txn", "round"]), names, st.integers(0, 2), st.integers(0, 3), st.one_of(st.none(), st.just("txn:R1")), item_tuples,
)
edges = st.builds(
    lambda *fields: (CausalEdge(*fields), reference.CausalEdge(*fields)),
    names, names, st.integers(0, 2), st.integers(0, 3), st.sampled_from(["read-val", "ack"]),
)

records = st.one_of(messages, actions(), deliveries(), invocations, timeouts, spans, edges)


@settings(max_examples=300, deadline=None)
@given(records, records)
def test_eq_and_hash_agree_with_the_frozen_dataclass_twin(first, second):
    (a, a_twin), (b, b_twin) = first, second
    assert (a == b) == (a_twin == b_twin)
    assert (a != b) == (a_twin != b_twin)
    # a timer's info is a dict: both hash to TypeError, as the twins do
    assert (hash_or_error(a) == hash_or_error(b)) == (hash_or_error(a_twin) == hash_or_error(b_twin))
    assert a == copy.copy(a) and hash_or_error(a) == hash_or_error(copy.copy(a))
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
    PendingDelivery(MESSAGE, 4, 9),
    PendingInvocation("r1", None, "R1", 4),
    PendingTimeout("sx", {"kind": "election"}, 5, 12),
    Span("txn:R1/round1", "read", "round", "r1", 3, 8, "txn:R1", (("sends", 2), ("replies", 2))),
    CausalEdge("r1", "sx", 3, 5, "read-val"),
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
    assert PendingDelivery(message=message, enqueued_at=1, ready_at=2) == PendingDelivery(message, 1, 2)
    assert PendingDelivery(message, 1).ready_at == 0
    assert PendingDelivery.__slots__ == ("message", "enqueued_at", "ready_at")
    assert PendingInvocation(client="r1", txn=None, txn_id="R1", enqueued_at=2) == PendingInvocation("r1", None, "R1", 2)
    assert PendingInvocation.__slots__ == ("client", "txn", "txn_id", "enqueued_at")
    assert PendingTimeout(owner="sx", info={}, enqueued_at=1, ready_at=4) == PendingTimeout("sx", {}, 1, 4)
    assert PendingTimeout.__slots__ == ("owner", "info", "enqueued_at", "ready_at")
    assert Span(span_id="s", name="n", kind="txn", actor="r1", start=1, end=2, parent="p", attrs=(("k", 1),)) == Span(
        "s", "n", "txn", "r1", 1, 2, "p", (("k", 1),)
    )
    assert (Span("s", "n", "txn", "r1", 1, 2).parent, Span("s", "n", "txn", "r1", 1, 2).attrs) == (None, ())
    assert CausalEdge(src="a", dst="b", send_index=1, recv_index=2, msg_type="m") == CausalEdge("a", "b", 1, 2, "m")


def test_repr_names_every_field():
    assert repr(MESSAGE) == "Message(msg_type='read-val', src='r1', dst='sx', items=(('txn', 'R1'),), msg_id=7)"
    assert repr(RECORDS[2]) == f"PendingDelivery(message={MESSAGE!r}, enqueued_at=4, ready_at=9)"
    assert repr(RECORDS[3]) == "PendingInvocation(client='r1', txn=None, txn_id='R1', enqueued_at=4)"
    assert repr(RECORDS[4]) == "PendingTimeout(owner='sx', info={'kind': 'election'}, enqueued_at=5, ready_at=12)"
    assert repr(RECORDS[5]) == (
        "Span(span_id='txn:R1/round1', name='read', kind='round', actor='r1', start=3, end=8, "
        "parent='txn:R1', attrs=(('sends', 2), ('replies', 2)))"
    )
    assert repr(RECORDS[6]) == "CausalEdge(src='r1', dst='sx', send_index=3, recv_index=5, msg_type='read-val')"
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
# every builder hands out the frozen class, and no writable twin survives
# ----------------------------------------------------------------------
FROZEN = (Message, Action, PendingDelivery, PendingInvocation, PendingTimeout, Span, CausalEdge)


def built_records():
    """``(builder, record, frozen class, reference twin)`` for each way a
    record is built: the kernel's inline builders, ``new_action``,
    ``with_index``, the span tree's and the public constructors."""
    simulation = kernel()
    txn = "t1"  # equal to its copies, as the pickle round trip below needs
    simulation.submit("r1", txn, txn_id="R1")
    (invocation,) = simulation.pending_events()
    sent = simulation._send_from("r1", "sx", "read-val", {"txn": "R1", "object": [1]})
    (delivery,) = simulation.pending_deliveries()
    recorded = simulation.trace[-1]
    timer = simulation.set_timeout("sx", 3, {"kind": "t"})
    later = simulation.reschedule_timeout(timer, 9)
    twin_message = reference.Message("read-val", "r1", "sx", (("object", (1,)), ("txn", "R1")), sent.msg_id)
    twin_send = reference.Action(ActionKind.SEND, "r1", twin_message, (), recorded.index)
    yield "PayloadLayouts.message", sent, Message, twin_message
    yield "Trace.record", recorded, Action, twin_send
    yield "Action.with_index", recorded.with_index(5), Action, reference.Action(
        ActionKind.SEND, "r1", twin_message, (), 5
    )
    yield "new_action", new_action(ActionKind.INTERNAL, "sx", None, ("k",), (1,)), Action, reference.Action(
        ActionKind.INTERNAL, "sx", None, (("k", 1),)
    )
    yield "enqueue_delivery", delivery, PendingDelivery, reference.PendingDelivery(twin_message, delivery.enqueued_at)
    yield "_refresh_ready", invocation, PendingInvocation, reference.PendingInvocation(
        "r1", txn, "R1", invocation.enqueued_at
    )
    yield "set_timeout", timer, PendingTimeout, reference.PendingTimeout("sx", {"kind": "t"}, timer.enqueued_at, 3)
    yield "reschedule_timeout", later, PendingTimeout, reference.PendingTimeout(
        "sx", {"kind": "t"}, later.enqueued_at, 9
    )
    handle = get_protocol("algorithm-b").build(num_readers=1, num_writers=1, num_objects=2, seed=3)
    submit_workload(handle, generate_workload(WorkloadSpec(2, 1, seed=3), handle.readers, handle.writers, handle.objects))
    handle.run()
    tree = derive_spans(handle.simulation)
    for kind in ("txn", "round"):
        span = tree.of_kind(kind)[0]
        yield f"derive_spans {kind}", span, Span, reference.Span(*Span._fields(span))
    edge = tree.edges[0]
    yield "derive_spans edge", edge, CausalEdge, reference.CausalEdge(*CausalEdge._fields(edge))
    for record in RECORDS:
        yield f"{type(record).__name__}()", record, type(record), None


def test_every_builder_hands_out_the_frozen_class():
    seen = set()
    for builder, record, cls, twin in built_records():
        seen.add(cls)
        assert type(record) is cls and type(record) is not cls._writable, builder
        if twin is not None:
            assert repr(record) == repr(twin), builder
            assert (hash_or_error(record) is TypeError) == (hash_or_error(twin) is TypeError), builder
        assert record == copy.copy(record) == pickle.loads(pickle.dumps(record)), builder
        for name in record.__slots__:
            with pytest.raises(FrozenInstanceError):
                setattr(record, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(record, name)
    assert seen == set(FROZEN)


def test_the_writable_twin_has_the_frozen_layout():
    for cls in FROZEN:
        twin = cls._writable
        assert twin.__bases__ == cls.__bases__ and twin.__slots__ == cls.__slots__
        assert twin.__setattr__ is object.__setattr__ and twin.__delattr__ is object.__delattr__


def test_no_writable_twin_outlives_a_run():
    """Mid-run (a full frontier) and after, every record in the trace, the
    frontier and the span tree, and every object the collector tracks, is of
    a frozen class."""
    from tests.faults.perf_chaos_cell import workloads

    workload = workloads.WORKLOADS["chaos"]
    (cell,) = workload.cells
    handle = workloads.build_cell(workload, cell, 5, 40, workloads.Parts())
    workloads.load_cell(handle, cell, 5, 40)
    simulation = handle.simulation
    writable = {cls._writable for cls in FROZEN}
    for budget in (300, None):
        simulation.run(max_new_steps=budget)
        frontier = simulation._frontier
        held = [*simulation.trace, *frontier.deliveries(), *frontier.timeouts(), *frontier._ready.values()]
        held += [action.message for action in simulation.trace if action.message is not None]
        held += [delivery.message for delivery in frontier.deliveries()]
        if budget is not None:
            assert frontier.deliveries() and frontier.timeouts()  # the mid-run frontier holds both
        tree = derive_spans(simulation)
        held += [*tree.spans, *tree.edges]
        assert {type(record) for record in held} <= set(FROZEN)
        assert not [obj for obj in gc.get_objects() if type(obj) in writable]


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


# ----------------------------------------------------------------------
# a message the kernel sends == one built from the seed's freeze
# ----------------------------------------------------------------------
class Tags(list):
    pass


class Marks(set):
    pass


payload_values = st.one_of(
    leaves,
    mutable,
    st.lists(leaves, max_size=2).map(Tags),
    st.sets(st.integers(0, 3), max_size=2).map(Marks),
)
payloads = st.lists(st.tuples(keys, payload_values), max_size=5, unique_by=lambda kv: kv[0])


def kernel():
    simulation = Simulation()
    simulation.add_automaton(ClientAutomaton("r1"))
    simulation.add_automaton(ServerAutomaton("sx"))
    return simulation


def hash_or_error(record):
    try:
        return hash(record)
    except TypeError:  # a nested mutable survives the one-level freeze
        return TypeError


@settings(max_examples=300, deadline=None)
@given(payloads, st.randoms())
@example([], random.Random(0))
@example([("txn", "R1")], random.Random(0))
@example([("z", [1]), ("txn", {"b": 1, "a": 2}), ("key", {3, 1})], random.Random(1))
def test_a_sent_message_equals_one_built_from_the_seed_freeze(pairs, rng):
    simulation = kernel()
    orders = [dict(pairs)]
    rng.shuffle(pairs)  # the same key set in another insertion order
    orders.append(dict(pairs))
    for payload in orders:
        sent = simulation._send_from("r1", "sx", "read-val", payload)
        frozen = reference.reference_freeze_payload(payload)
        built = Message("read-val", "r1", "sx", frozen, sent.msg_id)
        twin = reference.Message("read-val", "r1", "sx", frozen, sent.msg_id)
        assert sent == built and not sent != built
        assert hash_or_error(sent) == hash_or_error(built)
        assert (hash_or_error(twin) is TypeError) == (hash_or_error(sent) is TypeError)
        assert repr(sent) == repr(built) == repr(twin)
        assert sent.items == frozen
        assert [type(v) for _, v in sent.items] == [type(v) for _, v in frozen]
        assert sent.payload == dict(frozen)
        for key in ("txn", "z", "absent"):
            assert sent.get(key) == dict(frozen).get(key)
            assert sent.get(key, "default") == dict(frozen).get(key, "default")
        updated, other = sent.with_payload(z=[1, 2], extra=2), built.with_payload(z=[1, 2], extra=2)
        assert updated.items == other.items == reference.reference_freeze_payload({**dict(frozen), "z": [1, 2], "extra": 2})
        assert (updated.msg_type, updated.src, updated.dst) == ("read-val", "r1", "sx")
        for clone in (copy.copy(sent), copy.deepcopy(sent), pickle.loads(pickle.dumps(sent))):
            assert clone == sent and repr(clone) == repr(sent)
            assert hash_or_error(clone) == hash_or_error(sent)


def test_a_simulation_shares_each_key_set_and_keeps_no_pairs():
    """What a retained message costs: its values, not one pair per key."""
    simulation = kernel()
    first = simulation._send_from("r1", "sx", "m", {"txn": "R1", "object": "x"})
    again = simulation._send_from("r1", "sx", "m", {"object": "y", "txn": "R2"})
    assert first.keys == ("object", "txn") and again.keys is first.keys
    assert kernel()._send_from("r1", "sx", "m", {"txn": "R3", "object": "z"}).keys is not first.keys

    protocol = get_protocol("algorithm-b")
    handle = protocol.build(num_readers=2, num_writers=2, num_objects=3, seed=7)
    spec = WorkloadSpec(reads_per_reader=20, writes_per_writer=5, seed=7)
    submit_workload(handle, generate_workload(spec, handle.readers, handle.writers, handle.objects))
    handle.run()
    shared = {}
    messages = [action.message for action in handle.simulation.trace if action.message is not None]
    assert messages
    for message in messages:
        assert shared.setdefault(frozenset(message.keys), message.keys) is message.keys
        for referent in gc.get_referents(message):
            if isinstance(referent, tuple):
                assert not any(
                    type(element) is tuple and len(element) == 2 and element[0] in message.keys
                    for element in referent
                ), referent


# ----------------------------------------------------------------------
# an action the kernel appends == one built from the seed's freeze
# ----------------------------------------------------------------------
kinds = st.sampled_from(list(ActionKind))


@settings(max_examples=300, deadline=None)
@given(payloads, st.randoms(), kinds, st.booleans())
@example([], random.Random(0), ActionKind.INTERNAL, False)
@example([("txn", "R1"), ("txn_kind", "read")], random.Random(0), ActionKind.INVOKE, False)
@example([("z", Tags([1])), ("txn", {"b": 1}), ("key", Marks({3}))], random.Random(1), ActionKind.RECV, True)
def test_an_appended_action_equals_one_built_from_the_seed_freeze(pairs, rng, kind, with_message):
    simulation = kernel()
    message = simulation._send_from("r1", "sx", "read-val", {"txn": "R9", "object": "x"}) if with_message else None
    twin_message = message and reference.Message("read-val", "r1", "sx", message.items, message.msg_id)
    orders = [dict(pairs)]
    rng.shuffle(pairs)  # the same key set in another insertion order
    orders.append(dict(pairs))
    for info in orders:
        if kind is ActionKind.INTERNAL and message is None:
            simulation._record_internal("r1", info)
            appended = simulation.trace[-1]
        else:
            keys, take = simulation._layouts[tuple(info)]  # what _record_internal records
            appended = simulation.trace.record(kind, "r1", message, keys, _freeze_values(take(info)))
        frozen = reference.reference_freeze_payload(info)
        built = Action(kind, "r1", message, frozen, appended.index)
        twin = reference.Action(kind, "r1", twin_message, frozen, appended.index)
        assert appended == built and not appended != built
        assert hash_or_error(appended) == hash_or_error(built)
        assert (hash_or_error(twin) is TypeError) == (hash_or_error(appended) is TypeError)
        assert repr(appended) == repr(built) == repr(twin)
        assert appended.info == frozen == twin.info
        assert [type(v) for _, v in appended.info] == [type(v) for _, v in frozen]
        assert appended.info_map == dict(frozen)
        payload = message.payload if message is not None else {}
        for key in ("txn", "z", "object", "absent"):
            expected = dict(frozen)[key] if key in dict(frozen) else payload.get(key)
            assert appended.get(key) == expected
            fallback = dict(frozen)[key] if key in dict(frozen) else payload.get(key, "default")
            assert appended.get(key, "default") == fallback
        assert appended.same_step(built.with_index(99)) and built.same_step(appended)
        moved = appended.with_index(appended.index + 7)
        assert moved == Action(kind, "r1", message, frozen, appended.index + 7)
        assert moved.info_keys is appended.info_keys and moved.same_step(appended)
        for clone in (copy.copy(appended), copy.deepcopy(appended), pickle.loads(pickle.dumps(appended))):
            assert clone == appended and repr(clone) == repr(appended)
            assert hash_or_error(clone) == hash_or_error(appended)


def test_a_simulation_shares_each_info_key_set_and_keeps_no_pairs():
    """What a retained action costs: its info values, not one pair per key."""
    simulation = kernel()
    simulation._record_internal("r1", {"txn": "R1", "object": "x"})
    simulation._record_internal("sx", {"object": "y", "txn": "R2"})
    first, again = simulation.trace[-2], simulation.trace[-1]
    assert first.info_keys == ("object", "txn") and again.info_keys is first.info_keys

    protocol = get_protocol("algorithm-b")
    handle = protocol.build(num_readers=2, num_writers=2, num_objects=3, seed=7)
    spec = WorkloadSpec(reads_per_reader=20, writes_per_writer=5, seed=7)
    submit_workload(handle, generate_workload(spec, handle.readers, handle.writers, handle.objects))
    handle.run()
    shared = {}
    seen = set()
    for action in handle.simulation.trace:
        keys = action.info_keys
        assert shared.setdefault(frozenset(keys), keys) is keys
        seen.add((action.kind, keys))
        for referent in gc.get_referents(action):
            if isinstance(referent, tuple) and referent is not keys:
                pairs = (referent,) + tuple(e for e in referent if type(e) is tuple)
                assert not any(len(p) == 2 and p[0] in keys for p in pairs), referent
    assert {kind for kind, keys in seen if keys} == {
        ActionKind.SEND, ActionKind.RECV, ActionKind.INVOKE, ActionKind.RESPOND
    }


@pytest.mark.parametrize("mode", [TraceMode.full(), TraceMode.ring(3)], ids=lambda mode: mode.describe())
def test_record_equals_append_of_a_made_action(mode):
    """``Trace.record`` is ``append(Action.make(...))`` in one call: the same
    stored action at the same index, the same eviction, one observer call."""
    steps = [
        (ActionKind.START, "r1", None, {}),
        (ActionKind.SEND, "r1", MESSAGE, {"phase": "read"}),
        (ActionKind.RECV, "sx", MESSAGE, {"session": "R1"}),
        (ActionKind.INVOKE, "r1", None, {"txn_kind": "read", "txn": "R1"}),
        (ActionKind.INTERNAL, "sx", None, {"z": [1, 2], "k": {3}}),
        (ActionKind.RESPOND, "r1", None, {"txn": "R1", "result": (("x", 1),)}),
    ]
    recorded, appended = Trace(mode=mode), Trace(mode=mode)
    recorded_seen, appended_seen = [], []
    recorded.set_observer(recorded_seen.append)
    appended.set_observer(appended_seen.append)
    for count, (kind, actor, message, info) in enumerate(steps, start=1):
        frozen = _freeze_payload(info)
        keys, values = tuple(k for k, _ in frozen), tuple(v for _, v in frozen)
        stored = recorded.record(kind, actor, message, keys, values)
        expected = appended.append(Action.make(kind, actor, message, info))
        assert stored == expected and repr(stored) == repr(expected)
        assert stored.index == expected.index == count - 1
        assert recorded[-1] is stored
        assert len(recorded_seen) == len(appended_seen) == count and recorded_seen[-1] is stored
    assert list(recorded) == list(appended) == appended_seen[-len(recorded):]
    assert recorded.total_appended == appended.total_appended == len(steps)
    assert [action.index for action in recorded] == list(range(len(steps)))[-len(recorded):]
    assert len(recorded) == (3 if mode.kind == "ring" else len(steps))


class Returns(ClientAutomaton):
    """A client whose every transaction responds at once with ``txn.result``."""

    def run_transaction(self, txn, ctx):
        return txn.result
        yield  # a generator that yields no effect


class Returning:
    def __init__(self, kind, result):
        self.kind, self.result = kind, result


RESULTS = [
    {"y": 2, "x": [1]},
    [3, 1],
    {4, 2},
    ReadResult.from_mapping({"y": 5, "x": 6}),
    frozenset({7}),
]


def test_invocations_and_responses_equal_the_dict_form():
    """``INV``/``RESP`` infos come from interned key tuples; each equals
    ``Action.make`` of the info dict the kernel used to build per
    transaction, whatever the result's type."""
    simulation = Simulation()
    simulation.add_automaton(Returns("c1"))
    txns = [Returning("read", result) for result in RESULTS] + [Returning(["odd"], None)]
    for number, txn in enumerate(txns):
        simulation.submit("c1", txn, txn_id=f"T{number}")
    simulation.run_to_completion()
    invokes = simulation.trace.of_kind(ActionKind.INVOKE)
    responds = simulation.trace.of_kind(ActionKind.RESPOND)
    assert len(invokes) == len(responds) == len(txns)
    for number, (txn, invoke, respond) in enumerate(zip(txns, invokes, responds)):
        txn_id = f"T{number}"
        expected = Action.make(ActionKind.INVOKE, "c1", None, {"txn": txn_id, "txn_kind": txn.kind}, invoke.index)
        assert invoke == expected and repr(invoke) == repr(expected)
        result = txn.result
        if isinstance(result, dict):  # the old per-transaction info dict froze the result first
            result = tuple(sorted(result.items()))
        elif isinstance(result, list):
            result = tuple(result)
        expected = Action.make(ActionKind.RESPOND, "c1", None, {"txn": txn_id, "result": result}, respond.index)
        assert respond == expected and repr(respond) == repr(expected)
        assert [type(v) for v in respond.info_values] == [type(v) for v in expected.info_values]
        assert simulation.transaction_record(txn_id).result is txn.result
    assert invokes[0].info_keys is invokes[-1].info_keys
    assert responds[0].info_keys is responds[-1].info_keys
    assert hash(responds[2]) == hash(Action.make(ActionKind.RESPOND, "c1", None, {"txn": "T2", "result": {4, 2}}, responds[2].index))


# ----------------------------------------------------------------------
# no per-action code rebuilds the pair view
# ----------------------------------------------------------------------
SRC = Path(__file__).resolve().parents[2] / "src"


def info_readers():
    """Every ``<expr>.info`` read (not a store) under ``src/repro``, as
    ``(module, enclosing scope, receiver)``."""
    found = set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = path.relative_to(SRC).as_posix()

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = scope + (child.name,)
                elif isinstance(child, ast.Attribute) and child.attr == "info" and isinstance(child.ctx, ast.Load):
                    found.add((module, ".".join(scope), ast.unparse(child.value)))
                visit(child, inner)

        visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return found


def test_only_the_action_and_the_trace_signature_read_the_info_pairs():
    assert info_readers() == {
        ("repro/ioa/actions.py", "Action.__repr__", "self"),
        ("repro/ioa/actions.py", "Action.__reduce__", "self"),
        ("repro/ioa/trace.py", "Trace.signature", "action"),
        # not an action's info: a timer's keyword dict
        ("repro/ioa/simulation.py", "Simulation.reschedule_timeout", "timeout"),
        ("repro/ioa/simulation.py", "Simulation._fire_timeout", "timeout"),
    }
