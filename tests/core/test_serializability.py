"""Unit tests for the semantic strict-serializability checker."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.serializability import check_strict_serializability
from repro.txn.datatype import run_serial
from repro.txn.history import History, HistoryEntry
from repro.txn.transactions import ReadResult, WRITE_OK, read, write, write_pairs

from tests.core import reference_serializability as reference


def entry(txn, client, invoke, respond, result=None):
    return HistoryEntry(txn=txn, client=client, invoke_index=invoke, respond_index=respond, result=result)


def history(entries, objects=("ox", "oy"), initial=0):
    return History(entries, objects=objects, initial_value=initial)


def rr(**values):
    return ReadResult.from_mapping(values)


class TestAcceptedHistories:
    def test_empty_history(self):
        result = check_strict_serializability(history([]))
        assert result.ok
        assert result.witness_order == ()

    def test_single_read_of_initial_values(self):
        h = history([entry(read("ox", "oy", txn_id="R1"), "r", 0, 1, rr(ox=0, oy=0))])
        assert check_strict_serializability(h).ok

    def test_write_then_read_sequential(self):
        h = history(
            [
                entry(write(ox=1, oy=1, txn_id="W1"), "w", 0, 1, WRITE_OK),
                entry(read("ox", "oy", txn_id="R1"), "r", 2, 3, rr(ox=1, oy=1)),
            ]
        )
        result = check_strict_serializability(h)
        assert result.ok
        assert result.witness_order == ("W1", "R1")

    def test_concurrent_read_may_see_old_or_new(self):
        for observed in (rr(ox=0, oy=0), rr(ox=1, oy=1)):
            h = history(
                [
                    entry(write(ox=1, oy=1, txn_id="W1"), "w", 0, 5, WRITE_OK),
                    entry(read("ox", "oy", txn_id="R1"), "r", 1, 4, observed),
                ]
            )
            assert check_strict_serializability(h).ok

    def test_two_writers_and_interleaved_reads(self):
        h = history(
            [
                entry(write(ox=1, oy=1, txn_id="W1"), "w1", 0, 1, WRITE_OK),
                entry(write(ox=2, oy=2, txn_id="W2"), "w2", 2, 3, WRITE_OK),
                entry(read("ox", "oy", txn_id="R1"), "r1", 4, 5, rr(ox=2, oy=2)),
                entry(read("ox", txn_id="R2"), "r2", 4, 6, rr(ox=2)),
            ]
        )
        assert check_strict_serializability(h).ok

    def test_partial_object_writes(self):
        h = history(
            [
                entry(write(ox=1, txn_id="W1"), "w1", 0, 1, WRITE_OK),
                entry(write(oy=5, txn_id="W2"), "w2", 2, 3, WRITE_OK),
                entry(read("ox", "oy", txn_id="R1"), "r", 4, 5, rr(ox=1, oy=5)),
            ]
        )
        assert check_strict_serializability(h).ok

    def test_incomplete_transactions_are_ignored(self):
        h = history(
            [
                entry(write(ox=1, oy=1, txn_id="W1"), "w", 0, None, None),
                entry(read("ox", "oy", txn_id="R1"), "r", 2, 3, rr(ox=0, oy=0)),
            ]
        )
        assert check_strict_serializability(h).ok

    def test_witness_order_respects_real_time(self):
        h = history(
            [
                entry(write(ox=1, oy=1, txn_id="W1"), "w", 0, 1, WRITE_OK),
                entry(write(ox=2, oy=2, txn_id="W2"), "w", 2, 3, WRITE_OK),
                entry(read("ox", "oy", txn_id="R1"), "r", 4, 5, rr(ox=2, oy=2)),
            ]
        )
        result = check_strict_serializability(h)
        assert result.ok
        assert result.witness_order.index("W1") < result.witness_order.index("W2")
        assert result.witness_order.index("W2") < result.witness_order.index("R1")


class TestRejectedHistories:
    def test_fractured_read_rejected(self):
        """A read that sees a write on one object but not the other."""
        h = history(
            [
                entry(write(ox=1, oy=1, txn_id="W1"), "w", 0, 1, WRITE_OK),
                entry(read("ox", "oy", txn_id="R1"), "r", 2, 3, rr(ox=1, oy=0)),
            ]
        )
        result = check_strict_serializability(h)
        assert not result.ok
        assert result.violations

    def test_stale_read_after_write_rejected(self):
        h = history(
            [
                entry(write(ox=1, oy=1, txn_id="W1"), "w", 0, 1, WRITE_OK),
                entry(read("ox", "oy", txn_id="R1"), "r", 2, 3, rr(ox=0, oy=0)),
            ]
        )
        assert not check_strict_serializability(h).ok

    def test_read_going_backwards_rejected(self):
        """Two sequential reads must not observe versions in reverse order."""
        h = history(
            [
                entry(write(ox=1, oy=1, txn_id="W1"), "w", 0, 10, WRITE_OK),
                entry(read("ox", "oy", txn_id="R1"), "r1", 1, 2, rr(ox=1, oy=1)),
                entry(read("ox", "oy", txn_id="R2"), "r2", 3, 4, rr(ox=0, oy=0)),
            ]
        )
        assert not check_strict_serializability(h).ok

    def test_value_from_nowhere_rejected(self):
        h = history(
            [
                entry(read("ox", txn_id="R1"), "r", 0, 1, rr(ox=99)),
            ]
        )
        result = check_strict_serializability(h)
        assert not result.ok
        assert any("no WRITE transaction produced" in v for v in result.violations)

    def test_read_of_future_write_rejected(self):
        """A read that completes before the write is invoked cannot see its value."""
        h = history(
            [
                entry(read("ox", "oy", txn_id="R1"), "r", 0, 1, rr(ox=1, oy=1)),
                entry(write(ox=1, oy=1, txn_id="W1"), "w", 2, 3, WRITE_OK),
            ]
        )
        assert not check_strict_serializability(h).ok

    def test_eiger_style_mixed_versions_rejected(self):
        """The Figure 5 anomaly expressed directly as a history."""
        h = history(
            [
                entry(write(oy="b1", txn_id="W1"), "w1", 0, 1, WRITE_OK),
                entry(write(oy="b2", txn_id="W2"), "w1", 2, 3, WRITE_OK),
                entry(write(ox="a3", txn_id="W3"), "w2", 4, 5, WRITE_OK),
                entry(read("ox", "oy", txn_id="R1"), "r", 1, 6, rr(ox="a3", oy="b1")),
            ],
            initial="init",
        )
        result = check_strict_serializability(h)
        assert not result.ok

    def test_diagnosis_mentions_version_mixing(self):
        h = history(
            [
                entry(write(oy="b1", txn_id="W1"), "w1", 0, 1, WRITE_OK),
                entry(write(oy="b2", txn_id="W2"), "w1", 2, 3, WRITE_OK),
                entry(write(ox="a3", txn_id="W3"), "w2", 4, 5, WRITE_OK),
                entry(read("ox", "oy", txn_id="R1"), "r", 1, 6, rr(ox="a3", oy="b1")),
            ],
            initial="init",
        )
        result = check_strict_serializability(h)
        assert any("mixes versions" in v or "no total order" in v for v in result.violations)

    def test_describe_formats(self):
        good = check_strict_serializability(history([]))
        assert "strictly serializable" in good.describe()
        bad = check_strict_serializability(
            history([entry(read("ox", txn_id="R1"), "r", 0, 1, rr(ox=5))])
        )
        assert "NOT" in bad.describe()


class TestSearchBehaviour:
    def test_state_memoisation_handles_commuting_writes(self):
        """Many concurrent writers with identical values do not blow up the search."""
        entries = []
        for index in range(6):
            entries.append(entry(write(ox=1, txn_id=f"W{index}"), f"w{index}", 0, 20, WRITE_OK))
        entries.append(entry(read("ox", txn_id="R1"), "r", 21, 22, rr(ox=1)))
        h = history(entries, objects=("ox",))
        result = check_strict_serializability(h)
        assert result.ok

    def test_max_states_aborts_gracefully(self):
        entries = [
            entry(write(ox=i, txn_id=f"W{i}"), f"w{i}", 0, 50, WRITE_OK) for i in range(6)
        ]
        entries.append(entry(read("ox", txn_id="R1"), "r", 0, 50, rr(ox=3)))
        h = history(entries, objects=("ox",))
        result = check_strict_serializability(h, max_states=3)
        assert not result.ok
        assert any("aborted" in v for v in result.violations)


# ----------------------------------------------------------------------
# The positional search equals the seed's OTState search
# ----------------------------------------------------------------------
#: deliberately not in sorted order: the state tuple follows ``history.objects``
OBJECTS = ("o2", "o3", "o1")
UNBOUNDED = 2_000_000
#: equal to nothing, itself included — but a READ that returns this very object
#: matches the state holding it, because dicts (the oracle's comparison) and
#: the positional compare both try identity first
NAN = float("nan")


def reshaped(draw, txn, correct):
    """``correct`` (object -> value, what the serial order returns) in one of
    the forms a history may carry a READ's result in, right or wrong."""
    form = draw(
        st.sampled_from(
            ("result", "mapping", "floats", "positional", "none", "missing", "extra", "short", "long", "wrong")
        )
    )
    if form == "result":
        return ReadResult.from_mapping(correct)
    if form == "mapping":
        return dict(correct)
    if form == "floats":  # equal to what was written, not identical to it
        return {obj: float(value) for obj, value in correct.items()}
    if form == "positional":
        return [correct[obj] for obj in txn.objects]
    if form == "none":
        return None
    if form == "missing":  # the remaining values are right: only the key set tells
        return {obj: correct[obj] for obj in txn.objects[1:]}
    if form == "extra":
        return {**correct, draw(st.sampled_from(("ghost",) + OBJECTS)): 0}
    if form == "short":
        return tuple(correct[obj] for obj in txn.objects[:-1])
    if form == "long":  # zip stops at the READ's objects: the surplus is ignored
        return [correct[obj] for obj in txn.objects] + [7]
    changed = draw(st.sampled_from(txn.objects))
    return ReadResult.from_mapping({**correct, changed: correct[changed] + 1})


@st.composite
def searched_histories(draw):
    """``(entries, objects)`` of a history built from a serial order over three
    objects whose WRITEs store 0, 1 or ``NAN`` — the initial value included, so
    distinct write orders reach equal states — stretched in real time until up
    to six transactions overlap.  READ results take every form :func:`reshaped`
    knows; some READs name an object outside ``history.objects``; some entries
    respond before they are invoked; history order is a permutation."""
    count = draw(st.integers(min_value=1, max_value=7))
    txns = []
    for index in range(count):
        subset = draw(st.lists(st.sampled_from(OBJECTS), min_size=1, max_size=3, unique=True))
        if draw(st.booleans()):
            txns.append(read(*subset, txn_id=f"T{index}"))
        else:
            txns.append(write_pairs(tuple((obj, draw(st.sampled_from((0, 1, 1, NAN)))) for obj in subset), txn_id=f"T{index}"))
    responses, _ = run_serial(txns, OBJECTS, initial_value=0)
    reach = draw(st.sampled_from((2, 15, 30)))  # 30: six neighbours overlap
    entries = []
    for position, (txn, response) in enumerate(zip(txns, responses)):
        result = reshaped(draw, txn, response.as_dict) if txn.is_read() else WRITE_OK
        invoke = 10 * position - draw(st.integers(0, reach))
        respond = 10 * position + draw(st.integers(1, reach))
        if draw(st.integers(0, 9)) == 0:
            invoke, respond = respond, invoke
        entries.append(entry(txn, f"c{position % 3}", invoke, respond, result))
    if draw(st.booleans()):
        ghost = read(*draw(st.sampled_from((("ghost",), ("o1", "ghost"), ("ghost", "o3")))), txn_id="Tghost")
        at = 10 * draw(st.integers(0, count))
        result = draw(st.sampled_from((None, {"ghost": 0}, [0, 0])))
        entries.append(entry(ghost, "cg", at - draw(st.integers(0, reach)), at + draw(st.integers(1, reach)), result))
    return draw(st.permutations(entries)), OBJECTS


def outcome(check, entries, objects, max_states):
    """What ``check`` says about a fresh history (nothing kept from an earlier
    call): the result's fields, or the exception's type and text."""
    try:
        result = check(History(entries, objects=objects, initial_value=0), max_states)
    except Exception as error:  # noqa: BLE001 - the oracle decides what is legal
        return type(error), str(error)
    return result.ok, result.witness_order, result.explored_states, result.violations


@settings(max_examples=400, deadline=None)
@given(searched_histories(), st.one_of(st.integers(min_value=1, max_value=12), st.just(UNBOUNDED)))
def test_positional_search_equals_the_otstate_oracle(drawn, max_states):
    """``src/`` searches over a tuple of values with per-transaction
    ``(position, value)`` pairs; ``reference_serializability`` keeps the
    seed's search over ``OTState``.  Verdict, witness order, explored-state
    count, violation text and any exception (type and text) must be equal.

    Mutants of ``repro.core.serializability`` this must kill (each was run):
    the key-set test dropped from a READ's expectation (a mapping with a
    missing key then matches on the values it has); a WRITE's positions taken
    from ``sorted(history.objects)`` while a READ's follow ``history.objects``
    (renumbering *both* alike only relabels the state tuple — an equivalent
    mutant); the unknown-object error raised while precomputing rather than
    when the search reaches the READ; the value compare reduced to ``is not``
    alone (``1.0`` for a written ``1``) or to ``!=`` alone (``NAN``).  The two
    mutants of the *reuse rule* (``<`` for ``<=``; an aborted result kept) die
    in ``test_one_verdict_per_history.py``.
    """
    entries, objects = drawn
    assert outcome(check_strict_serializability, entries, objects, max_states) == outcome(
        reference.check_strict_serializability, entries, objects, max_states
    )


def test_generated_histories_cover_the_cases_the_property_names():
    """The generator really produces what the property's docstring lists."""
    seen = set()

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(searched_histories())
    def collect(drawn):
        entries, objects = drawn
        result_or_error = outcome(reference.check_strict_serializability, entries, objects, UNBOUNDED)
        seen.add("raises" if isinstance(result_or_error[0], type) else ("ok" if result_or_error[0] else "rejected"))
        if any(e.respond_index < e.invoke_index for e in entries):
            seen.add("responds-before-invoked")
        if max(sum(1 for other in entries if other.overlaps(e)) for e in entries) >= 6:
            seen.add("window-of-six")
        for e in entries:
            if e.txn.is_read() and isinstance(e.result, dict) and set(e.result) != set(e.txn.objects):
                seen.add("key-set-mismatch")

    collect()
    assert seen >= {"raises", "ok", "rejected", "responds-before-invoked", "window-of-six", "key-set-mismatch"}
