"""One strict-serializability search per ``History`` object.

``check_strict_serializability`` keeps its finished result in
``history.views`` and answers later calls from it whenever
``kept.explored_states <= max_states``.  These tests count executions of the
search body (``repro.core.serializability._search``) rather than time
anything, and pin what must *not* be shared.

Mutants of the reuse rule that must die here (each was run): ``<`` for ``<=``
(``test_a_kept_verdict_answers_exactly_the_bounds_it_fits`` searches a third
time), an aborted result kept (the unbounded call after an abort would return
the abort), the verdict kept on the class or keyed by content
(``test_equal_histories_do_not_share_a_verdict``).
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError

import pytest

from repro.core import serializability
from repro.core.serializability import check_lemma20, check_strict_serializability
from repro.core.snow import check_snow
from repro.txn.history import History, HistoryEntry
from repro.txn.transactions import ReadResult, WRITE_OK, read, write

from tests.conftest import build_system, run_simple_workload
from tests.core import reference_serializability as reference


@pytest.fixture
def searches(monkeypatch):
    """The histories the search body ran on, in order."""
    ran = []
    body = serializability._search

    def counted(history, max_states):
        ran.append(history)
        return body(history, max_states)

    monkeypatch.setattr(serializability, "_search", counted)
    return ran


def finished(protocol):
    handle = build_system(protocol, num_readers=2, num_writers=2, num_objects=2, seed=3)
    run_simple_workload(handle, rounds=3)
    return handle


def chain(length):
    """``length`` sequential WRITEs then a READ of the last: explored in
    exactly ``length + 1`` states."""
    entries = [
        HistoryEntry(write(ox=i, txn_id=f"W{i}"), "w", 2 * i, 2 * i + 1, WRITE_OK) for i in range(1, length + 1)
    ]
    entries.append(
        HistoryEntry(read("ox", txn_id="R"), "r", 2 * length + 2, 2 * length + 3, ReadResult.from_mapping({"ox": length}))
    )
    return History(entries, objects=("ox",), initial_value=0)


# ----------------------------------------------------------------------
# The search runs once
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ["algorithm-a", "algorithm-b", "algorithm-c", "eiger"])
def test_the_checker_pipeline_searches_one_history_once(protocol, searches):
    handle = finished(protocol)
    history = handle.history()
    report = check_snow(handle.simulation, history)
    verdict = check_strict_serializability(history)
    # eiger reports no tags: the witness order is a tagging that satisfies P1-P4
    tags = handle.tags() or {txn_id: position for position, txn_id in enumerate(verdict.witness_order)}
    lemma = check_lemma20(history, tags)
    assert verdict.ok and lemma.ok, (verdict.describe(), lemma.describe())
    assert searches == [history]
    assert report.serializability is verdict is lemma.cross_check
    assert verdict == reference.check_strict_serializability(history)


@pytest.mark.parametrize("protocol", ["algorithm-a", "algorithm-b", "algorithm-c", "eiger"])
def test_the_handle_helpers_search_once_between_them(protocol, searches):
    handle = finished(protocol)
    report, verdict, lemma = handle.snow_report(), handle.serializability(), handle.lemma20()
    assert searches == [handle.history()]
    assert report.serializability is verdict
    if handle.tags():
        assert lemma.cross_check is verdict


def test_a_history_with_a_stuck_transaction_is_still_searched_once(searches):
    handle = finished("algorithm-b")
    handle.submit_write({obj: "late" for obj in handle.objects}, txn_id="Wstuck")  # queued, never run
    history = handle.history()
    assert not history.entry("Wstuck").complete
    assert handle.snow_report().serializability is handle.serializability() is handle.lemma20().cross_check
    assert searches == [history]


# ----------------------------------------------------------------------
# One History per finished trace, and no stale verdict
# ----------------------------------------------------------------------
def test_history_is_rebuilt_once_the_run_has_grown(searches):
    handle = finished("algorithm-b")
    first = handle.history()
    assert handle.history() is first
    before = handle.serializability()
    assert before.ok and len(before.witness_order) == len(first)

    queued = handle.submit_write({obj: "later" for obj in handle.objects})
    submitted = handle.history()  # more was submitted: rebuilt although the trace has not moved
    assert submitted is not first and not submitted.entry(queued).complete
    read_id = handle.submit_read(handle.objects, after=[queued])
    handle.run_to_completion()

    second = handle.history()
    assert second is not submitted and handle.history() is second
    assert len(second) == len(first) + 2 and second.entry(read_id).complete
    assert not second.views  # nothing carried over from the shorter history
    after = handle.serializability()
    assert after.ok and after is not before
    assert set(after.witness_order) == set(before.witness_order) | {queued, read_id}
    assert searches == [first, second]
    assert first.views[check_strict_serializability] is before  # the old object keeps its own


# ----------------------------------------------------------------------
# Memo safety
# ----------------------------------------------------------------------
def test_equal_histories_do_not_share_a_verdict(searches):
    one, two = chain(5), chain(5)
    assert one.entries() == two.entries()
    first, second = check_strict_serializability(one), check_strict_serializability(two)
    assert first == second and first is not second
    assert searches == [one, two]


def test_the_complete_restriction_is_checked_on_its_own(searches):
    stuck = HistoryEntry(write(ox=99, txn_id="Wstuck"), "w2", 1, None, None)
    history = History(list(chain(4)) + [stuck], objects=("ox",), initial_value=0)
    complete = history.restricted_to_complete()
    assert complete is not history and len(complete) == len(history) - 1
    assert check_strict_serializability(history) == check_strict_serializability(complete)
    assert searches == [history, complete]
    assert history.views is not complete.views


def test_a_kept_verdict_answers_exactly_the_bounds_it_fits(searches):
    history = chain(39)
    full = check_strict_serializability(history)
    assert full.ok and full.explored_states == 40

    aborted = check_strict_serializability(history, max_states=3)  # 40 states do not fit: search again
    assert not aborted.ok and aborted.explored_states == 4
    assert aborted.violations == ("search aborted after exploring 3 states",)
    assert aborted == reference.check_strict_serializability(history, max_states=3)
    assert len(searches) == 2

    assert check_strict_serializability(history) is full  # the abort was not kept
    assert check_strict_serializability(history, max_states=40) is full  # fits exactly
    assert len(searches) == 2
    assert not check_strict_serializability(history, max_states=39).ok
    assert len(searches) == 3


def test_an_aborted_search_is_never_kept_and_a_small_verdict_serves_larger_bounds(searches):
    history = chain(39)
    assert not check_strict_serializability(history, max_states=3).ok
    assert not history.views
    full = check_strict_serializability(history)
    assert full.ok and len(searches) == 2

    short = chain(2)
    small = check_strict_serializability(short, max_states=3)
    assert small.ok and small.explored_states == 3
    assert check_strict_serializability(short, max_states=40) is small
    assert check_strict_serializability(short) is small
    assert searches[2:] == [short]


def test_a_shared_verdict_is_read_only():
    verdict = check_strict_serializability(chain(2))
    with pytest.raises(FrozenInstanceError):
        verdict.ok = False
    with pytest.raises(FrozenInstanceError):
        verdict.violations = ("edited",)
