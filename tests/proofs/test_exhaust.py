"""The sleep-set explorer (:mod:`repro.proofs.exhaust`): exact counts per cell
(Figure 1(a)'s and Figure 5's), its soundness against a search with no
reduction, three mutants it kills, and the replay of a committed schedule.

Each count is the number of finished runs (one per Mazurkiewicz trace under
the distinct-automata relation) and of pruned runs under newest-first
branching.  The cells too slow for tier-1 are in ``exhaust_cells.py`` beside
this file, which CI's ``safety-invariants`` job runs by name.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.ioa.errors import SchedulerError
from repro.ioa.scheduler import PendingInvocation, PendingTimeout
from repro.proofs.eiger_example import FIGURE5_SCHEDULE
from repro.proofs.exhaust import Exploration, _key, replay
from repro.protocols.algorithm_a import AlgorithmAWriter
from repro.protocols.coordinated import CoordinatedServer
from tests.proofs.full_search import (
    Survey,
    contending,
    figure5,
    explorer_classes,
    full_search_classes,
    one_version_too_few,
    survey,
    tag_one_too_high,
    write_without_info,
)

A_CELL = Survey(52, 94, 0, frozenset({"SNOW"}), frozenset({1}), frozenset({1}), 0, 0)
B_CELL = Survey(44, 134, 0, frozenset({"SNoW"}), frozenset({2}), frozenset({1}), 0, 0)
C_CELL = Survey(24, 82, 0, frozenset({"SNOW", "SNoW"}), frozenset({1, 2}), frozenset({1, 2}), 4, 0)


def test_algorithm_a_every_trace_is_snow():
    """Theorem 3 at 1R/1W: every trace has all four properties and Lemma 20's."""
    assert survey(contending("algorithm-a", 1, 1, c2c=True)) == A_CELL


def test_algorithm_b_every_trace_is_snw_in_two_rounds_one_version():
    """Theorem 4 at 1R/1W: S, N and W in every trace; O gives way to two rounds."""
    assert survey(contending("algorithm-b", 1, 1, c2c=False)) == B_CELL


def test_algorithm_c_fallback_corner():
    """Theorem 5 at 1R/1W: S, N and W in every trace, and one round in all but
    the corner its module docstring describes: in 4 of the 24 traces the data
    reply was captured before the named version was installed, and the READ
    takes the annotated fallback round.  So C's maximum rounds is 2, not its
    ``claimed_read_rounds`` of 1, and the cell pins that."""
    assert survey(contending("algorithm-c", 1, 1, c2c=False)) == C_CELL


def test_naive_snow_at_two_readers():
    """Theorem 1's setting: 208 of the 288 traces are not strictly serializable
    (``exhaust_cells.py`` finds the same with client-to-client channels: the
    candidate sends no c2c message)."""
    cell = survey(contending("naive-snow", 2, 1, c2c=False))
    assert (cell.finished, cell.pruned, cell.violating) == (288, 2679, 208)
    assert cell.properties == {"SNOW", "sNOW"}


def test_the_budget_cuts_the_search_and_names_the_violating_trace():
    search = Exploration(contending("naive-snow", 1, 1, c2c=False), max_runs=7)
    witnesses = [
        (search.schedule(), handle.simulation.steps_taken)
        for handle in search
        if not handle.snow_report().satisfies_s
    ]
    assert (search.finished, search.pruned, search.complete) == (3, 4, False)
    [(schedule, steps)] = witnesses
    # one key per event run: two invocations, the rest deliveries
    assert len(schedule) == steps
    assert sorted(key[0] for key in schedule) == ["d"] * (steps - 2) + ["i", "i"]


def test_each_event_kind_is_keyed_at_its_automaton():
    """No cell's protocol arms a timer (consensus members do), so the timer key
    is checked here: keyed by its arming stamp, which no other timer shares."""
    timers = [PendingTimeout("coor.1", {}, seq, ready_at=9) for seq in (3, 4)]
    assert [_key(timer) for timer in timers] == [(("t", "coor.1", 3), "coor.1"), (("t", "coor.1", 4), "coor.1")]
    assert _key(PendingInvocation("r1", None, "R2", 0)) == (("i", "R2"), "r1")


def test_sleep_sets_lose_no_class_of_the_full_search():
    """Soundness at 1R/1W/2S: the plain depth-first search runs all 9,072
    schedules of ``naive-snow``; the explorer's 16 traces reach each (values
    read, S verdict) class they reach.  A, B and C are checked the same way in
    ``exhaust_cells.py`` (20-90 s each)."""
    cell = contending("naive-snow", 1, 1, c2c=False)
    runs, classes = full_search_classes(cell)
    assert runs == 9072
    assert explorer_classes(cell) == classes
    assert {verdict for _, verdict in classes} == {True, False}


# ----------------------------------------------------------------------
# Figure 5: R reads (ox, oy); w1 writes oy=b1, then oy=b2; w2 writes ox=a3 after
# ----------------------------------------------------------------------
def figure5_reads():
    """Eiger's Figure 5 cell: its search, the (ox, oy) pairs its non-S traces
    read, and the schedule of the first that reads (a3, b1)."""
    search = Exploration(figure5("eiger"))
    reads, witness = Counter(), None
    for handle in search:
        if handle.serializability().ok:
            continue
        [read] = handle.history().reads()
        pair = (read.result.value_for("ox"), read.result.value_for("oy"))
        reads[pair] += 1
        if pair == ("a3", "b1") and witness is None:
            witness = search.schedule()
    assert search.complete
    return search, reads, witness


def test_eiger_figure5_cell_reads_two_stale_pairs():
    """Section 6 by search: 4 of Eiger's 14 traces are not S.  Two read
    Figure 5's (a3, b1), two read oy's initial value beside a3."""
    search, reads, _ = figure5_reads()
    assert (search.finished, search.pruned) == (14, 39)
    assert reads == {("a3", "b1"): 2, ("a3", "init"): 2}


def test_the_committed_figure5_schedule_is_the_first_a3_b1_trace():
    assert figure5_reads()[2] == FIGURE5_SCHEDULE


@pytest.mark.parametrize(
    "protocol, finished, pruned, violating, fallback",
    [
        ("naive-snow", 12, 39, 4, 0),
        ("algorithm-b", 58, 255, 0, 0),
        ("algorithm-c", 32, 158, 0, 16),
        ("algorithm-a", 137, 275, 0, 0),
    ],
)
def test_figure5_cell(protocol, finished, pruned, violating, fallback):
    """The paper's algorithms are S in every trace of Figure 5's system (A with
    its client-to-client channels); C takes its fallback round in half of them."""
    cell = survey(figure5(protocol))
    assert (cell.finished, cell.pruned, cell.violating, cell.fallback) == (finished, pruned, violating, fallback)


def test_replay_names_the_step_whose_key_is_not_pending():
    """W4 is queued after W3, so it is not invocable at W3's step."""
    keys = list(FIGURE5_SCHEDULE)
    keys[4] = ("i", "W4")
    with pytest.raises(SchedulerError, match=r"step 4: \('i', 'W4'\) is not pending"):
        replay(figure5("eiger"), keys)


def test_replay_of_a_cut_schedule_does_not_finish():
    with pytest.raises(SchedulerError, match="step 13: the schedule ended"):
        replay(figure5("eiger"), FIGURE5_SCHEDULE[:-1])


def test_replay_of_an_overlong_schedule_names_the_first_key_left():
    with pytest.raises(SchedulerError, match=r"step 14: the run ended before \('d', 10\)"):
        replay(figure5("eiger"), FIGURE5_SCHEDULE + (("d", 10),))


# ----------------------------------------------------------------------
# Mutants: each breaks one cell above
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "protocol, c2c, target, name, mutant, pinned",
    [
        ("algorithm-a", True, AlgorithmAWriter, "run_transaction", write_without_info, A_CELL),
        ("algorithm-b", False, CoordinatedServer, "tag_array_for", tag_one_too_high, B_CELL),
        ("algorithm-c", False, CoordinatedServer, "handle_read_vals", one_version_too_few, C_CELL),
    ],
    ids=["a-without-info-reader", "b-tag-off-by-one", "c-one-version-too-few"],
)
def test_each_mutant_is_killed_by_its_cell(monkeypatch, protocol, c2c, target, name, mutant, pinned):
    monkeypatch.setattr(target, name, mutant)
    killed = survey(contending(protocol, 1, 1, c2c))
    assert killed != pinned
    if protocol == "algorithm-c":
        # more READs miss the named version and take the fallback round
        assert killed.fallback > pinned.fallback
    else:
        # A's writer is never told its tag; B's READs claim a tag past what they read
        assert killed.lemma20_failures > 0
