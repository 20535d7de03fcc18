"""The sleep-set explorer (:mod:`repro.proofs.exhaust`): exact counts per cell
(Figure 1(a)'s, Figure 5's and two WRITEs per writer), its soundness against
a search with no reduction, three mutants it kills, and the replay of
committed schedules (Figure 5's, and the witness that no reply keeps C to
Theorem 5's |W| versions).

Each count is the number of finished runs (one per Mazurkiewicz trace under
the distinct-automata relation) and of pruned runs under newest-first
branching.  The cells too slow for tier-1 are in ``exhaust_cells.py`` beside
this file, which CI's ``safety-invariants`` job runs by name.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.consensus.machines import CoordinatorList
from repro.ioa.actions import ActionKind
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
    newest_per_writer,
    one_version_too_few,
    read_after_write,
    survey,
    tag_one_too_high,
    twice,
    write_without_info,
)

A_CELL = Survey(52, 94, 0, frozenset({"SNOW"}), frozenset({1}), frozenset({1}), 0)
B_CELL = Survey(44, 134, 0, frozenset({"SNoW"}), frozenset({2}), frozenset({1}), 0)
C_CELL = Survey(24, 82, 0, frozenset({"SNOW", "SNoW"}), frozenset({1}), frozenset({1, 2}), 0)
#: C at 1R/1W with the READ queued after the first of the writer's two WRITEs
C_AFTER_CELL = Survey(48, 165, 0, frozenset({"SNoW"}), frozenset({1}), frozenset({2, 3}), 0)


def test_algorithm_a_every_trace_is_snow():
    """Theorem 3 at 1R/1W: every trace has all four properties and Lemma 20's."""
    assert survey(contending("algorithm-a", 1, 1, c2c=True)) == A_CELL


def test_algorithm_b_every_trace_is_snw_in_two_rounds_one_version():
    """Theorem 4 at 1R/1W: S, N and W in every trace; O gives way to two rounds."""
    assert survey(contending("algorithm-b", 1, 1, c2c=False)) == B_CELL


def test_algorithm_c_every_trace_is_snw_in_one_round():
    """Theorem 5 at 1R/1W: S, N and W in every trace, and one round in every
    one, the 4 traces whose data reply was captured before the named version
    was installed included (the READ returns the prefix before it)."""
    assert survey(contending("algorithm-c", 1, 1, c2c=False)) == C_CELL


def test_algorithm_c_with_two_writes_per_writer():
    """Theorem 5 at 1R/1W with two WRITEs queued at the writer: one round,
    S and Lemma 20 in every trace, and up to 3 versions in a reply."""
    cell = survey(twice("algorithm-c", 1, 1))
    assert cell == Survey(120, 516, 0, frozenset({"SNOW", "SNoW"}), frozenset({1}), frozenset({1, 2, 3}), 0)
    assert survey(read_after_write("algorithm-c")) == C_AFTER_CELL


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
    "protocol, finished, pruned, violating, rounds",
    [
        ("naive-snow", 12, 39, 4, {1}),
        ("algorithm-b", 58, 255, 0, {2}),
        ("algorithm-c", 30, 148, 0, {1}),
        ("algorithm-a", 137, 275, 0, {1}),
    ],
)
def test_figure5_cell(protocol, finished, pruned, violating, rounds):
    """The paper's algorithms are S in every trace of Figure 5's system (A with
    its client-to-client channels), and C reads in one round in each."""
    cell = survey(figure5(protocol))
    assert (cell.finished, cell.pruned, cell.violating, cell.rounds) == (finished, pruned, violating, rounds)
    assert cell.lemma20_failures == 0


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
    "build, target, name, mutant, pinned",
    [
        (contending("algorithm-a", 1, 1, True), AlgorithmAWriter, "run_transaction", write_without_info, A_CELL),
        (contending("algorithm-b", 1, 1, False), CoordinatorList, "tag_array_for", tag_one_too_high, B_CELL),
        (read_after_write("algorithm-c"), CoordinatedServer, "handle_read_vals", one_version_too_few, C_AFTER_CELL),
    ],
    ids=["a-without-info-reader", "b-tag-off-by-one", "c-one-version-too-few"],
)
def test_each_mutant_is_killed_by_its_cell(monkeypatch, build, target, name, mutant, pinned):
    """A's writer is never told its tag; B's READs claim a tag past what they
    read; C's READs miss the WRITE that precedes them (so they are not S
    either: the cell orders that WRITE before the READ in every trace)."""
    monkeypatch.setattr(target, name, mutant)
    killed = survey(build)
    assert killed != pinned
    assert killed.lemma20_failures > 0


# ----------------------------------------------------------------------
# Theorem 5's |W| versions: no reply can keep to it
# ----------------------------------------------------------------------
#: Three schedules of the two-WRITEs cell at 1R/1W.  In each, oy's server
#: (not the coordinator) receives the same read-vals request holding the same
#: three versions, so its reply is the same whatever it leaves out.  The READ
#: must return a different one in each: w1.2 after both WRITEs responded
#: before it was invoked; w1.1 when W1 responded before it and the
#: coordinator's combined reply (ox's Vals and the List) was captured between
#: W1 and W2; the initial version when that reply was captured before W1.
THREE_VERSIONS = {
    "w1.2": (
        ("i", "W1"), ("d", 0), ("d", 1), ("d", 2), ("d", 3), ("d", 4), ("d", 5), ("i", "W2"), ("d", 6), ("d", 7),
        ("d", 8), ("d", 9), ("d", 10), ("d", 11), ("i", "R3"), ("d", 12), ("d", 13), ("d", 14), ("d", 15),
    ),
    "w1.1": (
        ("i", "W1"), ("d", 0), ("d", 1), ("d", 2), ("d", 3), ("d", 4), ("d", 5), ("i", "R3"), ("d", 6), ("d", 8),
        ("i", "W2"), ("d", 9), ("d", 10), ("d", 11), ("d", 12), ("d", 13), ("d", 14), ("d", 7), ("d", 15),
    ),
    0: (
        ("i", "R3"), ("d", 0), ("d", 2), ("i", "W1"), ("d", 3), ("d", 4), ("d", 5), ("d", 6), ("d", 7), ("d", 8),
        ("i", "W2"), ("d", 9), ("d", 10), ("d", 11), ("d", 12), ("d", 13), ("d", 14), ("d", 1), ("d", 15),
    ),
}


def read_vals_replies(handle):
    """``{server: (request items, versions shipped)}`` of the READ's data requests."""
    sent = [a.message for a in handle.trace() if a.kind is ActionKind.SEND and a.message is not None]
    requests = {m.dst: m.items for m in sent if m.msg_type == "read-vals"}
    return {m.src: (requests[m.src], m.get("versions")) for m in sent if m.msg_type == "read-vals-reply"}


def test_one_reply_must_carry_three_versions_at_one_writer():
    """|W| = 1, yet any reply rule ships all three versions: the same request
    meets the same ``Vals`` at oy's server in the three schedules, and the
    READ returns each of the three, strictly serializably.  Each is forced:
    S by the WRITEs that responded before the READ was invoked, and the
    coordinator's ``ox`` versions (which W1 and W2 both wrote) from above."""
    runs = {value: replay(twice("algorithm-c", 1, 1), keys) for value, keys in THREE_VERSIONS.items()}
    ox_server, oy_server = runs[0].servers
    assert len({read_vals_replies(handle)[oy_server] for handle in runs.values()}) == 1
    assert len(read_vals_replies(runs[0])[oy_server][1]) == 3
    forced = {}
    for value, handle in runs.items():
        [read] = handle.history().reads()
        assert read.result.as_dict == {"ox": value, "oy": value}
        assert handle.serializability().ok and handle.lemma20().ok
        preceding = tuple(write.precedes(read) for write in handle.history().writes())
        forced[value] = preceding, len(read_vals_replies(handle)[ox_server][1])
    assert forced == {"w1.2": ((True, True), 3), "w1.1": ((True, False), 2), 0: ((False, False), 1)}


def test_one_version_per_writer_misses_a_write_that_preceded_the_read(monkeypatch):
    """The one-version-per-writer reply rule ships oy's newest version and the
    initial one; in the ``w1.1`` schedule the READ then returns the initial
    values although W1 responded before it was invoked.  The explorer does
    not find this (no message orders W1 before the READ), the replay does."""
    monkeypatch.setattr(CoordinatedServer, "handle_read_vals", newest_per_writer)
    assert survey(twice("algorithm-c", 1, 1)).violating == 0
    handle = replay(twice("algorithm-c", 1, 1), THREE_VERSIONS["w1.1"])
    assert handle.history().reads()[0].result.as_dict == {"ox": 0, "oy": 0}
    assert not handle.serializability().ok
