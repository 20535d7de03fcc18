"""The sort/bisect/window checkers return what the seed's exhaustive loops did.

``repro.core.serializability`` ranks transactions by invocation and searches
windows, and checks Lemma 20 by sorting; ``tests/core/reference_serializability.py``
keeps the seed's all-pairs loops as the oracle.  Results must be *identical*
— verdict, witness order, explored-state count, violation text and order —
on generated histories: serializable ones with overlapping transactions,
Figure-5-style mixed-version reads, one injected violation each of P2, P3
and P4, and arbitrary malformed ones (ties, responses before invocations).

The second half pins the cost model: verifying a run walks its trace a fixed
number of times, however many transactions it has.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import assume, given, settings, strategies as st

from repro.analysis.metrics import collect_metrics
from repro.analysis.workload import WorkloadSpec, generate_workload, submit_workload
from repro.core.serializability import check_lemma20, check_strict_serializability
from repro.core.snow import check_snow, versions_in_replies
from repro.ioa.trace import Trace
from repro.txn.datatype import run_serial
from repro.txn.history import History, HistoryEntry
from repro.txn.transactions import ReadResult, WriteTransaction, read, write_pairs

from tests.conftest import build_system
from tests.core import reference_serializability as reference

OBJECTS = ("o1", "o2", "o3")
values = st.integers(min_value=1, max_value=3)


def assert_same_results(history, tags):
    assert check_strict_serializability(history) == reference.check_strict_serializability(history)
    assert check_strict_serializability(history, max_states=3) == reference.check_strict_serializability(
        history, max_states=3
    )
    result = check_lemma20(history, tags)
    assert result == reference.check_lemma20(history, tags)
    assert check_lemma20(history, tags, cross_check=False) == reference.check_lemma20(
        history, tags, cross_check=False
    )
    return result


@st.composite
def tagged_histories(draw, min_size=1):
    """A serial order with correct read results and position tags (reads take
    the latest preceding write's tag, as algorithms A/B derive them), then
    stretched in real time: each transaction's interval reaches up to two
    positions either way, never against the serial order — so the history is
    serializable and satisfies P1-P4 while transactions overlap and history
    order is a random permutation.  Returns ``(entries, tags)`` in serial order.
    """
    count = draw(st.integers(min_value=min_size, max_value=8))
    txns = []
    for index in range(count):
        subset = draw(st.lists(st.sampled_from(OBJECTS), min_size=1, max_size=len(OBJECTS), unique=True))
        if draw(st.booleans()):
            txns.append(read(*subset, txn_id=f"T{index}"))
        else:
            txns.append(write_pairs(tuple((obj, draw(values)) for obj in subset), txn_id=f"T{index}"))
    responses, _ = run_serial(txns, OBJECTS, initial_value=0)
    entries, tags, latest_write_tag = [], {}, 1
    for position, (txn, response) in enumerate(zip(txns, responses), start=2):
        if txn.is_write():
            latest_write_tag = position
        tags[txn.txn_id] = latest_write_tag
        entries.append(
            HistoryEntry(
                txn=txn,
                client=f"c{position % 3}",
                invoke_index=10 * position - draw(st.integers(min_value=0, max_value=12)),
                respond_index=10 * position + draw(st.integers(min_value=1, max_value=12)),
                result=response,
            )
        )
    return entries, tags


def history_of(entries, permutation=None):
    if permutation is not None:
        entries = [entries[i] for i in permutation]
    return History(entries, objects=OBJECTS, initial_value=0)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_serializable_overlapping_histories(data):
    entries, tags = data.draw(tagged_histories())
    history = history_of(entries, data.draw(st.permutations(range(len(entries)))))
    result = assert_same_results(history, tags)
    assert result.ok, result.describe()
    assert result.cross_check.ok


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_figure5_style_mixed_version_read(data):
    """After a serializable prefix: W_a then W_b write both objects, and a READ
    that follows both returns W_b's ``o1`` with W_a's ``o2`` (Figure 5)."""
    entries, tags = data.draw(tagged_histories())
    end = max(entry.respond_index for entry in entries) + 1
    top = max(tags.values())
    entries += [
        HistoryEntry(write_pairs((("o1", 101), ("o2", 101)), txn_id="Wa"), "w", end, end + 1, "ok"),
        HistoryEntry(write_pairs((("o1", 102), ("o2", 102)), txn_id="Wb"), "w", end + 2, end + 3, "ok"),
        HistoryEntry(
            read("o1", "o2", txn_id="Rmix"), "r", end + 4, end + 5, ReadResult.from_mapping({"o1": 102, "o2": 101})
        ),
    ]
    tags.update(Wa=top + 1, Wb=top + 2, Rmix=top + 2)
    history = history_of(entries, data.draw(st.permutations(range(len(entries)))))
    result = assert_same_results(history, tags)
    assert not check_strict_serializability(history).ok
    assert any(violation.startswith("P4: Rmix") for violation in result.violations)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_injected_p2_violation(data):
    """Two transactions ordered by ≺ swap their real-time intervals."""
    entries, tags = data.draw(tagged_histories(min_size=2))
    first, second = sorted(data.draw(st.lists(st.integers(0, len(entries) - 1), min_size=2, max_size=2, unique=True)))
    a, b = entries[first], entries[second]
    assume(a.respond_index < b.invoke_index)  # really ordered, so the swap really inverts
    assume((tags[a.txn_id], a.txn.is_read()) != (tags[b.txn_id], b.txn.is_read()))
    entries[first] = replace(a, invoke_index=b.invoke_index, respond_index=b.respond_index)
    entries[second] = replace(b, invoke_index=a.invoke_index, respond_index=a.respond_index)
    history = history_of(entries, data.draw(st.permutations(range(len(entries)))))
    result = assert_same_results(history, tags)
    assert any(violation.startswith("P2:") for violation in result.violations)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_injected_p3_violation(data):
    """Two WRITEs share a tag."""
    entries, tags = data.draw(tagged_histories(min_size=2))
    writes = [entry.txn_id for entry in entries if isinstance(entry.txn, WriteTransaction)]
    assume(len(writes) >= 2)
    keep, change = data.draw(st.lists(st.sampled_from(writes), min_size=2, max_size=2, unique=True))
    tags[change] = tags[keep]
    history = history_of(entries, data.draw(st.permutations(range(len(entries)))))
    result = assert_same_results(history, tags)
    assert any(violation.startswith("P3:") for violation in result.violations)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_injected_p4_violation(data):
    """One READ returns, for one object, a value nothing wrote."""
    entries, tags = data.draw(tagged_histories())
    reads = [i for i, entry in enumerate(entries) if entry.txn.is_read()]
    assume(reads)
    victim = data.draw(st.sampled_from(reads))
    observed = dict(entries[victim].result.values)
    observed[data.draw(st.sampled_from(sorted(observed)))] = 999
    entries[victim] = replace(entries[victim], result=ReadResult.from_mapping(observed))
    history = history_of(entries, data.draw(st.permutations(range(len(entries)))))
    result = assert_same_results(history, tags)
    assert any(violation.startswith("P4:") for violation in result.violations)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_arbitrary_histories_including_malformed_ones(data):
    """No structure at all: invocation and response indices drawn
    independently (ties, responses before invocations), any read values, any
    small tags — the two implementations still agree, whatever the verdict."""
    count = data.draw(st.integers(min_value=1, max_value=6))
    index = st.integers(min_value=0, max_value=8)
    entries, tags = [], {}
    for position in range(count):
        subset = data.draw(st.lists(st.sampled_from(OBJECTS[:2]), min_size=1, max_size=2, unique=True))
        if data.draw(st.booleans()):
            txn = read(*subset, txn_id=f"T{position}")
            result = ReadResult.from_mapping({obj: data.draw(st.integers(0, 2)) for obj in subset})
        else:
            txn = write_pairs(tuple((obj, data.draw(st.integers(1, 2))) for obj in subset), txn_id=f"T{position}")
            result = "ok"
        entries.append(HistoryEntry(txn, f"c{position}", data.draw(index), data.draw(index), result))
        tags[txn.txn_id] = data.draw(st.one_of(st.integers(0, 3), st.sampled_from((1.0, 2.5))))
    assert_same_results(history_of(entries), tags)


# ----------------------------------------------------------------------
# Cost model: trace passes do not grow with the number of transactions
# ----------------------------------------------------------------------
class CountingTrace(Trace):
    """A trace that counts how often it is iterated from the outside."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def verified_run(reads_per_reader):
    """Run algorithm B, then verify it on a counting copy of its trace."""
    handle = build_system("algorithm-b", num_readers=2, num_writers=2, num_objects=3, seed=4)
    spec = WorkloadSpec(reads_per_reader=reads_per_reader, writes_per_writer=5, seed=4)
    submit_workload(handle, generate_workload(spec, handle.readers, handle.writers, handle.objects))
    handle.run_to_completion()
    simulation = handle.simulation
    simulation.trace = CountingTrace(simulation.trace)
    metrics = collect_metrics(simulation, protocol_name="algorithm-b")
    report = check_snow(simulation)
    assert len(report.read_reports) == 2 * reads_per_reader == len(metrics.reads())
    return simulation


def test_verification_walks_the_trace_a_constant_number_of_times():
    few, many = verified_run(10), verified_run(100)  # 20 and 200 READs
    assert len(many.trace) > 5 * len(few.trace)
    assert few.trace.passes == many.trace.passes >= 1
    # ... and so does projecting onto every automaton in turn: one more pass
    for simulation in (few, many):
        before = simulation.trace.passes
        for actor in simulation.trace.actors():
            assert all(action.actor == actor for action in simulation.trace.project(actor))
        assert simulation.trace.passes == before + 1


def test_an_append_after_a_lookup_invalidates_the_cached_view():
    simulation = verified_run(3)
    trace = simulation.trace
    record = next(r for r in simulation.transaction_records() if r.txn.is_read())
    question = (trace, str(record.txn_id), record.client, simulation.servers())
    answer, passes = versions_in_replies(*question), trace.passes
    assert versions_in_replies(*question) == answer and trace.passes == passes  # served from the view
    reply = next(
        action
        for action in trace
        if action.message is not None
        and action.message.dst == record.client
        and action.message.get("txn") == str(record.txn_id)
    )
    passes = trace.passes
    trace.append(reply)  # the same reply once more: one more reply seen
    assert versions_in_replies(*question) == (answer[0], answer[1] + 1)
    assert trace.passes == passes + 1
    assert len(trace.project(reply.actor)) == sum(1 for action in trace if action.actor == reply.actor)
