"""What a full trace retains per event, and that its ids replay.

Deterministic guards (no wall clock) for what PR 16 bought: the per-event
records carry no ``__dict__`` and a run keeps a bounded number of GC-tracked
objects per retained action (every tracked object is walked by each gen-2
collection — a third of a long full-trace run), so a later change that adds a
per-event dict or dataclass fails here rather than in a benchmark; and
message ids are numbered by the simulation and generated transaction ids by
the workload, not by the interpreter.
"""

from __future__ import annotations

import gc

import pytest

from repro.analysis.workload import WorkloadSpec, generate_workload, submit_workload
from repro.ioa import Action, Message, PendingDelivery, WellFormednessError
from repro.protocols import get_protocol
from repro.txn import read as make_read

#: GC-tracked objects a finished run keeps per retained trace action:
#: measured 2.43 on CPython 3.11 (1.0 ``Action``, 0.43 ``Message``, 0.73
#: tuples that hold a tracked value — a ``Key``, a ``ReadResult`` — and so
#: cannot be untracked, 0.27 transaction records and results), plus ~15 %
TRACKED_PER_ACTION_BUDGET = 2.8


def run_cell():
    """Generate the 200-transaction cell's workload and run it to completion."""
    handle = get_protocol("algorithm-b").build(num_readers=2, num_writers=2, num_objects=3, seed=17)
    spec = WorkloadSpec(reads_per_reader=80, writes_per_writer=20, read_size=2, write_size=2, seed=17)
    submit_workload(handle, generate_workload(spec, handle.readers, handle.writers, handle.objects))
    handle.run_to_completion()
    return handle


def settled_objects():
    # a tuple is untracked one nesting level per pass
    for _ in range(3):
        gc.collect()
    return gc.get_objects()


def test_a_full_trace_keeps_a_bounded_number_of_tracked_objects_per_action():
    run_cell()  # lazy imports and interned constants are not the run's
    before = len(settled_objects())
    handle = run_cell()
    after = settled_objects()
    trace = handle.trace()
    assert len(handle.transaction_records()) == 200 and trace.is_full()

    records = [o for o in after if isinstance(o, (Action, Message, PendingDelivery))]
    assert sum(isinstance(o, Action) for o in records) >= len(trace)
    assert not any(hasattr(record, "__dict__") for record in records)

    per_action = (len(after) - before) / len(trace)
    assert 1.0 < per_action <= TRACKED_PER_ACTION_BUDGET, per_action


def test_two_runs_of_one_config_and_seed_are_equal_including_message_ids():
    # each run generates its own workload: back-to-back in one process the
    # txn ids and message ids are still a function of (config, spec, seed)
    first, second = run_cell().trace(), run_cell().trace()
    assert first.actions == second.actions
    sent = [a.message.msg_id for a in first if a.kind.value == "send"]
    assert sent == list(range(len(sent)))  # numbered by the kernel, from zero
    invoked = {a.get("txn") for a in first if a.kind.value == "invoke"}
    assert invoked == {f"R{n}" for n in range(1, 161)} | {f"W{n}" for n in range(161, 201)}


def test_generated_ids_are_per_workload_and_hand_built_ones_are_not():
    spec = WorkloadSpec(reads_per_reader=2, writes_per_writer=2, seed=3)
    make_read("o1")  # moves the module counter, not the generator's
    first = generate_workload(spec, ("r1",), ("w1",), ("o1", "o2"))
    second = generate_workload(spec, ("r1",), ("w1",), ("o1", "o2"))
    assert first == second
    assert [t.txn_id for _, t in first.reads + first.writes] == ["R1", "R2", "W3", "W4"]
    assert make_read("o1").txn_id != make_read("o1").txn_id  # module counter, still unique

    handle = get_protocol("algorithm-b").build(num_readers=1, num_writers=1, num_objects=2)
    submit_workload(handle, first)
    with pytest.raises(WellFormednessError, match="submitted twice"):
        submit_workload(handle, second)
