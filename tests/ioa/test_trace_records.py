"""What a full trace retains per event, and that its ids replay.

Deterministic guards (no wall clock) for what PR 16 bought: the per-event
records carry no ``__dict__`` and a run keeps a bounded number of GC-tracked
objects per retained action (every tracked object is walked by each gen-2
collection — a third of a long full-trace run), so a later change that adds a
per-event dict or dataclass fails here rather than in a benchmark; and
message ids are numbered by the simulation, not the interpreter.
"""

from __future__ import annotations

import gc

from repro.analysis.workload import WorkloadSpec, generate_workload, submit_workload
from repro.ioa import Action, Message, PendingDelivery
from repro.protocols import get_protocol

#: GC-tracked objects a finished run keeps per retained trace action:
#: measured 2.43 on CPython 3.11 (1.0 ``Action``, 0.43 ``Message``, 0.73
#: tuples that hold a tracked value — a ``Key``, a ``ReadResult`` — and so
#: cannot be untracked, 0.27 transaction records and results), plus ~15 %
TRACKED_PER_ACTION_BUDGET = 2.8


def run_cell(workload=None):
    """Run the 200-transaction cell to completion; a run given no workload
    generates the cell's own (and returns it, so a second run can share its
    transaction ids)."""
    handle = get_protocol("algorithm-b").build(num_readers=2, num_writers=2, num_objects=3, seed=17)
    if workload is None:
        spec = WorkloadSpec(reads_per_reader=80, writes_per_writer=20, read_size=2, write_size=2, seed=17)
        workload = generate_workload(spec, handle.readers, handle.writers, handle.objects)
    submit_workload(handle, workload)
    handle.run_to_completion()
    return handle, workload


def settled_objects():
    # a tuple is untracked one nesting level per pass
    for _ in range(3):
        gc.collect()
    return gc.get_objects()


def test_a_full_trace_keeps_a_bounded_number_of_tracked_objects_per_action():
    run_cell()  # lazy imports and interned constants are not the run's
    before = len(settled_objects())
    handle, _ = run_cell()
    after = settled_objects()
    trace = handle.trace()
    assert len(handle.transaction_records()) == 200 and trace.is_full()

    records = [o for o in after if isinstance(o, (Action, Message, PendingDelivery))]
    assert sum(isinstance(o, Action) for o in records) >= len(trace)
    assert not any(hasattr(record, "__dict__") for record in records)

    per_action = (len(after) - before) / len(trace)
    assert 1.0 < per_action <= TRACKED_PER_ACTION_BUDGET, per_action


def test_two_runs_of_one_config_and_seed_are_equal_including_message_ids():
    first, workload = run_cell()
    second, _ = run_cell(workload)  # the same transactions, hence the same txn ids
    first, second = first.trace(), second.trace()
    assert first.actions == second.actions
    sent = [a.message.msg_id for a in first if a.kind.value == "send"]
    assert sent == list(range(len(sent)))  # numbered by the kernel, from zero
