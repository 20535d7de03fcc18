"""``Simulation.incomplete_transactions`` reads each record's slot once.

``run_to_completion`` asks for the incomplete transactions after every run.
The answer is one walk of the kernel's records reading ``respond_index``:
no copy of the records first and no call of the Python-level
``TransactionRecord.complete`` property per record, which made the check's
cost a Python call per transaction ever submitted (63 calls for 5 READs after
50 WRITEs, 413 after 400).  The kernel's readiness check reads the same slot.
"""

from __future__ import annotations

import sys

import pytest

from repro.ioa import FIFOScheduler, TransactionRecord
from tests.conftest import build_system

COMPLETE = TransactionRecord.complete.fget.__code__


def complete_calls_finishing_reads(writes: int, reads: int = 5) -> int:
    """``TransactionRecord.complete`` calls while ``run_to_completion`` runs
    ``reads`` chained READs of a 1R/1W algorithm C FIFO cell after
    ``writes`` chained WRITEs."""
    handle = build_system("algorithm-c", num_readers=1, num_writers=1, scheduler=FIFOScheduler())
    last = ()
    for i in range(writes):
        last = (handle.submit_write({"ox": i, "oy": -i}, after=last),)
    handle.run_to_completion()
    for _ in range(reads):
        last = (handle.submit_read(after=last),)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code is COMPLETE

    sys.setprofile(profile)
    try:
        handle.simulation.run_to_completion()
    finally:
        sys.setprofile(None)
    assert handle.simulation.transaction_record(last[0]).complete
    return calls


@pytest.mark.parametrize("writes", [50, 400])
def test_finishing_a_run_reads_no_complete_property(writes):
    assert complete_calls_finishing_reads(writes) == 0


def test_incomplete_transactions_are_the_unanswered_ones_in_submission_order():
    handle = build_system("algorithm-c", num_readers=1, num_writers=1, scheduler=FIFOScheduler())
    first = handle.submit_write({"ox": 1, "oy": 1})
    second = handle.submit_read(after=(first,))
    third = handle.submit_write({"ox": 2, "oy": 2}, after=(second,))
    simulation = handle.simulation
    assert [r.txn_id for r in simulation.incomplete_transactions()] == [first, second, third]
    while simulation.transaction_record(first).respond_index is None:
        simulation.step()
    assert [r.txn_id for r in simulation.incomplete_transactions()] == [second, third]
    simulation.run()
    assert simulation.incomplete_transactions() == ()
