"""What the post-run pipeline spends per transaction, counted in Python calls.

Every verdict the paper's results rest on is taken after a run: the history,
the metric block, N/O/W and S (Definitions 2.1-2.3), Lemma 20's P1-P4 and the
span tree.  Every suite cell and every test pays that pipeline once per run,
and a stateless search pays it once per execution.  A call count repeats
exactly under a fixed seed, so it is pinned here as a ceiling: a change that
makes a post-run pass dearer fails this test whatever the machine.  Four FIFO
cells at seed 17, each 40 reads per reader and 40 writes per writer over 3
objects; the count is every ``call`` event ``sys.setprofile`` sees for a
function defined under ``src/repro/`` while the pipeline runs, in the order
the perf benchmark's ``verify`` workload runs it.  Names starting with ``<``
(comprehensions, generator expressions) are left out, so an interpreter that
inlines comprehensions counts the same.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.metrics import collect_metrics
from repro.analysis.workload import WorkloadSpec, generate_workload, submit_workload
from repro.core import check_lemma20, check_snow, check_strict_serializability
from repro.ioa import FIFOScheduler
from repro.obs import derive_spans
from repro.protocols import get_protocol

PACKAGE = str(Path(repro.__file__).resolve().parent)

#: protocol → readers (writers are 2, objects 3)
CELLS = {"algorithm-a": 1, "algorithm-b": 2, "algorithm-c": 2, "eiger": 2}

#: ceiling on the pipeline's calls, and the transactions it checks
BUDGET = {
    "algorithm-a": (4_425, 120),
    "algorithm-b": (6_441, 160),
    "algorithm-c": (6_430, 160),
    "eiger": (3_245, 160),
}


def post_run_calls(protocol: str):
    """``(calls, transactions)`` of the post-run pipeline over one run of ``protocol``'s cell."""
    handle = get_protocol(protocol).build(
        num_readers=CELLS[protocol], num_writers=2, num_objects=3, seed=17, scheduler=FIFOScheduler()
    )
    spec = WorkloadSpec(40, 40, 2, 2, 0.0, 17)
    submit_workload(handle, generate_workload(spec, handle.readers, handle.writers, handle.objects))
    handle.run()
    simulation = handle.simulation
    assert not simulation.incomplete_transactions()
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(PACKAGE) and not code.co_name.startswith("<"):
                calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        history = handle.history()
        collect_metrics(
            simulation,
            protocol_name=protocol,
            placement=handle.placement,
            quorum_policy=handle.quorum_policy,
            directory=handle.directory,
        )
        check_snow(simulation, history)
        complete = history.restricted_to_complete()
        check_strict_serializability(complete)
        if protocol != "eiger":
            check_lemma20(complete, handle.tags())
        derive_spans(simulation)
    finally:
        sys.setprofile(previous)
    return calls, len(simulation.transaction_records())


@pytest.mark.parametrize("protocol", sorted(CELLS))
def test_post_run_calls_per_transaction_stay_within_budget(protocol):
    calls, transactions = post_run_calls(protocol)
    ceiling, expected = BUDGET[protocol]
    assert transactions == expected, "the cell changed shape: re-measure the budget"
    assert calls <= ceiling, f"{calls} post-run calls for {transactions} transactions ({calls / transactions:.1f} each)"


def test_the_count_repeats_exactly():
    assert post_run_calls("algorithm-a") == post_run_calls("algorithm-a")
