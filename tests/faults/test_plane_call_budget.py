"""What the fault and observability planes spend per kernel event, in Python calls.

The perf benchmark's ``chaos`` cell runs the replicated B stack with a fault
plan, the seeded chaos scheduler, the streaming monitors and the health plane,
and is the dearest workload per kernel event.  A call count repeats exactly
under a fixed seed, so the planes' per-event work is pinned here as a
ceiling, like the kernel's in ``tests/ioa/test_call_budget.py``: a change
that makes their per-event path dearer fails this test whatever the machine.
The count is every ``call`` event ``sys.setprofile`` sees, over the whole of
``run_chaos_cell(17, 20)`` (build, load and run), for a function defined in
``src/repro/faults/*.py``, ``src/repro/obs/*.py``, ``src/repro/ioa/scheduler.py``
or the standard library's ``random.py`` (where seeded draws used to go
through ``randrange``); names starting with ``<`` are left out, as there.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import repro.faults
import repro.ioa.scheduler
import repro.obs

from tests.faults.perf_chaos_cell import run_chaos_cell

PLANE_FILES = frozenset(
    [str(path) for package in (repro.faults, repro.obs) for path in Path(package.__file__).resolve().parent.glob("*.py")]
    + [str(Path(repro.ioa.scheduler.__file__).resolve()), random.__file__]
)

#: kernel events (scheduler steps) of the cell, and the ceiling on plane calls
#: over it: 23.6 per event, against 33.6 before the draws, the span check,
#: the health clock and the plane's instruments were made cheaper.  The cell
#: was re-measured when the coordinator group began announcing commits with
#: an unacknowledged notice (1,310 events and 30,933 calls before, 1,257 and
#: 29,526 after), and again when append rounds began to prove the lease
#: (1,225 events and 28,702 calls); the ceiling keeps the 180 calls of
#: headroom it had.
EVENTS = 1_225
CEILING = 28_882


def plane_calls(seed: int = 17, scale: int = 20):
    """``(plane calls, kernel events)`` over one run of the smoke chaos cell."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            code = frame.f_code
            if code.co_filename in PLANE_FILES and not code.co_name.startswith("<"):
                calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        handle = run_chaos_cell(seed, scale)
    finally:
        sys.setprofile(previous)
    assert not handle.simulation.incomplete_transactions()
    return calls, handle.simulation.steps_taken


def test_plane_calls_per_event_stay_within_budget():
    calls, events = plane_calls()
    assert events == EVENTS, "the cell changed shape: re-measure the budget"
    assert calls <= CEILING, f"{calls} plane calls for {events} events ({calls / events:.1f} per event)"
    assert calls / events <= 24


def test_the_count_repeats_exactly():
    assert plane_calls(3, 40) == plane_calls(3, 40)
