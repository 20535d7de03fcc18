"""What the kernel spends per message, counted in Python calls.

Every step of the paper's model is a ``send``, ``recv``, ``INV`` or ``RESP``
record, so the calls the kernel makes per record are the simulator's unit
cost.  A call count repeats exactly under a fixed seed, so it is pinned here
as a ceiling: a change that makes the kernel's per-message path dearer fails
this test whatever the machine.  Three FIFO cells at seed 17; the count is
every ``call`` event ``sys.setprofile`` sees for a function defined in
``src/repro/ioa/*.py`` while the run loops.  Names starting with ``<``
(comprehensions, generator expressions) are left out, so an interpreter that
inlines comprehensions counts the same.

A record is filled by plain attribute stores on its writable twin (see
``repro.ioa.actions.FrozenRecord``), never through a slot's ``__set__``
method-wrapper.  ``sys.setprofile`` reports no call of a method-wrapper, so
that pin reads the names of every function the run loop called instead: none
may name a ``__set__`` wrapper, through a module global or an attribute.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import MethodWrapperType

import pytest

import repro.ioa
from repro.analysis.workload import WorkloadSpec, generate_workload, submit_workload
from repro.ioa import ActionKind, FIFOScheduler
from repro.protocols import get_protocol

KERNEL_FILES = frozenset(str(path) for path in Path(repro.ioa.__file__).resolve().parent.glob("*.py"))

#: protocol, readers, writers, objects, transaction size, zipf skew
CELLS = {
    "algorithm-a": (1, 2, 3, 2, 0.0),
    "algorithm-c": (2, 4, 8, 4, 1.2),
    "s2pl": (2, 4, 8, 4, 1.2),
}

#: ceiling on the kernel's calls over the whole run, and the messages sent
BUDGET = {
    "algorithm-a": (8_823, 400),
    "algorithm-c": (29_013, 1_440),
    "s2pl": (41_085, 2_240),
}


def loaded_cell(protocol: str):
    readers, writers, objects, size, zipf = CELLS[protocol]
    handle = get_protocol(protocol).build(
        num_readers=readers, num_writers=writers, num_objects=objects, seed=17, scheduler=FIFOScheduler()
    )
    spec = WorkloadSpec(40, 20, size, size, zipf, 17)
    submit_workload(handle, generate_workload(spec, handle.readers, handle.writers, handle.objects))
    return handle


def kernel_calls(protocol: str):
    """``(kernel calls, messages sent)`` over one run of ``protocol``'s cell."""
    handle = loaded_cell(protocol)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            code = frame.f_code
            if code.co_filename in KERNEL_FILES and not code.co_name.startswith("<"):
                calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        handle.run()
    finally:
        sys.setprofile(previous)
    assert not handle.simulation.incomplete_transactions()
    sends = sum(1 for action in handle.simulation.trace if action.kind is ActionKind.SEND)
    return calls, sends


@pytest.mark.parametrize("protocol", sorted(CELLS))
def test_kernel_calls_per_message_stay_within_budget(protocol):
    calls, sends = kernel_calls(protocol)
    ceiling, messages = BUDGET[protocol]
    assert sends == messages, "the cell changed shape: re-measure the budget"
    assert calls <= ceiling, f"{calls} kernel calls for {sends} messages ({calls / sends:.1f} per message)"


def test_the_count_repeats_exactly():
    assert kernel_calls("algorithm-a") == kernel_calls("algorithm-a")


def setters_named_in_the_run(protocol: str):
    """``(function, name)`` for every name a function called while the run
    loops binds to a slot's ``__set__`` method-wrapper."""
    handle = loaded_cell(protocol)
    ran = {}

    def note(frame, event, arg):
        if event == "call":
            ran.setdefault(frame.f_code, frame.f_globals)

    previous = sys.getprofile()
    sys.setprofile(note)
    try:
        handle.run()
    finally:
        sys.setprofile(previous)
    assert len(ran) > 20  # the kernel, the protocol and the trace all ran
    return {
        (code.co_qualname, name)
        for code, names in ran.items()
        for name in code.co_names
        if name == "__set__"
        or (type(names.get(name)) is MethodWrapperType and names[name].__name__ == "__set__")
    }


@pytest.mark.parametrize("protocol", sorted(CELLS))
def test_no_slot_setter_is_called_while_the_run_loops(protocol):
    assert setters_named_in_the_run(protocol) == set()
