"""A delivered id lives exactly as long as a copy of its message does.

The injector suppresses every copy of a message after the first delivery
(at-most-once processing, a safety property), and it used to remember every
delivered id for the whole run: ~22k ids at the end of the perf benchmark's
``chaos`` cell, none of which could ever be asked about again.  It now counts
each message's live copies (in the kernel's frontier and in its transport
buffer) and forgets the id with the last one.  At the end of that cell the
count must be exactly the live copies, and every id still remembered must
have one; ``test_buffer_equivalence.py`` pins that no suppression decision
changed against the never-forgetting oracle.
"""

from __future__ import annotations

from collections import Counter

import pytest

from tests.faults.perf_chaos_cell import run_chaos_cell

pytestmark = pytest.mark.invariants


def live_copies(handle) -> Counter:
    """msg_id -> copies parked in the transport buffer or pending delivery."""
    simulation = handle.simulation
    held = (m.msg_id for m in simulation.fault_plane.held_messages())
    pending = (d.message.msg_id for d in simulation.pending_deliveries())
    return Counter(held) + Counter(pending)


def test_every_remembered_id_of_the_chaos_cell_has_a_live_copy():
    handle = run_chaos_cell(17, 1)
    plane = handle.simulation.fault_plane
    live = live_copies(handle)
    assert plane.stats.duplicates_suppressed > 0, "no duplicate was delivered: the case is not exercised"
    assert live, "the fail-stop should leave mail parked forever"
    stale = plane._delivered_ids - live.keys()
    assert not stale, f"{len(stale)} delivered ids outlived every copy of their message"
    assert plane._copies == live
