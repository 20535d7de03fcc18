"""Chaos runs with no fault plane, on the kernel's one virtual clock.

Without a fault plane every delivery is stamped ``ready_at=0``, so the only
events a :class:`~repro.faults.ChaosScheduler` can find unripe are timers, and
the only thing that ripens a timer at idle is the kernel's own jump to it.
The cells are B, C and OCC on a three-member coordinator (cf=3, whose
elections arm timers), 2 readers, 2 writers and 2 objects, seeds 1–5, with
the health plane on.

``golden_one_clock.json`` pins each run's trace signature, ``steps_taken``
and final ``now()``; it was recorded while the scheduler still kept a clock
of its own, and reads the same on the kernel's.  That older clock was the raw
step counter: it missed the kernel's jump, called the ripe timer unripe, and
reported a fast-forward and a health stall that never happened (12 of these
15 runs, 1–2 stalls each).  The kernel now offers a scheduler ripe events
only, and neither signal exists: no fast-forward counter is ever created.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.workload import WorkloadSpec, generate_workload, submit_workload
from repro.faults import ChaosScheduler
from repro.obs import ObservabilityPlane
from repro.protocols import get_protocol

GOLDEN = json.loads((Path(__file__).parent / "golden_one_clock.json").read_text())
PROTOCOLS = ("algorithm-b", "algorithm-c", "occ-double-collect")
SEEDS = (1, 2, 3, 4, 5)


def run_cell(protocol: str, seed: int):
    """Build, load and run one cell to completion; returns the handle."""
    handle = get_protocol(protocol).build(
        num_readers=2,
        num_writers=2,
        num_objects=2,
        consensus_factor=3,
        scheduler=ChaosScheduler(seed=seed),
        seed=seed,
        obs=ObservabilityPlane(health=True),
    )
    spec = WorkloadSpec(reads_per_reader=5, writes_per_writer=5, seed=seed)
    submit_workload(handle, generate_workload(spec, handle.readers, handle.writers, handle.objects))
    handle.run_to_completion()
    return handle


def outcome(handle) -> dict:
    simulation = handle.simulation
    return {
        "signature": hashlib.sha256(repr(handle.trace().signature()).encode("utf-8")).hexdigest(),
        "steps_taken": simulation.steps_taken,
        "now": simulation.now(),
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_plane_less_chaos_run_matches_its_golden(protocol, seed):
    assert outcome(run_cell(protocol, seed)) == GOLDEN[f"{protocol}/{seed}"]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_timer_the_kernel_jumped_to_is_ripe_for_the_scheduler(protocol, seed):
    simulation = run_cell(protocol, seed).simulation
    assert "scheduler.chaos_fastforwards" not in simulation.obs.registry.snapshot()["counters"]
