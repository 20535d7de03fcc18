"""Shared helpers for the placement-layer tests.

``run_fixed_workload`` mirrors ``tests/faults/conftest.py`` but forwards any
build setting to ``Protocol.build`` — the same explicit-id workload
the golden signatures were captured with, so signatures are comparable
across runs *and* across the refactor boundary.

Every handle the helper returns is registered with the shared invariant
checker (``tests/invariants.py``); the autouse ``invariant_autocheck``
fixture re-checks the safety invariants at the end of each test, so every
simulation run in this suite passes through the checker automatically.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultInjector
from repro.ioa import FIFOScheduler
from repro.protocols import get_protocol

from tests import invariants


@pytest.fixture(autouse=True)
def invariant_autocheck():
    """Apply the shared safety-invariant checker to every run of this suite."""
    invariants.reset()
    yield
    invariants.check_registered()


def run_fixed_workload(
    protocol_name: str,
    scheduler=None,
    seed: int = 3,
    num_readers: int = 2,
    num_writers: int = 2,
    plan=None,
    run_to_completion: bool = True,
    **settings,
):
    """Build, submit the fixed explicit-id workload, run; returns the handle.

    ``settings`` are any other ``Protocol.build`` settings; ``plan`` is a
    fault plan, injected with the build's seed.
    """
    protocol = get_protocol(protocol_name)
    if not protocol.supports_multiple_readers:
        num_readers = 1
    handle = protocol.build(
        num_readers=num_readers,
        num_writers=num_writers,
        scheduler=scheduler or FIFOScheduler(),
        seed=seed,
        fault_plane=FaultInjector(plan, seed=seed) if plan is not None else None,
        **settings,
    )
    w1 = handle.submit_write(
        {obj: f"v1-{obj}" for obj in handle.objects}, writer=handle.writers[0], txn_id="W1"
    )
    handle.submit_read(handle.objects, reader=handle.readers[0], txn_id="R1")
    w2 = handle.submit_write(
        {obj: f"v2-{obj}" for obj in handle.objects}, writer=handle.writers[-1], txn_id="W2", after=[w1]
    )
    handle.submit_read(handle.objects, reader=handle.readers[-1], txn_id="R2", after=[w2])
    if run_to_completion:
        handle.run_to_completion()
    else:
        handle.run()
    return invariants.register(handle)
