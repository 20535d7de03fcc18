"""Shared helpers for the placement-layer tests.

``run_fixed_workload`` mirrors ``tests/faults/conftest.py`` but threads the
replication knobs through ``Protocol.build`` — the same explicit-id workload
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
    num_objects: int = 2,
    replication_factor: int = 1,
    quorum: str = "read-one-write-all",
    consensus_factor: int = 1,
    election_timeout=None,
    plan=None,
    reconfig=None,
    controller=None,
    obs=None,
    trace_mode=None,
    persistence=None,
    leases=None,
    run_to_completion: bool = True,
):
    """Build, submit the fixed explicit-id workload, run; returns the handle."""
    protocol = get_protocol(protocol_name)
    if not protocol.supports_multiple_readers:
        num_readers = 1
    handle = protocol.build(
        num_readers=num_readers,
        num_writers=num_writers,
        num_objects=num_objects,
        scheduler=scheduler or FIFOScheduler(),
        seed=seed,
        replication_factor=replication_factor,
        quorum=quorum,
        consensus_factor=consensus_factor,
        election_timeout=election_timeout,
        reconfig=reconfig,
        controller=controller,
        obs=obs,
        trace_mode=trace_mode,
        persistence=persistence,
        leases=leases,
        fault_plane=FaultInjector(plan, seed=seed) if plan is not None else None,
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
