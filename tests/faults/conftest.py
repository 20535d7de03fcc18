"""Shared helpers for the fault-plane tests.

Trace comparisons across runs use ``Trace.signature()``, which leaves the ids
out (runs that send a different number of messages number them differently).
The workload names its transactions itself (``W1``, ``R1``, …), so a test can
refer to them by name.
"""

from __future__ import annotations

from repro.faults import FaultInjector
from repro.ioa import FIFOScheduler
from repro.protocols import get_protocol


def run_fixed_workload(
    protocol_name: str,
    plan=None,
    scheduler=None,
    seed: int = 3,
    num_readers: int = 1,
    num_writers: int = 2,
    num_objects: int = 2,
    run_to_completion: bool = False,
):
    """Build, submit a fixed explicit-id workload, run until idle.

    Returns the system handle; ``handle.trace().signature()`` is comparable
    across calls.
    """
    protocol = get_protocol(protocol_name)
    if not protocol.supports_multiple_readers:
        num_readers = 1
    handle = protocol.build(
        num_readers=num_readers,
        num_writers=num_writers,
        num_objects=num_objects,
        scheduler=scheduler or FIFOScheduler(),
        seed=seed,
        fault_plane=FaultInjector(plan, seed=seed) if plan is not None else None,
    )
    w1 = handle.submit_write({obj: f"v1-{obj}" for obj in handle.objects}, writer=handle.writers[0], txn_id="W1")
    r1 = handle.submit_read(handle.objects, reader=handle.readers[0], txn_id="R1")
    w2 = handle.submit_write(
        {obj: f"v2-{obj}" for obj in handle.objects}, writer=handle.writers[-1], txn_id="W2", after=[w1]
    )
    r2 = handle.submit_read(handle.objects, reader=handle.readers[-1], txn_id="R2", after=[w2])
    if run_to_completion:
        handle.run_to_completion()
    else:
        handle.run()
    return handle
