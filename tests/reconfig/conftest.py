"""Shared helpers for the membership-reconfiguration tests.

``run_reconfig_workload`` submits a longer chained workload than the golden
fixed workload so the scheduled membership change lands *in the middle* of
live traffic; every handle is registered with the shared invariant checker
(``tests/invariants.py``) and the autouse fixture re-checks the safety
invariants — including the two new reconfiguration invariants — at the end
of every test in this suite.
"""

from __future__ import annotations

import pytest

from repro.faults import ChaosScheduler, FaultInjector
from repro.ioa import FIFOScheduler
from repro.protocols import get_protocol

from tests import invariants


@pytest.fixture(autouse=True)
def invariant_autocheck():
    """Apply the shared safety-invariant checker to every run of this suite."""
    invariants.reset()
    yield
    invariants.check_registered()


def run_reconfig_workload(
    protocol_name: str,
    plan=None,
    rounds: int = 3,
    replication_factor: int = 3,
    quorum: str = "majority",
    seed: int = 3,
    scheduler=None,
    run_to_completion: bool = True,
    **settings,
):
    """Build, submit ``rounds`` chained write+read pairs, run; return handle.

    Writes are chained (``W2 after W1`` …) and each read follows the latest
    write, so the workload stays alive across the whole reconfiguration
    window and the final read must observe the final write through whatever
    configuration is current by then.  ``settings`` are any other
    ``Protocol.build`` settings (``reconfig`` above all).
    """
    protocol = get_protocol(protocol_name)
    num_readers = 1 if not protocol.supports_multiple_readers else 2
    handle = protocol.build(
        num_readers=num_readers,
        num_writers=2,
        scheduler=scheduler or ChaosScheduler(base=FIFOScheduler()),
        seed=seed,
        replication_factor=replication_factor,
        quorum=quorum,
        fault_plane=FaultInjector(plan, seed=seed) if plan is not None else None,
        **settings,
    )
    previous = None
    for index in range(1, rounds + 1):
        writer = handle.writers[(index - 1) % len(handle.writers)]
        previous = handle.submit_write(
            {obj: f"v{index}-{obj}" for obj in handle.objects},
            writer=writer,
            txn_id=f"W{index}",
            after=[previous] if previous else (),
        )
        reader = handle.readers[(index - 1) % len(handle.readers)]
        handle.submit_read(
            handle.objects, reader=reader, txn_id=f"R{index}", after=[previous]
        )
    if run_to_completion:
        handle.run_to_completion()
    else:
        handle.run()
    return invariants.register(handle)


def final_read_values(handle, txn_id: str):
    """The values a read returned, as a dict."""
    record = handle.simulation.transaction_record(txn_id)
    assert record is not None and record.complete, txn_id
    return dict(record.result.values)
