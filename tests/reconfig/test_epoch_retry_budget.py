"""The epoch-retry budget fails loudly, for every protocol.

A round (or a lock-based transaction) that meets a retired replica refreshes
its view and retries.  When the configuration never settles — here: a
directory that keeps a target retired with no change in flight, as
``TestEpochMismatchRetry`` does per automaton — the retries must stop after
``MAX_EPOCH_RETRIES`` with a diagnostic, not spin or strand the transaction.
"""

from __future__ import annotations

import pytest

from repro.consensus import ReconfigPlan, set_replica_group
from repro.ioa.errors import SimulationError
from repro.protocols import get_protocol, protocol_names
from repro.protocols.replication import MAX_EPOCH_RETRIES, RetryBudgetExhausted


def _stuck_system(protocol: str):
    """A reconfigurable rf=3 system whose ``sy`` is retired for good: the
    only planned change is far beyond the run, so nothing ever moves."""
    handle = get_protocol(protocol).build(
        num_readers=1,
        num_writers=1,
        num_objects=2,
        replication_factor=3,
        quorum="majority",
        reconfig=ReconfigPlan(requests=(set_replica_group("oy", ("sy", "sy.2", "sy.4"), at=10**9),)),
    )
    handle.directory.retired.add("sy")
    return handle


@pytest.mark.parametrize("kind", ["write", "read"])
@pytest.mark.parametrize("protocol", protocol_names())
def test_a_target_that_stays_retired_exhausts_the_budget(protocol, kind):
    handle = _stuck_system(protocol)
    if kind == "write":
        handle.submit_write({"ox": 1, "oy": 1}, txn_id="T1")
    else:
        handle.submit_read(txn_id="T1")
    with pytest.raises(SimulationError, match=f"T1 exhausted {MAX_EPOCH_RETRIES} epoch retries") as error:
        handle.run()
    retries = [txn for txn, _ in handle.directory.retries if txn == "T1"]
    assert len(retries) == MAX_EPOCH_RETRIES, (protocol, kind, retries)
    assert isinstance(error.value, RetryBudgetExhausted)
    assert (error.value.txn_id, error.value.budget, error.value.rounds) == ("T1", "MAX_EPOCH_RETRIES", len(retries))
