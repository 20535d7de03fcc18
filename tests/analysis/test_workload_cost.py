"""What generating and queueing a workload costs per transaction, in Python calls.

Every suite row, sweep and benchmark cell draws its transactions from
``generate_workload`` and queues them with ``submit_workload``, once per run.
Both are linear: a pick function and its tables are built once per spec and
transaction size, then each transaction costs the same fixed number of calls.
The count here is every ``call`` event ``sys.setprofile`` sees (generated
``<string>`` methods, comprehensions and generator resumptions included)
while one 2-reader/2-writer algorithm B system is given a workload of 100,
then 1,000 transactions per client.  The two per-transaction counts must
agree within 1 %, so a table rebuilt per pick (the generator used to rebuild
the Zipf weights on every pick) fails here whatever the machine.

Measured on CPython 3.11, per transaction at 1,000 per client:

=====================  ======  =====
spec                   before  after
=====================  ======  =====
uniform, 3 objects      13.51   7.51
Zipf 1.2, 8 objects     13.51   8.51
=====================  ======  =====

"Before" is the generator that drew through ``random.sample`` and
rebuilt the weights per pick (``tests/analysis/reference_workload.py``).
"""

from __future__ import annotations

import sys

import pytest

from repro.analysis.workload import WorkloadSpec, generate_workload, submit_workload
from repro.protocols import get_protocol

#: spec → (objects, transaction size, zipf_s, ceiling on calls per transaction)
SPECS = {
    "uniform-3": (3, 2, 0.0, 8.0),
    "zipf-8": (8, 4, 1.2, 9.0),
}


def calls_per_transaction(spec_name: str, per_client: int) -> float:
    objects, size, zipf_s, _ = SPECS[spec_name]
    handle = get_protocol("algorithm-b").build(num_readers=2, num_writers=2, num_objects=objects, seed=17)
    spec = WorkloadSpec(per_client, per_client, size, size, zipf_s, 17)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        workload = generate_workload(spec, handle.readers, handle.writers, handle.objects)
        submit_workload(handle, workload)
    finally:
        sys.setprofile(previous)
    assert len(handle.transaction_records()) == workload.total_transactions == 4 * per_client
    return calls / workload.total_transactions


@pytest.mark.parametrize("spec_name", sorted(SPECS))
def test_calls_per_transaction_do_not_grow_with_the_workload(spec_name):
    short, long = calls_per_transaction(spec_name, 100), calls_per_transaction(spec_name, 1000)
    assert abs(short - long) <= 0.01 * long, (short, long)
    assert long <= SPECS[spec_name][3], long
