"""The workload generator's pick functions against the pre-change generator.

``src/`` builds its pick functions once per spec and transaction size and
owns ``random.sample``'s draws; ``tests/analysis/reference_workload.py`` keeps
the generator as it was.  Every trace, golden and filed suite rests on the
two producing equal workloads (ids, objects, values and submission order),
so they are compared here over object counts, sizes, skews and seeds, and the
owned sampler is compared with ``random.Random.sample`` itself, values and
generator state, over both of its branches.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.workload import WorkloadSpec, _sampler, generate_workload, submit_workload

from tests.analysis import reference_workload
from tests.conftest import build_system


@st.composite
def workload_args(draw):
    count = draw(st.integers(1, 30))
    objects = tuple(f"o{i}" for i in range(count))
    spec = WorkloadSpec(
        reads_per_reader=draw(st.integers(0, 6)),
        writes_per_writer=draw(st.integers(0, 6)),
        read_size=draw(st.integers(0, count + 1)),
        write_size=draw(st.integers(0, count + 1)),
        zipf_s=draw(st.sampled_from((0.0, 0.7, 1.2, 3.0))),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    readers = tuple(f"r{i}" for i in range(1, draw(st.integers(1, 3)) + 1))
    writers = tuple(f"w{i}" for i in range(1, draw(st.integers(1, 3)) + 1))
    return spec, readers, writers, objects


@settings(max_examples=400, deadline=None)
@given(workload_args())
def test_generate_workload_equals_the_reference(args):
    assert generate_workload(*args) == reference_workload.generate_workload(*args)


class RecordingSimulation:
    """What ``submit_workload`` needs of a simulation: ``submit``, recorded."""

    def __init__(self):
        self.submitted = []

    def submit(self, client, txn, txn_id=None, after=()):
        self.submitted.append((client, txn, txn_id))
        return txn_id


def submitted(submit, workload):
    handle = SimpleNamespace(simulation=RecordingSimulation())
    ids = submit(handle, workload)
    return ids, handle.simulation.submitted


@settings(max_examples=200, deadline=None)
@given(workload_args())
def test_submission_order_equals_the_reference(args):
    workload = generate_workload(*args)
    assert submitted(submit_workload, workload) == submitted(reference_workload.submit_workload, workload)


def test_uneven_client_queues_interleave_as_the_reference():
    """Clients whose queues run out at different rounds drop out of the
    round-robin at the same point as the reference's index loop."""
    objects = ("o1", "o2", "o3")
    workload = generate_workload(WorkloadSpec(7, 2, seed=4), ("r1", "r2"), ("w1", "w2", "w3"), objects)
    shorter = type(workload)(reads=workload.reads[:9], writes=workload.writes[1:])
    for case in (workload, shorter):
        assert submitted(submit_workload, case) == submitted(reference_workload.submit_workload, case)


def test_the_real_kernel_queues_the_same_records_in_the_same_order():
    orders = []
    for submit in (submit_workload, reference_workload.submit_workload):
        handle = build_system("algorithm-b", num_readers=2, num_writers=2, num_objects=3)
        workload = generate_workload(WorkloadSpec(5, 3, seed=9), handle.readers, handle.writers, handle.objects)
        ids = submit(handle, workload)
        records = handle.transaction_records()
        orders.append((ids, [(r.txn_id, r.client, r.txn, r.submitted_at) for r in records]))
    assert orders[0] == orders[1]


@pytest.mark.parametrize("count", range(1, 41))
def test_the_owned_sampler_is_random_sample(count):
    """Values and generator state after three picks, for every ``k`` up to
    the population and seeds 0-49: from 22 objects up, ``k`` of 5 or less
    takes the selected-set branch, everything else the pool swap."""
    population = [f"x{i}" for i in range(count)]
    for k in range(1, count + 1):
        for seed in range(50):
            owned, reference = random.Random(seed), random.Random(seed)
            sample = _sampler(owned, population, k)
            assert [sample() for _ in range(3)] == [reference.sample(population, k) for _ in range(3)]
            assert owned.getstate() == reference.getstate()


def test_the_sampler_refuses_what_sample_refuses():
    for k in (-1, 4):
        with pytest.raises(ValueError, match="Sample larger than population"):
            random.Random(0).sample(("a", "b", "c"), k)
        with pytest.raises(ValueError, match="Sample larger than population"):
            _sampler(random.Random(0), ("a", "b", "c"), k)


def test_a_workload_needs_an_object_to_pick_from():
    for zipf_s in (0.0, 1.2):
        with pytest.raises(ValueError, match="at least one object"):
            generate_workload(WorkloadSpec(zipf_s=zipf_s), ("r1",), ("w1",), ())
