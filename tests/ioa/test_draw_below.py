"""``draw_below``: every plane's seeded integer draw.

It runs the rejection loop CPython 3.11's ``randrange(n)`` runs, so on 3.11 it
returns the same value and leaves the generator in the same state: schedules,
latency samples and election timeouts drawn through it are the ones drawn
before it existed.  Python promises only ``random()``'s sequence across
versions, so the first draws for one seed are pinned as well: they must not
move on any interpreter.
"""

from __future__ import annotations

import random
import sys

import pytest

from repro.consensus.election import LeaderElection
from repro.faults import UniformLatency
from repro.ioa.scheduler import draw_below

on_311 = pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="compares with CPython 3.11's randrange")


@on_311
@pytest.mark.parametrize("seed", range(50))
def test_a_draw_is_randrange_and_leaves_the_same_state(seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    for n in range(1, 201):
        assert draw_below(ours, n) == theirs.randrange(n), n
        assert ours.getstate() == theirs.getstate(), n


@on_311
def test_latency_and_election_timeouts_are_randint():
    latency, seeded = UniformLatency(2, 9), random.Random(5)
    reference = random.Random(5)
    assert [latency.sample(seeded) for _ in range(200)] == [reference.randint(2, 9) for _ in range(200)]
    election = LeaderElection("m1", index=1, group_size=3, initial_leader="m0", seed=17)
    reference = random.Random()
    reference.setstate(election._rng.getstate())
    assert [election.next_timeout() for _ in range(50)] == [reference.randint(40, 80) for _ in range(50)]


def test_the_first_draws_of_seed_17_are_pinned():
    rng = random.Random(17)
    assert [draw_below(rng, 13) for _ in range(16)] == [8, 6, 12, 4, 5, 4, 2, 12, 11, 11, 8, 10, 4, 1, 0, 3]


@pytest.mark.parametrize("n", [0, -1])
def test_an_empty_range_is_refused(n):
    with pytest.raises(ValueError, match="n >= 1"):
        draw_below(random.Random(0), n)
