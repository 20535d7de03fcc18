"""Extension experiment: read rounds under growing write contention.

This is the quantitative version of why the paper's *bounded* algorithms
matter: the prior unbounded designs (our validating retry baseline) need more
and more rounds as write contention grows, while algorithms B and C stay at
their fixed budgets (2 rounds / 1 round) no matter how many writers are
racing the reader.
"""

from __future__ import annotations

from repro.analysis import format_series, run_suite
from repro.analysis.sweep import ROUNDS_VS_CONTENTION

from benchutil import emit

WRITER_COUNTS = ROUNDS_VS_CONTENTION.axes["writers"]
PROTOCOLS = ROUNDS_VS_CONTENTION.protocols


def regenerate():
    sweeps = run_suite(ROUNDS_VS_CONTENTION).series()
    table = format_series(
        "writers",
        {name: sweeps[name].max_rounds_series() for name in PROTOCOLS},
        title="Worst-case READ rounds vs. concurrent writers",
    )
    return sweeps, table


def test_rounds_vs_contention(benchmark):
    sweeps, table = benchmark(regenerate)
    emit("contention_rounds", table)
    b_rounds = dict(sweeps["algorithm-b"].max_rounds_series())
    c_rounds = dict(sweeps["algorithm-c"].max_rounds_series())
    occ_rounds = dict(sweeps["occ-double-collect"].max_rounds_series())
    # The bounded algorithms stay at their budgets at every contention level.
    assert set(b_rounds.values()) == {2}
    assert all(rounds <= 2 for rounds in c_rounds.values())
    # The retry baseline needs at least its two collects and degrades with contention.
    assert occ_rounds[WRITER_COUNTS[0]] >= 2
    assert occ_rounds[WRITER_COUNTS[-1]] >= occ_rounds[WRITER_COUNTS[0]]
    assert max(occ_rounds.values()) > 2
