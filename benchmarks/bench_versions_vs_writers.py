"""Extension experiment: algorithm C's reply size versus write concurrency.

Paper claim (Section 9 / Figure 1b): algorithm C keeps READ transactions to a
single non-blocking round by letting servers return *multiple* versions — up
to the number of concurrent WRITE transactions ``|W|`` (plus the already
committed history in the paper's pseudocode, which never prunes ``Vals``).

Reproduction: the number of versions carried by read replies is measured as
the number of concurrent writers grows, alongside the number of WRITE
transactions actually concurrent with each READ, so both the raw pseudocode
behaviour (monotone growth with total writes) and the |W|-shaped concurrency
signal are visible.
"""

from __future__ import annotations

from repro.analysis import format_series, run_suite
from repro.analysis.sweep import VERSIONS_VS_WRITERS

from benchutil import emit

WRITER_COUNTS = VERSIONS_VS_WRITERS.axes["writers"]


def concurrent_writes_series(sweep):
    """Per sweep point: the maximum number of WRITEs concurrent with any READ."""
    series = []
    for point in sweep.points:
        history = point.result.history
        max_concurrent = 0
        for entry in history.reads():
            max_concurrent = max(max_concurrent, history.max_concurrent_writes(entry))
        series.append((point.x, max_concurrent))
    return series


def regenerate():
    (sweep,) = run_suite(VERSIONS_VS_WRITERS).series().values()
    versions = sweep.max_versions_series()
    concurrency = concurrent_writes_series(sweep)
    table = format_series(
        "writers",
        {
            "max versions per reply (algorithm C)": versions,
            "max WRITEs concurrent with a READ (|W|)": concurrency,
        },
        title="Algorithm C: reply size vs. write concurrency",
    )
    return versions, concurrency, table


def test_versions_vs_writers(benchmark):
    versions, concurrency, table = benchmark(regenerate)
    emit("versions_vs_writers", table)
    versions_by_writers = dict(versions)
    # More writers -> more versions in flight; the series must be monotone
    # non-decreasing and exceed one version as soon as there is any contention.
    values = [versions_by_writers[w] for w in WRITER_COUNTS]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert versions_by_writers[WRITER_COUNTS[-1]] > versions_by_writers[WRITER_COUNTS[0]]
    assert versions_by_writers[WRITER_COUNTS[-1]] > 1
