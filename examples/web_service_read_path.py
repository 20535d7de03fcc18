#!/usr/bin/env python
"""A web-service read path: compare READ-transaction designs on a read-heavy workload.

The paper's motivation (Section 1) is the read-dominated traffic of web
services — Facebook's TAO sees ~500 reads per write, Google's F1 orders of
magnitude more reads than general transactions — where user-visible latency
is dominated by cross-shard READ transactions.

This example plays a TAO-like read-heavy workload (many multi-shard READ
transactions, a few WRITE transactions) through the protocols of the paper's
table (the filed ``paper`` suite, ``python -m repro.analysis paper``) and
prints the latency/guarantee trade-off: who is as fast as simple reads, who
pays an extra round, who blocks, who retries, and who silently gives up
strict serializability.

Run with::

    python examples/web_service_read_path.py
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis import WorkloadSpec, format_table
from repro.analysis.sweep import PAPER, run_suite, suite_rows


def main() -> None:
    workload = WorkloadSpec(
        reads_per_reader=12,
        writes_per_writer=2,
        read_size=3,
        write_size=2,
        zipf_s=0.8,   # skewed object popularity, as in social-graph workloads
        seed=2024,
    )
    print("Workload:", workload.describe())
    print()

    suite = replace(
        PAPER,
        seed=2024,
        shared=dict(num_readers=2, num_writers=2, num_objects=4, workload=workload, scheduler="random"),
    )
    rows = suite_rows(run_suite(suite))
    headers = list(rows[0])
    print(format_table(headers, [[row[column] for column in headers] for row in rows],
                       title="READ-transaction designs on a read-heavy workload"))
    print()
    print("Reading the table:")
    print("  * 'snow' is the SNOW verdict measured on this execution (lowercase = property violated).")
    print("  * algorithm-a matches simple-rw's single round while keeping SNOW — but needs MWSR + C2C.")
    print("  * algorithm-b/c are the paper's bounded-latency designs for the general MWMR setting:")
    print("    B pays a second round, C pays multi-version replies.")
    print("  * eiger keeps the latency but loses the S — see examples/eiger_anomaly.py.")
    print("  * s2pl blocks (loses N); occ-double-collect retries (unbounded rounds under contention).")


if __name__ == "__main__":
    main()
