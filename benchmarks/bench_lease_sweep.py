"""Extension experiment: the leader-lease grid — the consensus read fast path.

ISSUE 10's lease layer lets the consensus leader answer read-only
coordinator requests (``get-tag-arr``) locally from its applied state
machine while it holds a quorum-proven lease bounded by the election
timeout on the kernel's virtual clock — no log entry, no replication round,
no commit wait per read.  This benchmark plays the consensus workload
through every coordinator protocol at ``replication_factor=3`` + majority +
``consensus_factor=3``, leases off and on, fault-free and with the lease
holder fail-stopping mid-run, and reports per cell: the SNOW verdict and
Lemma-20 column (``max_read_rounds``) the fast path must not disturb, the
commit-latency aggregate, and the lease block — acquisitions / renewals /
expiries, local reads vs read applies, and the commit-bypass read latency.

Two records are emitted: a human-readable table and
``results/BENCH_lease.json`` — the machine-readable ``protocol × leases ×
scenario`` rows tracked across PRs (the lease sibling of
``BENCH_persist.json``).

Expected shape: for the protocols whose reads reach the coordinator as
read-only requests (algorithm B's and C's ``get-tag-arr``), the leased
read latency lands strictly below the unleased run's commit latency —
that is the entire point of the fast path — with SNOW / Lemma-20 /
availability byte-identical.  OCC's only coordinator request (``get-ts``)
*mints* a timestamp, i.e. mutates, so its cells pin the null effect: the
knob on, nothing changes — no lease round is ever started and every
latency column matches the unleased cell.
"""

from __future__ import annotations

from repro.analysis import bench_payload, format_table, run_suite, suite_rows
from repro.analysis.sweep import LEASE

from benchutil import emit, emit_json

PROTOCOLS = LEASE.protocols
#: the protocols with a read-only coordinator request to accelerate
LEASED_READ_PROTOCOLS = ("algorithm-b", "algorithm-c")
MODES = LEASE.axes["leases"]
SCENARIOS = LEASE.axes["scenario"]

HEADERS = [
    "protocol",
    "leases",
    "scenario",
    "SNOW",
    "rounds",
    "avail",
    "commit mean",
    "local/applied",
    "read mean",
    "acq/renew/exp",
]


def regenerate():
    rows = suite_rows(run_suite(LEASE))
    table_rows = [
        [
            row["protocol"],
            row["leases"],
            row["scenario"],
            row["snow"],
            row["max_read_rounds"],
            f"{row['availability']:.2f}",
            row.get("commit_latency_mean", "-"),
            f"{row.get('local_reads', 0)}/{row.get('read_applies', 0)}",
            row.get("lease_read_latency_mean", "-"),
            f"{row.get('lease_acquisitions', 0)}/{row.get('lease_renewals', 0)}/{row.get('lease_expiries', 0)}",
        ]
        for row in rows
    ]
    table = format_table(
        HEADERS, table_rows, title="Leader-lease grid: the consensus read fast path"
    )
    return rows, table


def test_lease_sweep(benchmark):
    rows, table = benchmark(regenerate)
    emit("lease_sweep", table)
    emit_json(LEASE.name, bench_payload(LEASE, rows))

    cells = {(r["protocol"], r["leases"], r["scenario"]): r for r in rows}
    assert len(rows) == len(PROTOCOLS) * len(MODES) * len(SCENARIOS)

    for protocol in PROTOCOLS:
        for scenario in SCENARIOS:
            off = cells[(protocol, "none", scenario)]
            on = cells[(protocol, "leased", scenario)]
            # The fast path must be invisible in every verdict column:
            # same SNOW, same Lemma-20 one-round reads, full availability.
            assert on["snow"] == off["snow"], (protocol, scenario)
            assert on["consistent"] == off["consistent"], (protocol, scenario)
            assert on["max_read_rounds"] == off["max_read_rounds"], (protocol, scenario)
            assert on["availability"] == 1.0 == off["availability"], (protocol, scenario)

    for protocol in LEASED_READ_PROTOCOLS:
        for scenario in SCENARIOS:
            off = cells[(protocol, "none", scenario)]
            on = cells[(protocol, "leased", scenario)]
            # The headline number: reads served under the lease skip the
            # commit path entirely, so their latency lands strictly below
            # the unleased run's commit latency.
            assert on["local_reads"] >= 1, (protocol, scenario)
            assert on["lease_acquisitions"] >= 1, (protocol, scenario)
            assert (
                on["lease_read_latency_mean"] < off["commit_latency_mean"]
            ), (protocol, scenario, on["lease_read_latency_mean"], off["commit_latency_mean"])
        # Fault-free, every read is eventually lease-served (copies a
        # follower committed before the serve notification count as
        # read applies on top, never instead).
        steady = cells[(protocol, "leased", "steady")]
        assert steady["local_read_ratio"] is not None

    # OCC pins the null effect: no read-only coordinator requests, so the
    # knob changes nothing — no lease round ever starts.
    for scenario in SCENARIOS:
        off = cells[("occ-double-collect", "none", scenario)]
        on = cells[("occ-double-collect", "leased", scenario)]
        assert "lease_acquisitions" not in on, scenario  # no lease activity at all
        assert on["commit_latency_mean"] == off["commit_latency_mean"], scenario
        assert on["total_messages"] == off["total_messages"], scenario
