"""Extension experiment: the durability grid — persistence modes × crashes.

PR 9's persistence plane restores Raft's durable-state assumption for the
replicated coordinator: term/vote/log write through to a stable store and a
crash-with-amnesia recovers from it instead of resetting.  This benchmark
plays the consensus workload through every coordinator protocol under three
persistence modes (volatile seed members / durable / durable with
``compact_every=4`` checkpointing) crossed with an amnesiac member crash,
and reports per cell: the SNOW verdict and availability (the invariant
columns the regression gate pins), election churn, and the new persistence
block — recoveries taken, checkpoints cut, compaction ratio, retained-vs-
total log length.

Two non-gated wall-clock series ride along: ``recovery`` (time to rebuild a
full member group from a populated plane — the restart-from-storage path)
and ``journal`` (file-backend compaction: journal bytes before/after the
snapshot rewrite).

Expected shape: every durable cell matches the fault-free verdicts with
availability 1.0; the volatile amnesia cells stay safe on these schedules
too (the grid seeds recover between elections — the *hazard* is pinned by
the strict xfail in ``tests/consensus/test_chaos_grid.py``); compaction
keeps ``retained_entries`` bounded while verdicts ride through unchanged.
"""

from __future__ import annotations

import shutil
import tempfile
import time

from repro.analysis import bench_payload, format_table, run_suite, suite_rows
from repro.analysis.sweep import PERSIST
from repro.faults import ChaosScheduler
from repro.ioa import FIFOScheduler
from repro.persist import PersistencePlane, PersistencePolicy
from repro.protocols import get_protocol

from benchutil import emit, emit_json

PROTOCOLS = PERSIST.protocols
MODES = PERSIST.axes["persistence"]
SEED = PERSIST.seed

HEADERS = [
    "protocol",
    "persistence",
    "scenario",
    "SNOW",
    "avail",
    "recoveries",
    "checkpoints",
    "compaction",
    "retained/log",
]


def regenerate():
    rows = suite_rows(run_suite(PERSIST))
    table_rows = [
        [
            row["protocol"],
            row["persistence"],
            row["scenario"],
            row["snow"],
            f"{row['availability']:.2f}",
            row.get("recoveries", "-"),
            row.get("checkpoints", "-"),
            f"{row['compaction_ratio']:.2f}" if "compaction_ratio" in row else "-",
            f"{row['retained_entries']}/{row['log_length']}" if "log_length" in row else "-",
        ]
        for row in rows
    ]
    table = format_table(
        HEADERS, table_rows, title="Durability grid: persistence modes under amnesiac crashes"
    )
    return rows, table


def build_system(persistence):
    return get_protocol("algorithm-b").build(
        num_readers=2,
        num_writers=2,
        num_objects=2,
        scheduler=ChaosScheduler(base=FIFOScheduler()),
        seed=SEED,
        consensus_factor=3,
        persistence=persistence,
    )


def build_members(persistence, tag: str = "a"):
    """Build + run one fixed workload round.  ``tag`` keeps transaction ids
    unique across runs sharing one plane — the recovered reply cache dedups
    request ids *by design* (exactly-once), so a new transaction must never
    reuse an old id."""
    handle = build_system(persistence)
    w1 = handle.submit_write(
        {obj: f"v1-{obj}" for obj in handle.objects},
        writer=handle.writers[0],
        txn_id=f"W1{tag}",
    )
    handle.submit_read(handle.objects, reader=handle.readers[0], txn_id=f"R1{tag}")
    w2 = handle.submit_write(
        {obj: f"v2-{obj}" for obj in handle.objects},
        writer=handle.writers[-1],
        txn_id=f"W2{tag}",
        after=[w1],
    )
    handle.submit_read(handle.objects, reader=handle.readers[-1], txn_id=f"R2{tag}", after=[w2])
    handle.run_to_completion()
    return handle


def recovery_microbench(rounds: int = 20):
    """Wall-clock restart-from-storage: rebuild the member group from a
    populated plane.  Recovery runs inside ``build`` (attaching a non-empty
    store replays meta/log/commit into the member), so a plain build is the
    restart path; no workload is replayed — the storage tier is fresh, only
    consensus members are durable.  Not gated — recorded for the trajectory
    only."""
    plane = PersistencePlane(PersistencePolicy())
    build_members(plane, tag="seed")
    start = time.perf_counter()
    for _ in range(rounds):
        handle = build_system(plane)
        assert all(
            handle.simulation.automaton(name).recoveries >= 1
            for name in handle.consensus_group
        ), "rebuild did not take the recovery path"
    elapsed = time.perf_counter() - start
    return {
        "rounds": rounds,
        "mean_rebuild_seconds": round(elapsed / rounds, 6),
    }


def journal_compaction_stats():
    """File-backend journal sizes around the compacting rewrite."""
    root = tempfile.mkdtemp(prefix="bench-persist-")
    try:
        policy = PersistencePolicy(backend="file", root=root, compact_every=3)
        handle = build_members(PersistencePlane(policy))
        stats = []
        for name, store in sorted(handle.persistence.stores().items()):
            before, after = store.last_rewrite or (0, 0)
            stats.append(
                {
                    "member": name,
                    "journal_bytes": store.path.stat().st_size,
                    "rewrite_before_bytes": before,
                    "rewrite_after_bytes": after,
                    "snapshots": store.snapshots,
                }
            )
            store.close()
        return stats
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_persistence_sweep(benchmark):
    rows, table = benchmark(regenerate)
    emit("persistence_sweep", table)
    recovery = recovery_microbench()
    journal = journal_compaction_stats()
    emit_json(PERSIST.name, {**bench_payload(PERSIST, rows), "journal": journal, "recovery": recovery})

    cells = {(r["protocol"], r["persistence"], r["scenario"]): r for r in rows}
    assert len(rows) == len(PROTOCOLS) * len(MODES) * 2

    for protocol in PROTOCOLS:
        baseline = cells[(protocol, "volatile", "none")]
        for mode in MODES:
            # Attaching a store (with or without compaction) is behaviour-
            # invariant: fault-free cells match the volatile baseline.
            quiet = cells[(protocol, mode, "none")]
            assert quiet["snow"] == baseline["snow"], (protocol, mode)
            assert quiet["availability"] == 1.0, (protocol, mode)
            # Amnesiac crashes recover to full availability in every mode on
            # these schedules; durable modes provably took the recovery path.
            crashed = cells[(protocol, mode, "amnesia-member")]
            assert crashed["availability"] == 1.0, (protocol, mode)
            assert crashed["snow"] == baseline["snow"], (protocol, mode)
            if mode != "volatile":
                assert crashed["recoveries"] >= 1, (protocol, mode)
        # Compaction actually compacted, and bounded the retained suffix.
        compacted = cells[(protocol, "durable+compact", "none")]
        assert compacted["checkpoints"] >= 1, protocol
        assert compacted["compacted_entries"] > 0, protocol
        assert compacted["retained_entries"] < compacted["log_length"], protocol

    # The file-backend journal shrank at the compacting rewrite.
    assert journal and all(
        s["rewrite_after_bytes"] < s["rewrite_before_bytes"] for s in journal
    )
    assert recovery["mean_rebuild_seconds"] > 0
