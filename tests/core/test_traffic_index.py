"""Differential test: the indexed N/O answers equal the seed's trace walkers.

``repro.core.snow`` answers every per-transaction question from one cached
:class:`~repro.core.traffic.TrafficIndex`; ``tests/core/reference_snow.py``
keeps the seed's walkers (one full trace walk per question) as the oracle.
Every registered protocol runs a contended workload on a single-copy system
and on the replicated stack (rf=3 majority, plus cf=3 and leases where the
protocol has a coordinator to replicate), and the two implementations must
produce equal reports — so a wrong index fails here, not in a verdict test
that happens to be insensitive to it.
"""

from __future__ import annotations

import pytest

from repro.analysis.metrics import collect_metrics
from repro.analysis.workload import WorkloadSpec, generate_workload, submit_workload
from repro.core import snow
from repro.faults import ChaosScheduler, CrashEvent, FaultInjector, FaultPlan
from repro.ioa import FIFOScheduler, RandomScheduler
from repro.protocols import get_protocol, protocol_names
from repro.txn.transactions import ReadTransaction

from tests.conftest import build_system
from tests.core import reference_snow

SEEDS = (1, 2, 3)
STACKS = ("single-copy", "replicated")


def run_protocol(name, seed, stack="single-copy", fault_plan=None):
    kwargs = {}
    if stack == "replicated":
        kwargs.update(replication_factor=3, quorum="majority")
        if get_protocol(name).has_coordinator:
            kwargs.update(consensus_factor=3, leases=True)
    scheduler = RandomScheduler(seed=seed)
    if fault_plan is not None:
        scheduler = ChaosScheduler(base=scheduler, seed=seed)
        kwargs["fault_plane"] = FaultInjector(fault_plan, seed=seed)
    handle = build_system(
        name, num_readers=2, num_writers=2, num_objects=3, scheduler=scheduler, seed=seed, **kwargs
    )
    spec = WorkloadSpec(reads_per_reader=6, writes_per_writer=4, seed=seed)
    submit_workload(handle, generate_workload(spec, handle.readers, handle.writers, handle.objects))
    handle.run()
    return handle


def reference_metrics(handle, monkeypatch):
    """``collect_metrics`` with the per-record lookup served by the walker."""
    with monkeypatch.context() as patch:
        patch.setattr(snow, "versions_in_replies", reference_snow.versions_in_replies)
        return collect_metrics(
            handle.simulation,
            placement=handle.placement,
            quorum_policy=handle.quorum_policy,
            directory=handle.directory,
        )


def assert_answers_equal(handle, monkeypatch):
    """Every public answer, for every transaction, against the walkers."""
    simulation = handle.simulation
    trace = simulation.trace
    servers = simulation.servers()
    group = simulation.topology.consensus_group()
    for record in simulation.transaction_records():
        args = (trace, str(record.txn_id), record.client, servers)
        assert snow.blocking_servers_for(*args, group) == reference_snow.blocking_servers_for(*args, group)
        assert snow.blocking_servers_for(*args) == reference_snow.blocking_servers_for(*args)
        trips = snow.round_trips_per_server(*args)
        expected_trips = reference_snow.round_trips_per_server(*args)
        assert trips == expected_trips and list(trips) == list(expected_trips)
        assert snow.versions_in_replies(*args) == reference_snow.versions_in_replies(*args)
    metrics = collect_metrics(
        simulation,
        placement=handle.placement,
        quorum_policy=handle.quorum_policy,
        directory=handle.directory,
    )
    assert metrics == reference_metrics(handle, monkeypatch)


@pytest.mark.parametrize("stack", STACKS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", protocol_names())
def test_indexed_reports_equal_the_reference_walkers(name, seed, stack, monkeypatch):
    handle = run_protocol(name, seed, stack)
    assert all(record.complete for record in handle.transaction_records())
    history = handle.history()
    assert snow.check_snow(handle.simulation, history) == reference_snow.check_snow(handle.simulation, history)
    assert_answers_equal(handle, monkeypatch)


def test_read_repair_traffic_is_excluded_identically(monkeypatch):
    """Repair installs open no reply obligation and count as no round trip —
    in the index exactly as in the walkers."""
    handle = build_system(
        "algorithm-b",
        scheduler=FIFOScheduler(),  # the quorum round collects the amnesiac's miss
        replication_factor=3,
        quorum="majority",
    )
    w1 = handle.submit_write({"ox": "v1-ox", "oy": "v1-oy"}, txn_id="W1")
    handle.run()
    handle.simulation.automaton("sx.2").forget()  # crash-with-amnesia: the next read repairs it
    handle.submit_read(("ox", "oy"), txn_id="R1", after=[w1])
    handle.run()
    assert any(
        action.message is not None and action.message.get("repair") for action in handle.trace()
    ), "the scenario must produce repair traffic"
    assert snow.check_snow(handle.simulation) == reference_snow.check_snow(handle.simulation)
    assert_answers_equal(handle, monkeypatch)


def test_incomplete_read_under_faults_is_reported_identically(monkeypatch):
    """A fail-stopped server strands READs mid-protocol: unanswered requests,
    half-finished rounds.  The per-transaction answers (asked for incomplete
    transactions too) and the reports still agree."""
    plan = FaultPlan(name="fail-stop-s1", crashes=(CrashEvent("s1", at=60),), seed=5)
    handle = run_protocol("algorithm-b", seed=5, fault_plan=plan)
    stranded = [
        record
        for record in handle.transaction_records()
        if isinstance(record.txn, ReadTransaction) and not record.complete
    ]
    assert stranded, "the scenario must leave a READ incomplete"
    history = handle.history()
    assert snow.check_snow(handle.simulation, history) == reference_snow.check_snow(handle.simulation, history)
    assert_answers_equal(handle, monkeypatch)


def test_synthetic_traces_agree():
    """Seeded random traces over a tiny alphabet reach what protocol runs do
    not: several replies per server with differing ``num_versions``, replies
    before requests, repair flags on either direction, untagged messages,
    message-less inputs, and actions recorded at an automaton other than the
    message's endpoint."""
    import random

    from repro.ioa.actions import Action, ActionKind, Message
    from repro.ioa.trace import Trace

    actors = ("r1", "r2", "s1", "s2", "c1", "c2")
    servers = ("s1", "s2", "c1", "c2", "s1")  # a duplicate is legal input
    for seed in range(60):
        rng = random.Random(seed)
        trace = Trace()
        for _ in range(rng.randrange(5, 80)):
            src, dst = rng.choice(actors), rng.choice(actors)
            payload = {}
            if rng.random() < 0.85:
                payload["txn"] = rng.choice(("R1", "R2", "W1"))
            if rng.random() < 0.15:
                payload["repair"] = rng.choice((True, False))
            if rng.random() < 0.5:
                payload["num_versions"] = rng.randrange(0, 5)
            message = Message.make("m", src, dst, payload)
            kind = rng.choice((ActionKind.SEND, ActionKind.RECV))
            actor = src if kind is ActionKind.SEND else dst
            if rng.random() < 0.05:
                actor = rng.choice(actors)
            if rng.random() < 0.05:
                trace.append(Action.make(rng.choice(tuple(ActionKind)), actor))
            trace.append(Action.make(kind, actor, message))
        for txn in ("R1", "R2", "W1", "absent"):
            for reader in ("r1", "r2", "s1"):
                args = (trace, txn, reader, servers)
                for group in ((), ("c1", "c2"), ("c1", "r1")):
                    assert snow.blocking_servers_for(*args, group) == reference_snow.blocking_servers_for(
                        *args, group
                    ), (seed, txn, reader, group)
                trips = snow.round_trips_per_server(*args)
                expected_trips = reference_snow.round_trips_per_server(*args)
                assert trips == expected_trips and list(trips) == list(expected_trips), (seed, txn, reader)
                assert snow.versions_in_replies(*args) == reference_snow.versions_in_replies(*args), (
                    seed,
                    txn,
                    reader,
                )
