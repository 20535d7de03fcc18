"""Replicated-system behavior of every registered protocol.

Every protocol must run its workload to completion at replication factors
2 and 3 under both quorum policies, preserve its rf=1 SNOW verdict under
FIFO scheduling, and return the same read results the single-copy system
returns (replication is transparent to clients when nothing fails).
"""

from __future__ import annotations

import pytest

from repro.ioa import FIFOScheduler, RandomScheduler
from repro.protocols import get_protocol, protocol_names

from tests.replication.conftest import run_fixed_workload

ALL_PROTOCOLS = protocol_names()
STRONG_PROTOCOLS = ("algorithm-a", "algorithm-b", "algorithm-c", "occ-double-collect", "s2pl")


@pytest.mark.parametrize("quorum", ["read-one-write-all", "majority"])
@pytest.mark.parametrize("replication_factor", [2, 3])
@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_replicated_runs_complete(protocol, replication_factor, quorum):
    handle = run_fixed_workload(
        protocol, replication_factor=replication_factor, quorum=quorum
    )
    assert not handle.simulation.incomplete_transactions()
    expected_servers = 2 * replication_factor
    assert len(handle.servers) == expected_servers
    assert len(handle.simulation.servers()) == expected_servers


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_fifo_verdict_matches_single_copy(protocol):
    """Under FIFO, the rf=3 majority system keeps the rf=1 SNOW verdict."""
    single = run_fixed_workload(protocol, scheduler=FIFOScheduler())
    replicated = run_fixed_workload(
        protocol, scheduler=FIFOScheduler(), replication_factor=3, quorum="majority"
    )
    assert (
        replicated.snow_report().property_string()
        == single.snow_report().property_string()
    )


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_read_results_match_single_copy_under_fifo(protocol):
    single = run_fixed_workload(protocol, scheduler=FIFOScheduler())
    replicated = run_fixed_workload(
        protocol, scheduler=FIFOScheduler(), replication_factor=3, quorum="majority"
    )

    def results(handle):
        return {
            str(r.txn_id): r.result
            for r in handle.simulation.transaction_records()
        }

    assert results(single) == results(replicated)


@pytest.mark.parametrize("protocol", STRONG_PROTOCOLS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_strong_protocols_stay_serializable_replicated(protocol, seed):
    """S survives replication under randomized schedules for the S-protocols."""
    handle = run_fixed_workload(
        protocol,
        scheduler=RandomScheduler(seed=seed),
        replication_factor=3,
        quorum="majority",
        seed=seed,
    )
    assert handle.serializability().ok, handle.serializability()


@pytest.mark.parametrize("protocol", ("algorithm-a", "algorithm-b", "algorithm-c"))
def test_lemma20_tags_survive_replication(protocol):
    handle = run_fixed_workload(
        protocol, scheduler=RandomScheduler(seed=5), replication_factor=3, quorum="majority"
    )
    assert handle.lemma20().ok


def test_invalid_replication_factor_rejected():
    with pytest.raises(ValueError):
        run_fixed_workload("algorithm-b", replication_factor=0)


def test_unknown_quorum_rejected():
    with pytest.raises(KeyError):
        run_fixed_workload("algorithm-b", replication_factor=3, quorum="nope")


def test_handle_reports_placement():
    handle = run_fixed_workload("algorithm-b", replication_factor=2, quorum="majority")
    assert "replication=2" in handle.describe()
    assert handle.placement.group("ox") == ("sx", "sx.2")
    assert handle.quorum_policy.name == "majority"
    assert "sx.2" in handle.simulation.topology.describe()


def test_mixed_group_sizes_complete():
    """A placement mixing a single-copy group with a replicated one must not
    stall write-quorum accounting: single-copy acks carry no ``object`` field
    and are resolved from their sender instead."""
    from dataclasses import dataclass

    from repro.protocols.algorithm_b import AlgorithmB
    from repro.protocols.base import BuildConfig, SystemHandle
    from repro.ioa.simulation import Simulation
    from repro.ioa.network import Topology
    from repro.txn.placement import Placement

    mixed = Placement(groups=(("ox", ("sx",)), ("oy", ("sy", "sy.2", "sy.3"))))

    @dataclass
    class MixedConfig(BuildConfig):
        def placement(self) -> Placement:
            return mixed

    protocol = AlgorithmB()
    config = MixedConfig(num_readers=1, num_writers=1, num_objects=2)
    simulation = Simulation(topology=Topology(allow_client_to_client=False), scheduler=FIFOScheduler())
    simulation.add_automata(protocol.make_automata(config, mixed))
    handle = SystemHandle(protocol=protocol, simulation=simulation, config=config, placement=mixed)

    w1 = handle.submit_write({"ox": "v1", "oy": "v1"}, txn_id="W1")
    handle.submit_read(("ox", "oy"), txn_id="R1", after=[w1])
    handle.run_to_completion()
    r1 = handle.simulation.transaction_record("R1")
    assert dict(r1.result.values) == {"ox": "v1", "oy": "v1"}


def test_quorum_replies_annotated_on_replicated_reads():
    handle = run_fixed_workload("algorithm-b", replication_factor=3, quorum="majority")
    reads = [
        r
        for r in handle.simulation.transaction_records()
        if str(r.txn_id).startswith("R")
    ]
    assert reads
    for record in reads:
        # 2 objects x majority-of-3: at least 2 replies per object.
        assert record.annotations["quorum_replies"] >= 4
