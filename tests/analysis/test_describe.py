"""The human-readable reports, pinned as text.

One experiment switches on every optional metric block (faults, replication,
consensus with leases, a reconfiguration, persistence), so
``ExperimentResult.describe()`` prints each block's line; the README's
coordinator-failover snippet pins ``ReplicatedCoordinator.describe()`` and
the system, simulation and fault-plane lines a failure dump prints.  The runs
are seeded and on virtual time, so every number below is exact.
"""

from __future__ import annotations

from repro.analysis import ExperimentConfig, WorkloadSpec, run_experiment
from repro.consensus import ReconfigPlan, set_replica_group
from repro.faults import ChaosScheduler, FaultInjector, FaultPlan, UniformLatency, coordinator_failover
from repro.ioa import TraceMode
from repro.persist import PersistencePolicy
from repro.protocols import get_protocol

EXPERIMENT = """\
algorithm-b (2R/2W/2 objects, fifo seed=3): 3 reads/reader x 2 objects, 2 writes/writer x 2 objects, \
zipf_s=0.0, seed=3 [replication=3, quorum=majority] [consensus=3] \
[swap: reconfig(oy -> [sy,sy.2,sy.4] @ 20)] [faults: uniform[0,4]] [monitors, health] [trace=full] [persist(sim, compact_every=4)] [leases]
  properties: SNoW
  metrics[algorithm-b]: 6 reads, 4 writes, 92 messages, 252 steps
    read rounds   : n=6 mean=2.00 min=2 p50=2 p95=2 max=2
    read latency  : n=6 mean=170.67 min=125 p50=185 p95=197 max=197
    read messages : n=6 mean=9.33 min=9 p50=9 p95=10 max=10
    read versions : n=6 mean=1.00 min=1 p50=1 p95=1 max=1
    write latency : n=4 mean=212.75 min=189 p50=190 p95=237 max=237
    faults[faults]: availability=1.00 (reads 6/6, writes 4/4), dropped=0, retransmitted=0, duplicated=0, \
crash-held=0, partition-held=0, abandoned=0
    read latency (virtual): n=6 mean=81.33 min=60 p50=85 p95=96 max=96
    replication: factor=3 quorum=majority (R=2, W=2, servers=6); read quorum replies: \
n=6 mean=5.00 min=5 p50=5 p95=5 max=5
    consensus: members=3 elections=0 leaders_elected=0 max_term=1 applied=11; commit latency: \
n=11 mean=57.36 min=29 p50=67 p95=83 max=83; leases: acquired=6 renewed=0 expired=2 local_reads=6 \
(100% of reads); local-read latency: n=6 mean=22.17 min=15 p50=18 p95=34 max=34
    reconfig: epochs=2 completed=1 transferred=2 retries=0 unavailability_window=0 retired=1
    persistence: members=3 recoveries=0 checkpoints=2 compacted=12 retained=0/4"""


def test_every_metric_block_describes_itself():
    result = run_experiment(
        ExperimentConfig(
            protocol="algorithm-b",
            seed=3,
            workload=WorkloadSpec(reads_per_reader=3, writes_per_writer=2, read_size=2, write_size=2, seed=3),
            faults=FaultPlan(latency=UniformLatency(0, 4), seed=3),
            replication_factor=3,
            quorum="majority",
            consensus_factor=3,
            leases=True,
            reconfig=ReconfigPlan(name="swap", requests=(set_replica_group("oy", ("sy", "sy.2", "sy.4"), at=20),)),
            persistence=PersistencePolicy(compact_every=4),
            monitors=True,
            health=True,
            trace_mode=TraceMode.full(),
        )
    )
    assert result.obs.monitors.alerts == []
    assert result.describe() == EXPERIMENT


def test_the_readme_failover_snippet_describes_the_coordinator():
    """README, "Replicated coordinator": the snippet's last line, and what a
    failure dump prints for the same run."""
    handle = get_protocol("algorithm-b").build(
        num_readers=2, num_writers=2, num_objects=2,
        consensus_factor=3,
        scheduler=ChaosScheduler(seed=1),
        fault_plane=FaultInjector(coordinator_failover(leader="coor", at=12), seed=1),
    )
    w = handle.submit_write({"ox": 1, "oy": 1}, txn_id="W1")
    handle.submit_read(after=[w], txn_id="R1")
    handle.run()
    assert handle.snow_report().property_string() == "SNoW"
    automaton = handle.simulation.automaton
    assert automaton("coor.2").describe() == (
        "coor.2: follower @ term 2, ConsensusLog(len=3, commit=3, applied=3), pending=0, ListStateMachine(2 entries)"
    )
    assert automaton("coor").describe() == (
        "coor: leader @ term 1, ConsensusLog(len=1, commit=0, applied=0), pending=0, ListStateMachine(1 entries)"
    )
    assert handle.describe() == (
        "algorithm-b system: readers=['r1', 'r2'], writers=['w1', 'w2'], servers=['sx', 'sy'], "
        "objects=['ox', 'oy'], consensus=3 members [coor,coor.2,coor.3]"
    )
    assert handle.simulation.describe().splitlines() == [
        "Simulation: 9 automata, 95 actions, 2 transactions (0 incomplete)",
        "Topology(clients=['r1', 'r2', 'w1', 'w2'], servers=['coor', 'coor.2', 'coor.3', 'sx', 'sy'], "
        "c2c=disallowed, consensus: [coor,coor.2,coor.3])",
        "  W1 @ w1: complete, rounds=2, result='ok'",
        "  R1 @ r1: complete, rounds=2, result=ReadResult(values=(('ox', 1), ('oy', 1)))",
    ]
    assert handle.simulation.fault_plane.describe() == (
        "FaultInjector(coordinator-failover: crash(coor @ 12 forever); faults: sent=39 delivered=31 dropped=0 "
        "retransmitted=0 duplicated=0 (suppressed=0) partition-held=0 crash-held=8 abandoned=0 crashes=1 recoveries=0)"
    )
    assert handle.trace().describe(limit=2).splitlines()[-1] == "  ... (93 more actions)"
