"""A library of named fault scenarios for benchmarks and examples.

These are the columns of the chaos grid: each scenario is a reusable
:class:`~repro.faults.plan.FaultPlan` shape, parameterised only by seed and
(for partitions/crashes) by the concrete process names of the built system.
The benchmark ``bench_faults_sweep`` runs every protocol against every
scenario and reports availability, latency degradation and the measured SNOW
verdict side by side.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from .plan import (
    BimodalLatency,
    CrashEvent,
    DropPolicy,
    DuplicatePolicy,
    FaultPlan,
    Partition,
    RetryPolicy,
    UniformLatency,
)


def slow_network(seed: int = 0) -> FaultPlan:
    """Uniformly jittered delivery latency; nothing is ever lost."""
    return FaultPlan(name="slow-network", latency=UniformLatency(0, 6), seed=seed)


def tail_latency(seed: int = 0) -> FaultPlan:
    """Mostly fast links with an occasional very slow straggler (p95 shape)."""
    return FaultPlan(name="tail-latency", latency=BimodalLatency(fast=1, slow=15, slow_probability=0.08), seed=seed)


def lossy_network(seed: int = 0, probability: float = 0.15) -> FaultPlan:
    """Fair-loss links healed by transport retransmission."""
    return FaultPlan(
        name="lossy",
        drops=DropPolicy(probability=probability, max_consecutive=4),
        retry=RetryPolicy(timeout_steps=10, max_attempts=8),
        seed=seed,
    )


def duplicating_network(seed: int = 0, probability: float = 0.25) -> FaultPlan:
    """At-least-once links: spurious duplicate deliveries, nothing lost."""
    return FaultPlan(name="dup-happy", duplicates=DuplicatePolicy(probability=probability), seed=seed)


def flaky_everything(seed: int = 0) -> FaultPlan:
    """Latency + loss + duplication together — the realistic bad day."""
    return FaultPlan(
        name="flaky",
        latency=UniformLatency(0, 4),
        drops=DropPolicy(probability=0.10, max_consecutive=4),
        duplicates=DuplicatePolicy(probability=0.10),
        retry=RetryPolicy(timeout_steps=10, max_attempts=8),
        seed=seed,
    )


def crash_recover(server: str = "s1", at: int = 10, recover: int = 60, seed: int = 0) -> FaultPlan:
    """One server fails and comes back; transport holds its mail meanwhile."""
    return FaultPlan(
        name="crash-recover",
        crashes=(CrashEvent(server=server, at=at, recover=recover),),
        retry=RetryPolicy(timeout_steps=10, max_attempts=8),
        seed=seed,
    )


def crash_amnesia(server: str = "s1", at: int = 10, recover: int = 60, seed: int = 0) -> FaultPlan:
    """One server fails and recovers with **volatile state lost**.

    The crash-with-amnesia regime: the server comes back blank (its
    ``forget()`` hook ran), modelling a store without durable storage.
    Protocol-visible consequence: reads served by the amnesiac replica can
    be stale or initial unless the quorum discipline routes around it.
    """
    return FaultPlan(
        name="crash-amnesia",
        crashes=(CrashEvent(server=server, at=at, recover=recover, preserve_state=False),),
        retry=RetryPolicy(timeout_steps=10, max_attempts=8),
        seed=seed,
    )


def fail_stop(server: str = "s1", at: int = 10, seed: int = 0) -> FaultPlan:
    """One server fails permanently: transactions touching it never finish."""
    return FaultPlan(name="fail-stop", crashes=(CrashEvent(server=server, at=at, recover=None),), seed=seed)


def coordinator_failover(leader: str = "coor", at: int = 12, seed: int = 0) -> FaultPlan:
    """Fail-stop the replicated coordinator's *leader* mid-run.

    The acceptance scenario of the consensus layer: with
    ``consensus_factor >= 3`` the surviving members hold an election after a
    bounded leaderless window and every transaction still completes with the
    same SNOW/Lemma-20 verdicts — whereas at ``consensus_factor=1`` the same
    crash (of the designated first server) stalls every coordinator-dependent
    transaction forever, which is the single point of failure this subsystem
    removes.  ``leader`` is the *bootstrap* leader name (the group's first
    member); crash it before any election and the fault hits the actual
    leader deterministically.
    """
    return FaultPlan(
        name="coordinator-failover",
        crashes=(CrashEvent(server=leader, at=at, recover=None),),
        seed=seed,
    )


def replace_dead_replica(
    object_id: str = "ox",
    replication_factor: int = 3,
    crash_at: int = 8,
    reconfig_at: int = 30,
    seed: int = 0,
) -> Tuple[FaultPlan, Any]:
    """Fail-stop the last replica of one group, then reconfigure it away.

    The acceptance scenario of the reconfiguration layer: with a majority
    quorum at ``replication_factor=3`` the crash costs nothing (the surviving
    quorum absorbs it), and at ``reconfig_at`` the joint-consensus change
    swaps the dead replica for a fresh one (``sx.3`` → ``sx.4``), which syncs
    the object's versions from a retained replica before the change commits.
    Expected outcome: availability 1.0 and an unavailability window of 0 —
    replacing a dead replica is an experiment, not an outage.

    Returns ``(FaultPlan, ReconfigPlan)`` — pass them as the ``faults`` and
    ``reconfig`` arguments of one experiment.
    """
    # a plain fault scenario loads neither the reconfiguration plane nor txn; this one names both
    from ..consensus.reconfig import ReconfigPlan, set_replica_group
    from ..txn.placement import next_replica_names, replica_names

    group = replica_names(object_id, replication_factor)
    dead = group[-1]
    replacement = next_replica_names(object_id, group)[0]
    new_group = tuple(s for s in group if s != dead) + (replacement,)
    plan = FaultPlan(
        name="replace-dead-replica",
        crashes=(CrashEvent(server=dead, at=crash_at, recover=None),),
        seed=seed,
    )
    reconfig = ReconfigPlan(
        name="replace-dead-replica",
        requests=(set_replica_group(object_id, new_group, at=reconfig_at),),
    )
    return plan, reconfig


def auto_heal(
    object_id: str = "ox",
    replication_factor: int = 3,
    crash_at: int = 8,
    seed: int = 0,
    probe_interval: int = 20,
    fail_after: int = 3,
    max_ticks: int = 24,
) -> Tuple[FaultPlan, Any]:
    """Fail-stop the last replica of one group and let the *controller* heal it.

    The acceptance scenario of the rebalancing controller
    (:mod:`repro.consensus.controller`): unlike :func:`replace_dead_replica`
    there is **no hand-authored ReconfigPlan** — the controller's probes
    notice the silent replica, derive the replacement change and submit it
    to the driver.  Expected outcome: availability 1.0, the group back at
    full strength, an unavailability window of 0 and unchanged SNOW /
    Lemma-20 verdicts — self-healing as a non-event.

    Returns ``(FaultPlan, ControllerPolicy)`` — pass them as the ``faults``
    and ``controller`` arguments of one experiment.
    """
    # a plain fault scenario loads neither the reconfiguration plane nor txn; this one names both
    from ..consensus.controller import ControllerPolicy
    from ..txn.placement import replica_names

    dead = replica_names(object_id, replication_factor)[-1]
    plan = FaultPlan(
        name="auto-heal",
        crashes=(CrashEvent(server=dead, at=crash_at, recover=None),),
        seed=seed,
    )
    policy = ControllerPolicy(
        probe_interval=probe_interval, fail_after=fail_after, max_ticks=max_ticks
    )
    return plan, policy


def grow_group_mid_run(
    object_id: str = "ox",
    replication_factor: int = 3,
    to_factor: int = 5,
    at: int = 20,
) -> Tuple[FaultPlan, Any]:
    """Grow one object's replica group mid-run (e.g. rf 3 → 5), fault-free.

    The added replicas sync state before the change commits, so reads served
    by the grown group never miss a completed write.  Returns
    ``(FaultPlan.none(), ReconfigPlan)``.
    """
    # a plain fault scenario loads neither the reconfiguration plane nor txn; this one names both
    from ..consensus.reconfig import ReconfigPlan, set_replica_group
    from ..txn.placement import next_replica_names, replica_names

    if to_factor <= replication_factor:
        raise ValueError(
            f"grow_group_mid_run grows the group: to_factor={to_factor} "
            f"must exceed replication_factor={replication_factor}"
        )
    group = replica_names(object_id, replication_factor)
    added = next_replica_names(object_id, group, count=to_factor - replication_factor)
    reconfig = ReconfigPlan(
        name="grow-group",
        requests=(set_replica_group(object_id, group + added, at=at),),
    )
    return FaultPlan.none(), reconfig


def shrink_consensus_group_mid_run(
    consensus_factor: int = 3,
    to_factor: int = 2,
    at: int = 20,
    drop_leader: bool = True,
) -> Tuple[FaultPlan, Any]:
    """Shrink the replicated-coordinator group mid-run, fault-free.

    With ``drop_leader`` the member that leaves is the bootstrap leader, so
    the change exercises the leader hand-off: the leader replicates and
    commits ``C_new``, answers the driver, and abdicates; the surviving
    members elect a successor when the next coordinator request needs one.
    Returns ``(FaultPlan.none(), ReconfigPlan)``.
    """
    # a plain fault scenario loads neither the reconfiguration plane nor txn; this one names both
    from ..consensus.reconfig import ReconfigPlan, set_consensus_group
    from ..txn.placement import coordinator_group_names

    if not (1 <= to_factor < consensus_factor):
        raise ValueError(
            f"shrink_consensus_group_mid_run shrinks the group: need "
            f"1 <= to_factor={to_factor} < consensus_factor={consensus_factor}"
        )
    group = coordinator_group_names(consensus_factor)
    new_group = group[1:][:to_factor] if drop_leader else group[:to_factor]
    reconfig = ReconfigPlan(
        name="shrink-consensus",
        requests=(set_consensus_group(new_group, at=at),),
    )
    return FaultPlan.none(), reconfig


def healed_partition(
    left: Sequence[str], right: Sequence[str], start: int = 5, heal: int = 40, seed: int = 0
) -> FaultPlan:
    """A link cut between two groups that heals after a window."""
    return FaultPlan(
        name="partition-heal",
        partitions=(Partition(left=tuple(left), right=tuple(right), start=start, heal=heal),),
        seed=seed,
    )


def partition_grid_scenarios(
    clients: Sequence[str],
    servers: Sequence[str],
    durations: Sequence[int] = (20, 60),
    start: int = 5,
    seed: int = 0,
) -> Dict[str, FaultPlan]:
    """The partition grid: placement × duration (the CAP experiment axes).

    Two placements are generated per duration:

    * ``client-shard`` — every client cut off from the *first* server for
      the window (a client-side network blip towards one shard);
    * ``shard-shard`` — the first server cut off from every other server
      (a back-side split; bites exactly the protocols that route reads or
      writes through a designated server).

    All partitions heal at ``start + duration``; the transport holds the
    blocked messages and releases them at the heal, so availability is about
    *when* transactions finish, and the S column reports whether consistency
    survived the reordering.  Scenario names encode both axes
    (``partition-<placement>-d<duration>``) so grid rows stay self-describing.
    """
    if not servers:
        raise ValueError("partition_grid_scenarios needs at least one server")
    scenarios: Dict[str, FaultPlan] = {}
    target = servers[0]
    others = tuple(s for s in servers if s != target)
    for duration in durations:
        scenarios[f"partition-client-shard-d{duration}"] = FaultPlan(
            name=f"partition-client-shard-d{duration}",
            partitions=(
                Partition(left=tuple(clients), right=(target,), start=start, heal=start + duration),
            ),
            seed=seed,
        )
        if others:
            scenarios[f"partition-shard-shard-d{duration}"] = FaultPlan(
                name=f"partition-shard-shard-d{duration}",
                partitions=(
                    Partition(left=(target,), right=others, start=start, heal=start + duration),
                ),
                seed=seed,
            )
    return scenarios


def standard_fault_scenarios(
    seed: int = 0, crash_server: str = "s1", partition: Optional[Partition] = None
) -> Dict[str, FaultPlan]:
    """The default chaos grid: none + five progressively nastier regimes.

    ``none`` is deliberately included so every grid has the fault-free
    baseline in column one and latency degradation is always relative.
    """
    scenarios: Dict[str, FaultPlan] = {
        "none": FaultPlan.none(),
        "slow-network": slow_network(seed=seed),
        "tail-latency": tail_latency(seed=seed),
        "lossy": lossy_network(seed=seed),
        "dup-happy": duplicating_network(seed=seed),
        "crash-recover": crash_recover(server=crash_server, seed=seed),
    }
    if partition is not None:
        scenarios["partition-heal"] = FaultPlan(
            name="partition-heal", partitions=(partition,), seed=seed
        )
    return scenarios
