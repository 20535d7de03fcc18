"""Replicated coordinator log: Raft-style consensus on the IOA kernel.

PR 2's placement layer made the *storage* servers replica-aware, but the
coordinator of algorithms B/C (the append-only ``List``) and OCC's timestamp
oracle remained single logical servers — crashing one stalled the whole
system.  This subpackage closes that last single point of failure:

* :mod:`repro.consensus.log` — :class:`ConsensusLog`, the replicated log
  data structure (append / match / merge / commit / apply bookkeeping);
* :mod:`repro.consensus.election` — :class:`LeaderElection`, the term/vote/
  role state of one member plus the seeded randomized election timeout;
* :mod:`repro.consensus.machines` — the coordinator state machines that the
  log replicates: :class:`ListStateMachine` (the ``List`` of algorithms B/C)
  and :class:`TimestampStateMachine` (OCC's oracle), both built on
  :class:`CoordinatorList` / plain counters so the single-copy servers and
  the replicated service share one implementation of the metadata;
* :mod:`repro.consensus.coordinator` — :class:`ReplicatedCoordinator`, the
  member automaton: a drop-in replacement for the designated coordinator
  server, replicating every client request through the log before applying
  and replying.

With ``consensus_factor=1`` (the default) none of this is instantiated and
every protocol is byte-for-byte the seed system (pinned by the golden
signature harness); with ``consensus_factor=3`` the coordinator survives the
crash of its leader: the survivors elect a new leader after a bounded
leaderless window and the SNOW / Lemma-20 verdicts ride through unchanged.

Timing model: elections are driven by the kernel's virtual-time timeout
events (:class:`~repro.ioa.scheduler.PendingTimeout`) — scheduler ticks, not
wall clocks — and every timeout delay is drawn from a per-member RNG seeded
by the build seed, so consensus executions are as replayable as everything
else in the repository.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "controller": ("CONTROLLER_NAME", "ControllerPolicy", "ReconfigController"),
        "coordinator": ("CONFIG", "DEFAULT_ELECTION_TIMEOUT", "RECONFIG", "ReplicatedCoordinator"),
        "election": ("CANDIDATE", "FOLLOWER", "LEADER", "LeaderElection"),
        "lease": ("LeaderLeaseState",),
        "log": ("NOOP", "CompactedLogError", "ConsensusLog", "LogEntry"),
        "machines": (
            "CoordinatorList", "CoordinatorStateMachine", "ListStateMachine",
            "TimestampStateMachine",
        ),
        "reconfig": (
            "ADMIN_NAME", "CONSENSUS_GROUP", "REPLICA_GROUP", "PlacementDirectory",
            "ReconfigDriver", "ReconfigPlan", "ReconfigRequest", "set_consensus_group",
            "set_replica_group",
        ),
    },
)
