"""Protocol framework: building systems, submitting workloads, collecting results.

Every protocol in the repository (the paper's algorithms A, B and C, the
Eiger-style protocol of Section 6, and the baselines) is packaged as a
:class:`Protocol`.  A protocol knows how to *build* a system — readers,
writers and servers wired onto a :class:`~repro.ioa.simulation.Simulation`
with the right topology — and the returned :class:`SystemHandle` provides a
uniform surface for submitting transactions, running the execution and
extracting histories, SNOW reports and Lemma-20 tags.

Conventions shared by all protocol implementations:

* servers are named after the object they hold (``ox`` ↦ ``sx``, ``o3`` ↦ ``s3``);
  with ``replication_factor=N`` the placement layer adds replicas
  ``sx.2 … sx.N`` behind the same primary name (see
  :mod:`repro.txn.placement`);
* readers are ``r1, r2, …`` and writers ``w1, w2, …``;
* every protocol message belonging to a transaction carries a ``txn`` payload
  field, and every server reply to a read request carries ``num_versions`` —
  the SNOW checkers in :mod:`repro.core.snow` rely on both;
* protocols report the tag they assign to each transaction via
  ``ctx.annotate_transaction(txn_id, tag=...)`` so that the Lemma 20 checker
  can be applied to any execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..ioa.automaton import Automaton
from ..ioa.network import FaultPlane, Topology
from ..ioa.scheduler import Scheduler
from ..ioa.simulation import Simulation
from ..ioa.trace import Trace
from ..txn.history import History
from ..txn.objects import object_names, server_for_object
from ..txn.placement import (
    Placement,
    QuorumPolicy,
    coordinator_group_names,
    quorum_policy,
)
from ..txn.transactions import ReadTransaction, WriteTransaction, read as make_read, write_pairs

if TYPE_CHECKING:  # the reconfiguration plane is imported where it attaches (_install_reconfig)
    from ..consensus.controller import ControllerPolicy
    from ..consensus.reconfig import PlacementDirectory, ReconfigPlan


def reader_names(count: int) -> Tuple[str, ...]:
    return tuple(f"r{i}" for i in range(1, count + 1))


def writer_names(count: int) -> Tuple[str, ...]:
    return tuple(f"w{i}" for i in range(1, count + 1))


@dataclass
class BuildConfig:
    """Parameters of one system instantiation."""

    num_readers: int = 1
    num_writers: int = 1
    num_objects: int = 2
    initial_value: Any = 0
    seed: int = 0
    c2c: Optional[bool] = None  # None = protocol default
    scheduler: Optional[Scheduler] = None
    max_steps: int = 200_000
    #: optional network-conditions hook (None = the paper's reliable channels)
    fault_plane: Optional[FaultPlane] = None
    #: replicas per object (1 = the paper's one-server-per-object setting)
    replication_factor: int = 1
    #: quorum policy name or instance (see :mod:`repro.txn.placement`)
    quorum: Any = "read-one-write-all"
    #: consensus members replicating the coordinator / timestamp oracle
    #: (1 = the seed's single designated server, byte-identical)
    consensus_factor: int = 1
    #: randomized election timeout window in virtual-time steps (None = the
    #: consensus layer's default; only meaningful with consensus_factor > 1)
    election_timeout: Optional[Tuple[int, int]] = None
    #: scheduled membership changes (None = fixed membership, byte-identical
    #: to the seed; see :mod:`repro.consensus.reconfig`)
    reconfig: Optional[ReconfigPlan] = None
    #: automated-rebalancing control loop (None = no controller, byte-
    #: identical; see :mod:`repro.consensus.controller`)
    controller: Optional[ControllerPolicy] = None
    #: observability plane (None = no metrics/span hooks at all; an enabled
    #: plane is a passive listener, so the trace stays byte-identical —
    #: see :mod:`repro.obs`)
    obs: Optional[Any] = None
    #: trace record retention (None = full, byte-identical to seed; see
    #: :class:`~repro.ioa.trace.TraceMode` — ``sampled``/``ring`` keep
    #: counters and streaming monitors exact while recording fewer actions)
    trace_mode: Optional[Any] = None
    #: batch each quorum fan-out into one kernel flight (one scheduler event
    #: delivers the whole round; see :func:`repro.protocols.replication.
    #: emit_sends`).  Off by default: batching coalesces events, so every
    #: golden-pinned trace is recorded with it off.
    fanout_batching: bool = False
    #: pack queued consensus requests into one log entry per commit round
    #: (see :attr:`repro.consensus.coordinator.ReplicatedCoordinator.
    #: append_batching`); needs ``consensus_factor >= 2``.  Off by default.
    consensus_batching: bool = False
    #: stable storage for consensus members (a
    #: :class:`~repro.persist.PersistencePolicy` or ready-made
    #: :class:`~repro.persist.PersistencePlane`); needs ``consensus_factor
    #: >= 2``.  None (the default) keeps the seed's volatile members,
    #: byte-identical.
    persistence: Optional[Any] = None
    #: leader leases for the replicated coordinator (``True``, a duration,
    #: or a :class:`~repro.consensus.lease.LeasePolicy`): the lease holder
    #: answers read-only coordinator requests locally instead of committing
    #: a log entry; needs ``consensus_factor >= 2``.  None (the default)
    #: keeps the commit-round read path, byte-identical.
    leases: Optional[Any] = None

    def objects(self) -> Tuple[str, ...]:
        return object_names(self.num_objects)

    def placement(self) -> Placement:
        """The object → replica-group map of this system."""
        return Placement.for_objects(self.objects(), self.replication_factor)

    def quorum_policy(self) -> QuorumPolicy:
        return quorum_policy(self.quorum)

    def servers(self) -> Tuple[str, ...]:
        """Every storage server (all replicas), object-major, primaries first."""
        return self.placement().servers()

    def consensus_group(self) -> Tuple[str, ...]:
        """The replicated-coordinator members (empty at consensus_factor=1)."""
        return coordinator_group_names(self.consensus_factor)

    def readers(self) -> Tuple[str, ...]:
        return reader_names(self.num_readers)

    def writers(self) -> Tuple[str, ...]:
        return writer_names(self.num_writers)


class SystemHandle:
    """A built system: the simulation plus naming and result helpers."""

    def __init__(
        self,
        protocol: "Protocol",
        simulation: Simulation,
        config: BuildConfig,
        directory=None,
        persistence=None,
    ) -> None:
        self.protocol = protocol
        self.simulation = simulation
        self.config = config
        #: the shared epoch-versioned placement directory; None unless the
        #: system was built with a reconfiguration plan
        self.directory = directory
        #: the persistence plane (member name -> stable store); None unless
        #: the system was built with ``persistence=...``
        self.persistence = persistence
        #: the observability plane; None unless the system was built with one
        self.obs = config.obs
        self.readers = config.readers()
        self.writers = config.writers()
        self.objects = config.objects()
        self.placement = config.placement()
        self.quorum_policy = config.quorum_policy()
        self.servers = config.servers()
        self.consensus_group = config.consensus_group()
        self.initial_value = config.initial_value
        self._round_robin_reader = 0
        self._round_robin_writer = 0
        #: ``(stamp, history)`` of the last :meth:`history` call
        self._history: Tuple[Any, Optional[History]] = (None, None)

    # ------------------------------------------------------------------
    # Workload submission
    # ------------------------------------------------------------------
    def submit_read(
        self,
        objects: Optional[Sequence[str]] = None,
        reader: Optional[str] = None,
        after: Sequence[str] = (),
        txn_id: str = "",
    ) -> str:
        """Queue a READ transaction; returns its transaction id."""
        if objects is None:
            objects = self.objects
        if reader is None:
            reader = self.readers[self._round_robin_reader % len(self.readers)]
            self._round_robin_reader += 1
        txn = make_read(*objects, txn_id=txn_id)
        return self.simulation.submit(reader, txn, txn_id=txn.txn_id, after=after)

    def submit_write(
        self,
        updates: Mapping[str, Any],
        writer: Optional[str] = None,
        after: Sequence[str] = (),
        txn_id: str = "",
    ) -> str:
        """Queue a WRITE transaction; returns its transaction id."""
        if writer is None:
            writer = self.writers[self._round_robin_writer % len(self.writers)]
            self._round_robin_writer += 1
        txn = write_pairs(tuple(updates.items()), txn_id=txn_id)
        return self.simulation.submit(writer, txn, txn_id=txn.txn_id, after=after)

    # ------------------------------------------------------------------
    # Execution and results
    # ------------------------------------------------------------------
    def run(self) -> Trace:
        return self.simulation.run()

    def run_to_completion(self) -> Trace:
        return self.simulation.run_to_completion()

    def history(self) -> History:
        """The transaction history so far: one object (so one verdict search
        for the helpers below) until the trace grows or more is submitted."""
        simulation = self.simulation
        stamp = (simulation.trace.total_appended, len(simulation.transaction_records()))
        if self._history[0] != stamp:
            self._history = (stamp, History.from_simulation(simulation, self.objects, self.initial_value))
        return self._history[1]

    def snow_report(self):
        """Full SNOW property report (the checkers load when a verdict is asked for)."""
        from ..core.snow import check_snow

        return check_snow(self.simulation, self.history())

    def serializability(self):
        from ..core.serializability import check_strict_serializability

        return check_strict_serializability(self.history())

    def tags(self) -> Dict[str, Any]:
        """Tags reported by the protocol (for the Lemma 20 checker)."""
        out: Dict[str, Any] = {}
        for record in self.simulation.transaction_records():
            if "tag" in record.annotations:
                out[str(record.txn_id)] = record.annotations["tag"]
        return out

    def lemma20(self):
        from ..core.serializability import check_lemma20

        return check_lemma20(self.history(), self.tags())

    def transaction_records(self):
        return self.simulation.transaction_records()

    def trace(self) -> Trace:
        return self.simulation.trace

    def describe(self) -> str:
        base = (
            f"{self.protocol.name} system: readers={list(self.readers)}, writers={list(self.writers)}, "
            f"servers={list(self.servers)}, objects={list(self.objects)}"
        )
        if not self.placement.is_trivial():
            base += (
                f", replication={self.placement.replication_factor} "
                f"({self.quorum_policy.describe()})"
            )
        if self.consensus_group:
            base += f", consensus={len(self.consensus_group)} members [{','.join(self.consensus_group)}]"
        if self.directory is not None:
            base += f", reconfigurable (epoch {self.directory.epoch})"
        return base


class Protocol:
    """Base class for protocol packages.

    Subclasses set the class attributes describing the protocol's setting and
    implement :meth:`make_automata`, returning the automata to register.
    """

    name: str = "abstract"
    description: str = ""
    #: whether the protocol needs client-to-client communication (algorithm A does)
    requires_c2c: bool = False
    #: whether the protocol routes through a designated coordinator /
    #: timestamp oracle (the metadata service consensus_factor replicates)
    has_coordinator: bool = False
    #: whether the protocol supports mid-run membership reconfiguration (its
    #: client rounds are epoch-aware and it implements :meth:`make_replica`)
    supports_reconfig: bool = False
    #: whether the protocol is defined for more than one reader / writer
    supports_multiple_readers: bool = True
    supports_multiple_writers: bool = True
    #: documentation string of the guarantees the paper claims for the protocol
    claimed_properties: str = ""
    #: documented worst-case number of read rounds (None = unbounded)
    claimed_read_rounds: Optional[int] = None
    #: documented worst-case number of versions per reply (None = unbounded / |W|)
    claimed_versions: Optional[int] = 1

    # ------------------------------------------------------------------
    def make_automata(self, config: BuildConfig) -> Sequence[Automaton]:
        raise NotImplementedError

    def make_replica(
        self, config: BuildConfig, object_id: str, name: str, group: Tuple[str, ...]
    ) -> Automaton:
        """Build one storage replica for a mid-run membership change.

        Protocols that set ``supports_reconfig`` override this with exactly
        the server class :meth:`make_automata` uses, so a spawned replica is
        indistinguishable from a founding one.
        """
        raise NotImplementedError(
            f"protocol {self.name} does not build dynamic replicas (supports_reconfig=False)"
        )

    def make_consensus_machine(self, config: BuildConfig):
        """The coordinator state machine the consensus group replicates
        (None for protocols without a coordinator)."""
        return None

    def default_c2c(self) -> bool:
        return self.requires_c2c

    def validate_config(self, config: BuildConfig) -> None:
        if config.num_readers < 1 or config.num_writers < 1 or config.num_objects < 1:
            raise ValueError("system needs at least one reader, one writer and one object")
        if config.num_readers > 1 and not self.supports_multiple_readers:
            raise ValueError(f"protocol {self.name} is defined for a single reader (MWSR setting)")
        if config.num_writers > 1 and not self.supports_multiple_writers:
            raise ValueError(f"protocol {self.name} is defined for a single writer")
        if config.replication_factor < 1:
            raise ValueError(
                f"replication_factor must be >= 1, got {config.replication_factor}"
            )
        if config.consensus_factor < 1:
            raise ValueError(
                f"consensus_factor must be >= 1, got {config.consensus_factor}"
            )
        if config.consensus_factor > 1 and not self.has_coordinator:
            raise ValueError(
                f"protocol {self.name} has no coordinator/metadata service to replicate "
                f"(consensus_factor={config.consensus_factor} needs one)"
            )
        if config.consensus_batching and config.consensus_factor < 2:
            raise ValueError(
                "consensus_batching packs replicated-coordinator log entries; "
                "it needs consensus_factor >= 2 (there is no log at factor 1)"
            )
        if config.persistence is not None:
            if config.consensus_factor < 2:
                raise ValueError(
                    "persistence attaches stable storage to replicated-"
                    "coordinator members; it needs consensus_factor >= 2 "
                    "(there is no member state to persist at factor 1)"
                )
            from ..persist import PersistencePlane

            PersistencePlane.of(config.persistence)  # raises on a bad value
        if config.leases is not None:
            if config.consensus_factor < 2:
                raise ValueError(
                    "leases let the replicated coordinator's lease holder "
                    "serve reads locally; they need consensus_factor >= 2 "
                    "(the factor-1 designated server already answers locally)"
                )
            from ..consensus.lease import LeasePolicy

            LeasePolicy.of(config.leases)  # raises on a bad value
        if config.controller is not None and getattr(config.controller, "use_health", False):
            health = getattr(config.obs, "health", None) if config.obs is not None else None
            if health is None:
                raise ValueError(
                    "ControllerPolicy.use_health consumes the observability "
                    "plane's health signals, but this build has none — pass "
                    "obs=ObservabilityPlane(health=True) (or a custom "
                    "SLOPolicy) alongside the controller"
                )
        if config.controller is not None:
            if not self.supports_reconfig:
                raise ValueError(
                    f"protocol {self.name} does not support membership reconfiguration "
                    "(its client rounds are not epoch-aware), so the rebalancing "
                    "controller cannot drive it"
                )
            if type(self).make_replica is Protocol.make_replica:
                raise ValueError(
                    f"protocol {self.name} sets supports_reconfig but does not "
                    "override make_replica; the rebalancing controller cannot "
                    "spawn its replacement replicas"
                )
        if config.reconfig is not None and config.reconfig.requests:
            if not self.supports_reconfig:
                raise ValueError(
                    f"protocol {self.name} does not support membership reconfiguration "
                    "(its client rounds are not epoch-aware)"
                )
            # already loaded: the plan's own module
            from ..consensus.reconfig import CONSENSUS_GROUP, REPLICA_GROUP

            if any(r.kind == REPLICA_GROUP for r in config.reconfig.requests) and (
                type(self).make_replica is Protocol.make_replica
            ):
                raise ValueError(
                    f"protocol {self.name} sets supports_reconfig but does not "
                    "override make_replica; replica-group changes cannot spawn "
                    "its servers"
                )
            if any(r.kind == CONSENSUS_GROUP for r in config.reconfig.requests) and (
                config.consensus_factor < 2
            ):
                raise ValueError(
                    "consensus-group reconfiguration needs consensus_factor >= 2 "
                    "(there is no group to reconfigure at factor 1)"
                )
            if self.has_coordinator and config.consensus_factor == 1:
                # The designated coordinator is the primary of the first
                # object; retiring it through a replica-group change would
                # strand every coordinator round (the coordinator role does
                # not migrate). Replicate the coordinator first.
                coordinator = config.servers()[0]
                first_object = config.objects()[0]
                for request in config.reconfig.requests:
                    if (
                        request.object_id == first_object
                        and coordinator not in request.group
                    ):
                        raise ValueError(
                            f"reconfiguration would retire {coordinator!r}, the "
                            f"designated coordinator of protocol {self.name}; the "
                            "coordinator role does not migrate through a replica-"
                            "group change — replicate it with consensus_factor >= 2 "
                            "first"
                        )
        # Quorum intersection must hold for every replica group.
        config.placement().validate_policy(config.quorum_policy())
        c2c = config.c2c if config.c2c is not None else self.default_c2c()
        if self.requires_c2c and not c2c:
            raise ValueError(
                f"protocol {self.name} requires client-to-client communication, "
                "but the configuration disallows it"
            )

    # ------------------------------------------------------------------
    def build(
        self,
        num_readers: int = 1,
        num_writers: int = 1,
        num_objects: int = 2,
        scheduler: Optional[Scheduler] = None,
        seed: int = 0,
        initial_value: Any = 0,
        c2c: Optional[bool] = None,
        max_steps: int = 200_000,
        fault_plane: Optional[FaultPlane] = None,
        replication_factor: int = 1,
        quorum: Any = "read-one-write-all",
        consensus_factor: int = 1,
        election_timeout: Optional[Tuple[int, int]] = None,
        reconfig: Optional[ReconfigPlan] = None,
        controller: Optional[ControllerPolicy] = None,
        obs: Optional[Any] = None,
        trace_mode: Optional[Any] = None,
        fanout_batching: bool = False,
        consensus_batching: bool = False,
        persistence: Optional[Any] = None,
        leases: Optional[Any] = None,
    ) -> SystemHandle:
        """Instantiate the protocol as a ready-to-run system.

        ``fault_plane`` installs a network-conditions hook (see
        :mod:`repro.faults`); ``None`` keeps the paper's reliable channels.
        ``replication_factor`` places each object on a group of N servers and
        ``quorum`` (a name or a :class:`~repro.txn.placement.QuorumPolicy`)
        drives the read/write quorum rounds.  ``consensus_factor`` replicates
        the coordinator / timestamp oracle over N consensus members (see
        :mod:`repro.consensus`); ``election_timeout`` overrides their
        randomized election window.  ``reconfig`` installs a
        :class:`~repro.consensus.reconfig.ReconfigPlan` of mid-run membership
        changes (a shared epoch-versioned
        :class:`~repro.consensus.reconfig.PlacementDirectory` plus the admin
        driver automaton); ``controller`` installs the automated-rebalancing
        control loop (:mod:`repro.consensus.controller`), which *derives*
        membership changes from observed failures and latency and feeds them
        to the same driver.  ``obs`` installs an
        :class:`~repro.obs.ObservabilityPlane` (kernel metrics registry,
        streaming invariant monitors, health/SLO plane, optional wall-clock
        profiler); the plane only listens, so even an enabled plane leaves
        the trace byte-identical.  ``trace_mode`` selects trace record
        retention (:class:`~repro.ioa.TraceMode`; ``None``/``full`` keeps
        every action).  ``persistence`` attaches stable storage to every
        consensus member (:mod:`repro.persist`): term/vote/log survive
        crash-with-amnesia, and with ``compact_every`` set the members
        checkpoint their state machines and compact their logs.  ``leases``
        installs a :class:`~repro.consensus.lease.LeasePolicy` on every
        consensus member: the leader answers read-only coordinator requests
        locally under a quorum-proven lease instead of committing a log
        entry.  The defaults reproduce the paper's one-server-per-object,
        single-coordinator system byte-for-byte.
        """
        config = BuildConfig(
            num_readers=num_readers,
            num_writers=num_writers,
            num_objects=num_objects,
            initial_value=initial_value,
            seed=seed,
            c2c=c2c,
            scheduler=scheduler,
            max_steps=max_steps,
            fault_plane=fault_plane,
            replication_factor=replication_factor,
            quorum=quorum,
            consensus_factor=consensus_factor,
            election_timeout=election_timeout,
            reconfig=reconfig,
            controller=controller,
            obs=obs,
            trace_mode=trace_mode,
            fanout_batching=fanout_batching,
            consensus_batching=consensus_batching,
            persistence=persistence,
            leases=leases,
        )
        self.validate_config(config)
        allow_c2c = config.c2c if config.c2c is not None else self.default_c2c()
        topology = Topology(allow_client_to_client=allow_c2c)
        placement = config.placement()
        topology.set_replica_groups(
            {obj: placement.group(obj) for obj in placement.objects()}
        )
        topology.set_consensus_group(config.consensus_group())
        simulation = Simulation(
            topology=topology,
            scheduler=config.scheduler,
            seed=config.seed,
            max_steps=config.max_steps,
            fault_plane=config.fault_plane,
            obs=config.obs,
            trace_mode=config.trace_mode,
        )
        if config.obs is not None:
            monitors = getattr(config.obs, "monitors", None)
            if monitors is not None:
                # The quorum-intersection monitor needs the build's quorum
                # rule to judge joint configurations as they open.
                monitors.set_quorum_policy(config.quorum_policy())
        simulation.add_automata(self.make_automata(config))
        if config.fanout_batching or config.consensus_batching:
            self._apply_batching(config, simulation)
        if config.leases is not None:
            self._apply_leases(config, simulation)
        persistence_plane = None
        if config.persistence is not None:
            persistence_plane = self._apply_persistence(config, simulation)
        directory = None
        if (
            config.reconfig is not None and config.reconfig.requests
        ) or config.controller is not None:
            directory = self._install_reconfig(
                config, placement, simulation, persistence_plane
            )
        return SystemHandle(
            protocol=self,
            simulation=simulation,
            config=config,
            directory=directory,
            persistence=persistence_plane,
        )

    def _apply_batching(self, config: BuildConfig, simulation: Simulation) -> None:
        """Flip the batching knobs on the freshly built automata.

        Post-build injection (like the placement directory): clients carrying
        a ``batch_fanout`` attribute get the fan-out knob, consensus members
        carrying ``append_batching`` get the log-packing knob — automata
        without the attribute (servers, drivers) are untouched, so protocols
        opt in simply by reading the class attributes.
        """
        for automaton in simulation.automata():
            if config.fanout_batching and hasattr(automaton, "batch_fanout"):
                automaton.batch_fanout = True
            if config.consensus_batching and hasattr(automaton, "append_batching"):
                automaton.append_batching = True

    def _apply_leases(self, config: BuildConfig, simulation: Simulation) -> None:
        """Install the lease policy on every consensus member (post-build
        injection, like batching): automata exposing ``lease_policy`` —
        exactly the :class:`~repro.consensus.coordinator.
        ReplicatedCoordinator` members — get the normalized policy; every
        member holds the same one, so leader and promisers agree on the
        lease duration by construction."""
        from ..consensus.lease import LeasePolicy

        policy = LeasePolicy.of(config.leases)
        for automaton in simulation.automata():
            if hasattr(automaton, "lease_policy"):
                automaton.lease_policy = policy

    def _apply_persistence(self, config: BuildConfig, simulation: Simulation):
        """Attach a stable store to every consensus member (post-build
        injection, like batching): automata exposing ``stable_store`` —
        exactly the :class:`~repro.consensus.coordinator.
        ReplicatedCoordinator` members — get their per-name store from the
        plane.  Passing a plane whose stores already hold state (a rebuild
        over surviving storage) makes every member recover during attach."""
        from ..persist import PersistencePlane

        plane = PersistencePlane.of(config.persistence)
        for automaton in simulation.automata():
            if hasattr(automaton, "stable_store"):
                automaton.attach_store(
                    plane.store_for(automaton.name),
                    compact_every=plane.policy.compact_every,
                )
        return plane

    def _install_reconfig(
        self,
        config: BuildConfig,
        placement: Placement,
        simulation: Simulation,
        persistence_plane=None,
    ) -> PlacementDirectory:
        """Wire the reconfiguration layer onto a freshly built system.

        The shared :class:`PlacementDirectory` is handed (by reference) to
        every automaton exposing a ``directory`` attribute — the epoch-aware
        clients and storage replicas — and the admin driver is registered
        with the factories it needs to spawn replicas / consensus members.
        """
        from ..consensus.reconfig import PlacementDirectory, ReconfigDriver, ReconfigPlan

        directory = PlacementDirectory(
            placement, config.quorum_policy(), config.consensus_group()
        )
        if self.has_coordinator and config.consensus_factor == 1:
            # The coordinator role does not migrate through replica-group
            # changes: at consensus_factor=1 the designated first server must
            # never be retired by a *derived* change (planned changes are
            # rejected at validation already).
            directory.protected.add(config.servers()[0])
        for automaton in simulation.automata():
            if hasattr(automaton, "directory"):
                automaton.directory = directory
        consensus_member_factory = None
        if config.consensus_factor > 1:
            from ..consensus.coordinator import (
                DEFAULT_ELECTION_TIMEOUT,
                ReplicatedCoordinator,
            )

            timeout = tuple(config.election_timeout or DEFAULT_ELECTION_TIMEOUT)
            bootstrap = config.consensus_group()[0]

            def consensus_member_factory(name, union, _protocol=self):
                member = ReplicatedCoordinator(
                    name=name,
                    group=union,
                    machine=_protocol.make_consensus_machine(config),
                    seed=config.seed,
                    election_timeout=timeout,
                    bootstrap_leader=bootstrap,
                )
                # Mid-run members inherit the build's batching knobs.
                member.append_batching = config.consensus_batching
                member.batch_fanout = config.fanout_batching
                if config.leases is not None:
                    # ... and the lease policy: a spawned member promises
                    # (and may later hold) leases like a founding one.
                    from ..consensus.lease import LeasePolicy

                    member.lease_policy = LeasePolicy.of(config.leases)
                if persistence_plane is not None:
                    # ... and its durability: a spawned member persists (and
                    # recovers) exactly like a founding one.
                    member.attach_store(
                        persistence_plane.store_for(name),
                        compact_every=persistence_plane.policy.compact_every,
                    )
                return member

        driver = ReconfigDriver(
            plan=config.reconfig if config.reconfig is not None else ReconfigPlan(),
            directory=directory,
            replica_factory=lambda obj, name, group: self.make_replica(
                config, obj, name, group
            ),
            consensus_member_factory=consensus_member_factory,
        )
        simulation.add_automaton(driver)
        if config.controller is not None:
            from ..consensus.controller import ReconfigController

            health = None
            if config.controller.use_health:
                # Existence validated in validate_config; the view is the
                # read-only query API over the plane's health accumulator.
                from ..obs.health import HealthView

                health = HealthView(config.obs.health)
            simulation.add_automaton(
                ReconfigController(
                    policy=config.controller, directory=directory, health=health
                )
            )
        return directory

    def describe(self) -> str:
        rounds = "unbounded" if self.claimed_read_rounds is None else str(self.claimed_read_rounds)
        versions = "|W|" if self.claimed_versions is None else str(self.claimed_versions)
        return (
            f"{self.name}: {self.description} "
            f"[claims {self.claimed_properties}; rounds<={rounds}, versions<={versions}]"
        )
