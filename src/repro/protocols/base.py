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

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..ioa.automaton import Automaton
from ..ioa.network import FaultPlane, Topology
from ..ioa.scheduler import Scheduler
from ..ioa.simulation import Simulation
from ..ioa.trace import Trace
from ..txn.history import History
from ..txn.objects import object_names
from ..txn.placement import (
    Placement,
    QuorumPolicy,
    coordinator_group_names,
    quorum_policy,
)
from ..txn.transactions import read as make_read, write_pairs

if TYPE_CHECKING:  # the reconfiguration plane is imported where it attaches (_install_reconfig)
    from ..consensus.reconfig import PlacementDirectory, ReconfigPlan


def reader_names(count: int) -> Tuple[str, ...]:
    return tuple(f"r{i}" for i in range(1, count + 1))


def writer_names(count: int) -> Tuple[str, ...]:
    return tuple(f"w{i}" for i in range(1, count + 1))


@dataclass
class SystemSpec:
    """The settings that fix one system of the paper's model: its readers,
    writers and objects, whether clients may talk to each other, and the
    planes layered on it.  :class:`BuildConfig` adds one run's machinery to
    them and :class:`~repro.analysis.runner.ExperimentConfig` a recipe's."""

    num_readers: int = 1
    num_writers: int = 1
    num_objects: int = 2
    initial_value: Any = 0
    seed: int = 0
    c2c: Optional[bool] = None  # None = protocol default
    #: replicas per object (1 = the paper's one-server-per-object setting)
    replication_factor: int = 1
    #: quorum policy name or instance (see :mod:`repro.txn.placement`)
    quorum: Any = "read-one-write-all"
    #: consensus members replicating the coordinator / timestamp oracle
    #: (1 = the seed's single designated server, byte-identical)
    consensus_factor: int = 1
    #: scheduled membership changes (None = fixed membership, byte-identical
    #: to the seed; see :mod:`repro.consensus.reconfig`)
    reconfig: Optional[ReconfigPlan] = None
    #: trace record retention (None = full, byte-identical to seed; see
    #: :class:`~repro.ioa.trace.TraceMode` — ``ring`` keeps counters and
    #: streaming monitors exact while recording only the newest actions)
    trace_mode: Optional[Any] = None
    #: stable storage for consensus members (a
    #: :class:`~repro.persist.PersistencePolicy` or ready-made
    #: :class:`~repro.persist.PersistencePlane`, normalised to a plane by
    #: ``Protocol.build``); needs ``consensus_factor >= 2``.  None (the
    #: default) keeps the seed's volatile members, byte-identical.
    persistence: Optional[Any] = None
    #: leader leases for the replicated coordinator (``True``): the lease
    #: holder answers read-only coordinator requests locally instead of
    #: committing a log entry, under a lease as long as the election
    #: timeout's low bound; needs ``consensus_factor >= 2``.  None (the
    #: default) keeps the commit-round read path, byte-identical.
    leases: Optional[bool] = None

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


@dataclass
class BuildConfig(SystemSpec):
    """Parameters of one system instantiation: the settings :meth:`Protocol.build` takes."""

    scheduler: Optional[Scheduler] = None
    max_steps: int = 200_000
    #: optional network-conditions hook (None = the paper's reliable channels)
    fault_plane: Optional[FaultPlane] = None
    #: randomized election timeout window in virtual-time steps (None = the
    #: consensus layer's default; only meaningful with consensus_factor > 1)
    election_timeout: Optional[Tuple[int, int]] = None
    #: observability plane (None = no metrics/span hooks at all; an enabled
    #: plane is a passive listener, so the trace stays byte-identical —
    #: see :mod:`repro.obs`)
    obs: Optional[Any] = None


class SystemHandle:
    """A built system: the simulation plus naming and result helpers."""

    def __init__(
        self,
        protocol: "Protocol",
        simulation: Simulation,
        config: BuildConfig,
        placement: Placement,
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
        self.placement = placement
        self.quorum_policy = config.quorum_policy()
        self.servers = placement.servers()
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
        return self.simulation.submit(reader, make_read(*objects, txn_id=txn_id), after=after)

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
        return self.simulation.submit(writer, write_pairs(tuple(updates.items()), txn_id=txn_id), after=after)

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

    Every protocol is one instance of the paper's system model, laid out by
    :meth:`make_automata`: its clients, then one server per replica of each
    object, then the consensus members.  Subclasses set the class attributes
    describing the protocol's setting and implement the two hooks that name
    the automata, :meth:`make_clients` and :meth:`make_server`.
    """

    name: str = "abstract"
    description: str = ""
    #: whether the protocol needs client-to-client communication (algorithm A does)
    requires_c2c: bool = False
    #: whether the protocol routes through a designated coordinator /
    #: timestamp oracle (the metadata service consensus_factor replicates)
    has_coordinator: bool = False
    #: whether the protocol is defined for more than one reader
    supports_multiple_readers: bool = True
    #: documentation string of the guarantees the paper claims for the protocol
    claimed_properties: str = ""
    #: documented worst-case number of read rounds (None = unbounded)
    claimed_read_rounds: Optional[int] = None
    #: documented worst-case number of versions per reply (None = unbounded / |W|)
    claimed_versions: Optional[int] = 1

    # ------------------------------------------------------------------
    def make_automata(self, config: BuildConfig, placement: Placement) -> List[Automaton]:
        """The system's automata in registration order: the clients, every
        replica of every object of ``placement`` (object-major, primaries
        first), then the consensus members.  At ``consensus_factor=1`` a
        protocol with a coordinator places it on the first server."""
        consensus = config.consensus_group()
        coordinator = placement.servers()[0] if self.has_coordinator and not consensus else None
        return (
            self.make_clients(config, placement)
            + [
                self.make_server(config, object_id, name, group, coordinator=name == coordinator)
                for object_id, group in placement.groups
                for name in group
            ]
            + [self.make_consensus_member(config, name, consensus) for name in consensus]
        )

    def make_clients(self, config: BuildConfig, placement: Placement) -> List[Automaton]:
        """The readers, then the writers, of a system laid out by ``placement``."""
        raise NotImplementedError

    def make_server(
        self,
        config: BuildConfig,
        object_id: str,
        name: str,
        group: Tuple[str, ...],
        coordinator: bool = False,
    ) -> Automaton:
        """Build replica ``name`` of ``object_id``'s ``group``: the one place a
        replica is made, for the founding system and for every replica a
        membership change spawns mid-run (the coordinator role never
        migrates, so a spawned replica has ``coordinator=False``)."""
        raise NotImplementedError

    def make_consensus_machine(self, config: BuildConfig):
        """The coordinator state machine the consensus group replicates
        (None for protocols without a coordinator)."""
        return None

    def make_consensus_member(
        self, config: BuildConfig, name: str, group: Tuple[str, ...]
    ) -> Automaton:
        """Build one replicated-coordinator member of ``group``: the one
        place a member is made.  :meth:`make_automata` makes the founding
        group here and the reconfiguration driver every member it spawns
        mid-run, so each gets its own state machine, the build's leases and
        its stable store (``config.persistence``, a plane once
        :meth:`build` normalised it) the same way."""
        # the member automaton loads with the first build that has a group
        from ..consensus.coordinator import DEFAULT_ELECTION_TIMEOUT, ReplicatedCoordinator

        plane = config.persistence
        return ReplicatedCoordinator(
            name=name,
            group=group,
            machine=self.make_consensus_machine(config),
            seed=config.seed,
            election_timeout=config.election_timeout or DEFAULT_ELECTION_TIMEOUT,
            bootstrap_leader=config.consensus_group()[0],
            leases=config.leases is not None,
            stable_store=None if plane is None else plane.store_for(name),
            compact_every=None if plane is None else plane.policy.compact_every,
        )

    def default_c2c(self) -> bool:
        return self.requires_c2c

    def validate_config(self, config: BuildConfig, placement: Placement) -> None:
        if config.num_readers < 1 or config.num_writers < 1 or config.num_objects < 1:
            raise ValueError("system needs at least one reader, one writer and one object")
        if config.num_readers > 1 and not self.supports_multiple_readers:
            raise ValueError(f"protocol {self.name} is defined for a single reader (MWSR setting)")
        if config.consensus_factor < 1:
            raise ValueError(
                f"consensus_factor must be >= 1, got {config.consensus_factor}"
            )
        if config.consensus_factor > 1 and not self.has_coordinator:
            raise ValueError(
                f"protocol {self.name} has no coordinator/metadata service to replicate "
                f"(consensus_factor={config.consensus_factor} needs one)"
            )
        if config.persistence is not None and config.consensus_factor < 2:
            raise ValueError(
                "persistence attaches stable storage to replicated-"
                "coordinator members; it needs consensus_factor >= 2 "
                "(there is no member state to persist at factor 1)"
            )
        if config.leases is not None:
            if config.leases is not True:
                raise TypeError(
                    f"leases is on or off: pass True or None, got {config.leases!r} "
                    "(the lease duration is always the election timeout's low bound)"
                )
            if config.consensus_factor < 2:
                raise ValueError(
                    "leases let the replicated coordinator's lease holder "
                    "serve reads locally; they need consensus_factor >= 2 "
                    "(the factor-1 designated server already answers locally)"
                )
        if config.reconfig is not None and config.reconfig.requests:
            # already loaded: the plan's own module
            from ..consensus.reconfig import CONSENSUS_GROUP

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
                coordinator = placement.servers()[0]
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
        placement.validate_policy(config.quorum_policy())
        c2c = config.c2c if config.c2c is not None else self.default_c2c()
        if self.requires_c2c and not c2c:
            raise ValueError(
                f"protocol {self.name} requires client-to-client communication, "
                "but the configuration disallows it"
            )

    # ------------------------------------------------------------------
    def build(self, **settings: Any) -> SystemHandle:
        """Instantiate the protocol as a ready-to-run system.

        ``settings`` are :class:`BuildConfig`'s fields (an unknown one is a
        :class:`TypeError`); the defaults reproduce the paper's
        one-server-per-object, single-coordinator system byte-for-byte.
        """
        config = BuildConfig(**settings)
        placement = config.placement()  # derived once: every hook below takes it
        self.validate_config(config, placement)
        if config.persistence is not None:
            from ..persist import PersistencePlane

            # the one normalisation (raises on a bad value): members take
            # their stores from the plane as they are made
            config.persistence = PersistencePlane.of(config.persistence)
        allow_c2c = config.c2c if config.c2c is not None else self.default_c2c()
        topology = Topology(allow_client_to_client=allow_c2c)
        topology.set_replica_groups(
            {obj: placement.group(obj) for obj in placement.objects()}
        )
        topology.set_consensus_group(config.consensus_group())
        simulation = Simulation(
            topology=topology,
            scheduler=config.scheduler,
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
        simulation.add_automata(self.make_automata(config, placement))
        directory = None
        if config.reconfig is not None and config.reconfig.requests:
            directory = self._install_reconfig(config, placement, simulation)
        return SystemHandle(
            protocol=self,
            simulation=simulation,
            config=config,
            placement=placement,
            directory=directory,
            persistence=config.persistence,
        )

    def _install_reconfig(
        self,
        config: BuildConfig,
        placement: Placement,
        simulation: Simulation,
    ) -> PlacementDirectory:
        """Wire the reconfiguration layer onto a freshly built system.

        The shared :class:`PlacementDirectory` is handed (by reference) to
        every automaton exposing a ``directory`` attribute — the epoch-aware
        clients and storage replicas — and the admin driver is registered
        with the factories it needs to spawn replicas / consensus members.
        """
        from ..consensus.reconfig import PlacementDirectory, ReconfigDriver

        directory = PlacementDirectory(
            placement, config.quorum_policy(), config.consensus_group()
        )
        for automaton in simulation.automata():
            if hasattr(automaton, "directory"):
                automaton.directory = directory
        driver = ReconfigDriver(
            plan=config.reconfig,
            directory=directory,
            replica_factory=lambda obj, name, group: self.make_server(config, obj, name, group),
            consensus_member_factory=(
                (lambda name, union: self.make_consensus_member(config, name, union))
                if config.consensus_factor > 1
                else None
            ),
        )
        simulation.add_automaton(driver)
        return directory

    def describe(self) -> str:
        rounds = "unbounded" if self.claimed_read_rounds is None else str(self.claimed_read_rounds)
        versions = "|W|" if self.claimed_versions is None else str(self.claimed_versions)
        return (
            f"{self.name}: {self.description} "
            f"[claims {self.claimed_properties}; rounds<={rounds}, versions<={versions}]"
        )
