"""Shared machinery of algorithms B and C (Sections 8-9).

Both bounded-latency MWMR algorithms use the same WRITE transaction protocol
(Pseudocode 5) and the same server-side state: a multi-version store ``Vals``
on every storage replica plus, on one designated *coordinator* server ``s*``,
the append-only ``List`` recording, per WRITE transaction, which objects it
updated and under which key.  The algorithms differ only in how READ
transactions consult the coordinator — sequentially (B: two rounds, one
version) or concurrently (C: one round, many versions).

Under the placement layer every object is held by a replica group; the
``write-value`` phase installs at every replica and awaits a write quorum
per object.  The ``List`` itself is a metadata service with two deployments:

* ``consensus_factor=1`` (the seed's setting) — one logical metadata server,
  the primary replica of the first object, exactly the first server of the
  seed; the :class:`CoordinatedServer` there holds the ``List``;
* ``consensus_factor>=2`` — the ``List`` becomes a replicated state machine
  over a dedicated consensus group (:mod:`repro.consensus`): clients
  broadcast their coordinator requests to every member and the elected
  leader replies once the request committed.  Both deployments apply the
  *same* :class:`~repro.consensus.machines.CoordinatorList`, so their
  metadata transitions are identical by construction.

This module provides:

* :class:`CoordinatedClient` — the client base that also addresses the
  coordinator; :class:`CoordinatedWriter` — the Pseudocode 5 writer
  (``write-value`` then ``update-coor``);
* :class:`CoordinatedServer` — the storage-replica automaton
  (:class:`~repro.protocols.replication.ReplicatedStorageServer`) extended
  with the coordinator role (``update-coor``, ``get-tag-arr``, tag
  piggy-backing on ``read-vals``);
* :func:`coordinator_name` / :func:`coordinator_targets` — the conventions
  designating the coordinator (single server or consensus group);
* :class:`CoordinatedProtocol` — the protocol package both algorithms are:
  they differ only in their :attr:`~CoordinatedProtocol.reader` class.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..consensus.machines import CoordinatorList, ListStateMachine
from ..ioa.actions import Message
from ..ioa.automaton import Await, Context, Send, WriterAutomaton
from ..ioa.errors import SimulationError
from ..txn.objects import Key
from ..txn.placement import Placement, QuorumPolicy
from ..txn.transactions import WriteTransaction, WRITE_OK
from .base import BuildConfig, Protocol
from .replication import ReplicaClient, ReplicatedStorageServer, write_value_round


def coordinator_name(servers: Sequence[str]) -> str:
    """The designated coordinator ``s*``: by convention the first server."""
    if not servers:
        raise SimulationError("a coordinated system needs at least one server")
    return servers[0]


def coordinator_targets(config, placement: Placement) -> Tuple[str, ...]:
    """The processes clients address coordinator requests to.

    The consensus group when the metadata service is replicated
    (``consensus_factor >= 2``), else the designated first storage server of
    ``placement`` — a one-element group, so client code is a single loop
    either way and ``consensus_factor=1`` sends are byte-identical to the seed.
    """
    group = config.consensus_group()
    if group:
        return group
    return (coordinator_name(placement.servers()),)


class CoordinatedClient(ReplicaClient):
    """A :class:`ReplicaClient` that also addresses the coordinator (one
    server, or the consensus group): the clients of algorithms B and C, and
    OCC's writer, whose coordinator is the timestamp oracle."""

    def __init__(
        self,
        name: str,
        objects: Sequence[str],
        coordinator: str,
        placement: Optional[Placement] = None,
        policy: Optional[QuorumPolicy] = None,
        coordinator_group: Optional[Sequence[str]] = None,
    ) -> None:
        super().__init__(name, objects, placement, policy)
        self.coordinator = coordinator
        self.coordinator_group: Tuple[str, ...] = (
            tuple(coordinator_group) if coordinator_group else (coordinator,)
        )

    def coordinators(self) -> Tuple[str, ...]:
        """The coordinator group to broadcast to right now: under a
        reconfiguration directory its view wins (the union of ``C_old,new``
        while a consensus change is joint); on fixed membership — or when
        the directory tracks no consensus group — the build-time group
        stands."""
        return self.view.coordinator_targets() or self.coordinator_group


class CoordinatedWriter(CoordinatedClient, WriterAutomaton):
    """Writer of algorithms B and C (Pseudocode 5).

    Phases of ``W((o_{i1}, v_{i1}), …)``:

    1. ``write-value`` — create key ``κ = (z+1, w)``, install ``(κ, v_i)`` at
       every replica of every written object, await a write quorum of acks
       per object;
    2. ``update-coor`` — tell the coordinator which objects ``κ`` updated,
       await ``(ack, t_w)``; ``t_w`` is the transaction's tag.
    """

    def __init__(
        self,
        name: str,
        objects: Sequence[str],
        coordinator: str,
        placement: Optional[Placement] = None,
        policy: Optional[QuorumPolicy] = None,
        coordinator_group: Optional[Sequence[str]] = None,
    ) -> None:
        super().__init__(name, objects, coordinator, placement, policy, coordinator_group)
        self.z = 0

    def run_transaction(self, txn: WriteTransaction, ctx: Context):
        self.z += 1
        key = Key(self.z, self.name)
        # write-value phase (a write quorum per written object) --------------
        yield from write_value_round(txn.txn_id, tuple(txn.updates), key, self.view, ctx)
        # update-coor phase (broadcast to the coordinator group; only the
        # consensus leader answers, once the entry committed) -----------------
        written = txn.values
        bits = tuple((obj, 1 if obj in written else 0) for obj in self.objects)
        yield from [
            Send(
                dst=target,
                msg_type="update-coor",
                payload={"txn": txn.txn_id, "key": key, "bits": bits},
                phase="update-coor",
            )
            for target in self.coordinators()
        ]
        acks = yield Await(
            matcher=lambda m, txn_id=txn.txn_id: m.msg_type == "ack-coor" and m.get("txn") == txn_id,
            count=1,
            description="update-coor ack",
        )
        tag = acks[0].get("tag")
        ctx.annotate_transaction(txn.txn_id, tag=tag, protocol="coordinated")
        return WRITE_OK


class CoordinatedServer(ReplicatedStorageServer):
    """Storage replica of algorithms B and C, optionally the coordinator.

    Every replica keeps the multi-version store ``Vals`` (inherited).  The
    coordinator additionally keeps ``List`` (entries ``(κ, bits)``, 1-based
    positions in the pseudocode; the initial entry stands for the initial
    versions) and answers ``get-tag-arr`` requests with, per requested
    object, the key of the newest list entry that updated it, together with
    the read tag ``t_r = max`` of those positions (for C, instead, the
    entries that wrote each object from the List length its reader saw last
    on: :meth:`CoordinatorList.tag_fields`).
    """

    missing_key_hint = "the coordinator only hands out keys whose write-value phase completed"

    def __init__(
        self,
        name: str,
        object_id: str,
        objects: Sequence[str],
        is_coordinator: bool,
        initial_value: Any = 0,
        group: Optional[Sequence[str]] = None,
    ) -> None:
        super().__init__(name, object_id, initial_value, group=group)
        self.objects = tuple(objects)
        self.is_coordinator = is_coordinator
        # The same List implementation the replicated coordinator applies —
        # one definition of the metadata transitions for both deployments.
        self.coordinator_list = CoordinatorList(self.objects)

    def forget(self) -> None:
        """Amnesia: lose the store *and* (on the coordinator) the ``List``."""
        super().forget()
        self.coordinator_list.reset()

    # ------------------------------------------------------------------
    # Coordinator-side helpers
    # ------------------------------------------------------------------
    # ------------------------------------------------------------------
    def on_unhandled(self, message: Message, ctx: Context) -> None:
        if message.msg_type == "update-coor":
            self._on_update_coor(message, ctx)
        elif message.msg_type == "get-tag-arr":
            self._on_get_tag_arr(message, ctx)

    def _on_update_coor(self, message: Message, ctx: Context) -> None:
        if not self.is_coordinator:
            raise SimulationError(f"server {self.name} is not the coordinator but received update-coor")
        tag = self.coordinator_list.append(message.get("key"), dict(message.get("bits", ())))
        ctx.send(message.src, "ack-coor", {"txn": message.get("txn"), "tag": tag}, phase="update-coor")

    def _on_get_tag_arr(self, message: Message, ctx: Context) -> None:
        if not self.is_coordinator:
            raise SimulationError(f"server {self.name} is not the coordinator but received get-tag-arr")
        ctx.send(
            message.src,
            "tag-arr-reply",
            {"txn": message.get("txn"), **self.coordinator_list.tag_fields(message), "num_versions": 1},
            phase="get-tag-array",
        )

    def extend_read_vals_payload(self, message: Message, payload: Dict[str, Any]) -> None:
        """Piggy-back the tag array when the reader combined its requests.

        When ``want_tags`` is set (the coordinator also holds a requested
        object) the tag array rides on the same reply so the READ stays a
        single round trip per server.
        """
        if message.get("want_tags"):
            if not self.is_coordinator:
                raise SimulationError(f"server {self.name} asked for tags but is not the coordinator")
            payload.update(self.coordinator_list.tag_fields(message))


class CoordinatedProtocol(Protocol):
    """The system of algorithms B and C: ``reader`` clients beside the
    Pseudocode 5 writers, a :class:`CoordinatedServer` per replica, and the
    ``List`` as the consensus group's state machine."""

    has_coordinator = True
    #: the READ transaction automaton, the one thing B and C differ in
    reader: type

    def make_consensus_machine(self, config: BuildConfig) -> ListStateMachine:
        return ListStateMachine(config.objects())

    def make_clients(self, config: BuildConfig, placement: Placement) -> List[Any]:
        objects = config.objects()
        policy = config.quorum_policy()
        group = coordinator_targets(config, placement)
        return [
            self.reader(reader, objects, group[0], placement, policy, group)
            for reader in config.readers()
        ] + [
            CoordinatedWriter(writer, objects, group[0], placement, policy, group)
            for writer in config.writers()
        ]

    def make_server(self, config: BuildConfig, object_id: str, name: str, group, coordinator: bool = False):
        return CoordinatedServer(
            name,
            object_id,
            config.objects(),
            is_coordinator=coordinator,
            initial_value=config.initial_value,
            group=group,
        )
