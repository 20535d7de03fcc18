"""The placement layer: object → replica group mapping and quorum policies.

The paper models each object as held by a *single* server (``ox ↦ sx``), and
the seed repository hard-coded that assumption through every layer.  This
module replaces it with an explicit **placement**: every object is assigned a
*replica group* of ``N`` servers, and a pluggable :class:`QuorumPolicy`
decides how many replicas a WRITE must install at (``W``) and how many
replies a READ must collect (``R``) before proceeding.

Design constraints:

* **Degeneration** — with ``replication_factor=1`` the placement names
  exactly the paper's servers (``sx``, ``sy``, ``s1`` …) and every quorum is
  of size one, so the protocols produce byte-for-byte the same traces as the
  single-copy seed (pinned by the golden-signature tests under
  ``tests/replication``).
* **Quorum intersection** — a policy is valid for a group of size ``N`` only
  when ``R + W > N``: any read quorum then overlaps any completed write
  quorum, which is what lets exact-key reads find the version the metadata
  layer (coordinator ``List`` / algorithm A's reader ``List``) named even
  while later installs are still in flight or a replica is down.
* **Determinism** — replica naming and group ordering are pure functions of
  the object names and the replication factor, so placements never introduce
  nondeterminism into traces.

Replica naming: the *primary* replica of object ``o`` keeps the canonical
single-copy name (``server_for_object(o)``, e.g. ``sx``); additional replicas
are ``sx.2, sx.3, …``.  The first server of the first group doubles as the
coordinator / timestamp-oracle for the protocols that need one, exactly as
the first server did before.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

from .objects import object_names, server_for_object


def replica_names(object_id: str, replication_factor: int) -> Tuple[str, ...]:
    """The replica group of ``object_id``: primary first, then ``.i`` suffixes."""
    if replication_factor < 1:
        raise ValueError(f"replication_factor must be >= 1, got {replication_factor}")
    primary = server_for_object(object_id)
    return (primary,) + tuple(f"{primary}.{i}" for i in range(2, replication_factor + 1))


def next_replica_names(object_id: str, taken: Sequence[str], count: int = 1) -> Tuple[str, ...]:
    """Fresh replica names for ``object_id`` not colliding with ``taken``.

    Reconfiguration grows a group with servers named by the same convention
    as :func:`replica_names` (``sx.2, sx.3, …``), skipping suffixes already
    in use — so a replacement for a retired ``sx.3`` in the group
    ``(sx, sx.2, sx.3)`` is deterministically ``sx.4``.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    primary = server_for_object(object_id)
    used = set(taken)
    fresh = []
    suffix = 2
    while len(fresh) < count:
        candidate = f"{primary}.{suffix}"
        if candidate not in used:
            fresh.append(candidate)
            used.add(candidate)
        suffix += 1
    return tuple(fresh)


def coordinator_group_names(consensus_factor: int, base: str = "coor") -> Tuple[str, ...]:
    """The replicated-coordinator group, alongside the replica groups.

    With ``consensus_factor=1`` the coordinator stays where the paper puts it
    — on the first storage server — and *no* dedicated group exists, so this
    returns ``()`` (the byte-identity contract of the consensus layer).  With
    N >= 2 the coordinator role moves to N dedicated consensus members named
    like replicas: ``coor, coor.2, …, coor.N`` (the first member is the
    bootstrap leader, mirroring "the first server doubles as coordinator").
    """
    if consensus_factor < 1:
        raise ValueError(f"consensus_factor must be >= 1, got {consensus_factor}")
    if consensus_factor == 1:
        return ()
    return (base,) + tuple(f"{base}.{i}" for i in range(2, consensus_factor + 1))


# ----------------------------------------------------------------------
# Quorum policies
# ----------------------------------------------------------------------
class QuorumPolicy:
    """How many replicas a write installs at / a read hears from.

    Subclasses define :meth:`read_quorum` and :meth:`write_quorum` as
    functions of the group size ``n``.  :meth:`validate` enforces quorum
    intersection (``R + W > n``), without which an exact-key read could miss
    the completed write it was promised.
    """

    name: str = "abstract"

    def read_quorum(self, n: int) -> int:
        raise NotImplementedError

    def write_quorum(self, n: int) -> int:
        raise NotImplementedError

    def validate(self, n: int) -> None:
        if n < 1:
            raise ValueError(f"replica group size must be >= 1, got {n}")
        r, w = self.read_quorum(n), self.write_quorum(n)
        if not (1 <= r <= n and 1 <= w <= n):
            raise ValueError(
                f"quorum policy {self.name!r} gives R={r}, W={w} outside [1, {n}]"
            )
        if r + w <= n:
            raise ValueError(
                f"quorum policy {self.name!r} violates intersection for n={n}: "
                f"R={r} + W={w} <= {n} (a read quorum could miss a completed write)"
            )

    def describe(self) -> str:
        return self.name


@dataclass(frozen=True)
class ReadOneWriteAll(QuorumPolicy):
    """``R=1, W=n``: reads take the first reply, writes install everywhere.

    The degenerate policy for ``n=1`` — and the default, because it is the
    only policy whose quorum rounds are indistinguishable from the paper's
    single-copy protocol at every group size 1.
    """

    name: str = "read-one-write-all"

    def read_quorum(self, n: int) -> int:
        return 1

    def write_quorum(self, n: int) -> int:
        return n


@dataclass(frozen=True)
class MajorityQuorum(QuorumPolicy):
    """``R = W = ⌊n/2⌋ + 1``: tolerate ``⌈n/2⌉ - 1`` crashed replicas.

    The classic symmetric quorum: any two quorums intersect, so with
    ``n=3`` one replica may be down (or slow, or partitioned away) and both
    reads and writes still complete.
    """

    name: str = "majority"

    def read_quorum(self, n: int) -> int:
        return n // 2 + 1

    def write_quorum(self, n: int) -> int:
        return n // 2 + 1


_QUORUM_FACTORIES: Dict[str, Callable[[], QuorumPolicy]] = {
    "read-one-write-all": ReadOneWriteAll,
    "rowa": ReadOneWriteAll,
    "majority": MajorityQuorum,
}


def quorum_policy_names() -> Tuple[str, ...]:
    """All registered quorum policy names, sorted."""
    return tuple(sorted(_QUORUM_FACTORIES))


def quorum_policy(name_or_policy) -> QuorumPolicy:
    """Resolve a policy instance from a name (or pass an instance through)."""
    if isinstance(name_or_policy, QuorumPolicy):
        return name_or_policy
    try:
        factory = _QUORUM_FACTORIES[name_or_policy]
    except KeyError:
        known = ", ".join(repr(n) for n in quorum_policy_names())
        raise KeyError(
            f"unknown quorum policy {name_or_policy!r}; known policies: {known}"
        ) from None
    return factory()


# ----------------------------------------------------------------------
# Placement
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Placement:
    """An immutable object → replica-group map.

    ``groups`` preserves object order; each group lists the primary replica
    first.  Lookup helpers are O(1) via the derived indexes (computed once in
    ``__post_init__``; stored with ``object.__setattr__`` because the
    dataclass is frozen).
    """

    groups: Tuple[Tuple[str, Tuple[str, ...]], ...]

    def __post_init__(self) -> None:
        frozen = tuple((obj, tuple(group)) for obj, group in self.groups)
        object.__setattr__(self, "groups", frozen)
        by_object: Dict[str, Tuple[str, ...]] = {}
        object_of: Dict[str, str] = {}
        for obj, group in frozen:
            if not group:
                raise ValueError(f"object {obj!r} has an empty replica group")
            if obj in by_object:
                raise ValueError(f"object {obj!r} placed twice")
            by_object[obj] = group
            for server in group:
                if server in object_of:
                    raise ValueError(f"server {server!r} appears in two replica groups")
                object_of[server] = obj
        object.__setattr__(self, "_by_object", by_object)
        object.__setattr__(self, "_object_of", object_of)
        object.__setattr__(self, "_trivial", all(len(group) == 1 for _, group in frozen))

    # ------------------------------------------------------------------
    @classmethod
    def for_objects(
        cls, objects: Sequence[str], replication_factor: int = 1
    ) -> "Placement":
        """The standard placement: uniform replication over canonical names."""
        return cls(
            groups=tuple(
                (obj, replica_names(obj, replication_factor)) for obj in objects
            )
        )

    @classmethod
    def single_copy(cls, objects: Sequence[str]) -> "Placement":
        """The paper's one-server-per-object placement."""
        return cls.for_objects(objects, replication_factor=1)

    # ------------------------------------------------------------------
    def objects(self) -> Tuple[str, ...]:
        return tuple(obj for obj, _ in self.groups)

    def group(self, object_id: str) -> Tuple[str, ...]:
        """The replica group of ``object_id`` (primary first)."""
        try:
            return self._by_object[object_id]
        except KeyError:
            raise KeyError(f"object {object_id!r} is not placed") from None

    def primary(self, object_id: str) -> str:
        return self.group(object_id)[0]

    def object_of(self, server: str) -> str:
        """The object a replica server holds (inverse of :meth:`group`)."""
        try:
            return self._object_of[server]
        except KeyError:
            raise KeyError(f"server {server!r} belongs to no replica group") from None

    def servers(self) -> Tuple[str, ...]:
        """All replica servers, object-major, primaries first within a group."""
        return tuple(server for _, group in self.groups for server in group)

    def is_trivial(self) -> bool:
        """Whether every group has a single replica (the paper's assumption)."""
        return self._trivial

    @property
    def replication_factor(self) -> int:
        return max((len(group) for _, group in self.groups), default=1)

    def with_group(self, object_id: str, group: Sequence[str]) -> "Placement":
        """A new placement with ``object_id``'s replica group replaced.

        The epoch-transition primitive of the reconfiguration layer: every
        other group is untouched, and the constructor re-validates the whole
        map (no empty groups, no server in two groups).
        """
        if object_id not in self._by_object:
            raise KeyError(f"object {object_id!r} is not placed")
        return Placement(
            groups=tuple(
                (obj, tuple(group) if obj == object_id else existing)
                for obj, existing in self.groups
            )
        )

    def validate_policy(self, policy: QuorumPolicy) -> None:
        for _, group in self.groups:
            policy.validate(len(group))

    def describe(self) -> str:
        parts = [f"{obj}→[{','.join(group)}]" for obj, group in self.groups]
        return f"Placement({'; '.join(parts)})"


def standard_placement(num_objects: int, replication_factor: int = 1) -> Placement:
    """Placement over the standard object names (``ox``/``oy`` or ``o1…ok``)."""
    return Placement.for_objects(object_names(num_objects), replication_factor)
