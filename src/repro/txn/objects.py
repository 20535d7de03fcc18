"""Objects, versions, keys and tags of the transaction processing system.

The paper's system stores a set of read/write *objects* ``o_1 … o_k``, each
maintained by a separate server.  WRITE transactions create new *versions* of
a subset of objects; versions are identified by *keys* ``κ = (z, w)`` — a
per-writer sequence number paired with the writer id (Section 5.2) — and the
serialization arguments assign each transaction a *tag* drawn from the
naturals (Sections 7–9).

This module defines those small value types plus the per-server version store
(`VersionStore`) shared by the protocol implementations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple


@dataclass(frozen=True, order=True)
class Key:
    """A WRITE-transaction key ``κ = (z, writer)``.

    ``z`` is the writer-local sequence number (strictly increasing per
    writer) and ``writer`` the writer id.  ``Key.initial()`` is the paper's
    ``κ₀ = (0, w₀)`` placeholder identifying the initial versions.
    Ordering is lexicographic, which is only used for deterministic
    tie-breaking in reports — the protocols never rely on cross-writer key
    order (that is what tags are for).
    """

    z: int
    writer: str

    @classmethod
    def initial(cls) -> "Key":
        return cls(0, "w0")

    def is_initial(self) -> bool:
        return self.z == 0

    def describe(self) -> str:
        return f"({self.z},{self.writer})"


@dataclass(frozen=True)
class Version:
    """One version of one object: the value plus the key that wrote it."""

    object_id: str
    value: Any
    key: Key

    def describe(self) -> str:
        return f"{self.object_id}={self.value!r}@{self.key.describe()}"


class VersionStore:
    """The per-server multi-version store ``Vals`` of the pseudocode.

    Servers in algorithms A, B and C keep *every* version they have been sent
    (``Vals ← Vals ∪ {(κ, v)}``) and answer reads either for a specific key
    (A, B) or with the whole set (C).  The store also remembers insertion
    order so the Eiger-style and naive protocols can ask for "the latest"
    version.
    """

    def __init__(self, object_id: str, initial_value: Any = 0) -> None:
        self.object_id = object_id
        self._by_key: Dict[Key, Version] = {}
        self._order: List[Key] = []
        initial = Version(object_id=object_id, value=initial_value, key=Key.initial())
        self._by_key[initial.key] = initial
        self._order.append(initial.key)
        #: :meth:`pairs`, built on the first request after a :meth:`put`
        self._pairs: Optional[Tuple[Tuple[Key, Any], ...]] = None

    # ------------------------------------------------------------------
    def put(self, key: Key, value: Any) -> Version:
        """Insert (or overwrite) the version for ``key``."""
        version = Version(object_id=self.object_id, value=value, key=key)
        if key not in self._by_key:
            self._order.append(key)
        self._by_key[key] = version
        self._pairs = None
        return version

    def get(self, key: Key) -> Optional[Version]:
        """The version written under ``key``, or ``None``."""
        return self._by_key.get(key)

    def latest(self) -> Version:
        """The most recently inserted version (arrival order at this server)."""
        return self._by_key[self._order[-1]]

    def initial(self) -> Version:
        return self._by_key[self._order[0]]

    def all_versions(self) -> Tuple[Version, ...]:
        """Every version, in insertion order (the ``Vals`` set)."""
        return tuple(self._by_key[k] for k in self._order)

    def pairs(self) -> Tuple[Tuple[Key, Any], ...]:
        """``Vals`` as the ``(key, value)`` pairs a reply ships: algorithm C
        sends them on every read, so they are built once per write."""
        if self._pairs is None:
            self._pairs = tuple((v.key, v.value) for v in self.all_versions())
        return self._pairs

    def keys(self) -> Tuple[Key, ...]:
        return tuple(self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, key: Key) -> bool:
        return key in self._by_key


def object_names(count: int, prefix: str = "o") -> Tuple[str, ...]:
    """Standard object naming: ``o1 … ok`` (or ``ox``/``oy`` for two objects)."""
    if count == 2:
        return (f"{prefix}x", f"{prefix}y")
    return tuple(f"{prefix}{i}" for i in range(1, count + 1))


def server_for_object(object_id: str, prefix: str = "s") -> str:
    """The canonical name of the server holding ``object_id``.

    The paper assumes one object per server; we name the server after the
    object (``ox`` is held by ``sx``, ``o3`` by ``s3``).
    """
    if object_id.startswith("o"):
        return prefix + object_id[1:]
    return prefix + "_" + object_id


def object_for_server(server_id: str, prefix: str = "o") -> str:
    """Inverse of :func:`server_for_object`."""
    if server_id.startswith("s"):
        return prefix + server_id[1:]
    return prefix + "_" + server_id
