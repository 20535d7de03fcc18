"""Objects, versions, keys and tags of the transaction processing system.

The paper's system stores a set of read/write *objects* ``o_1 … o_k``, each
maintained by a separate server.  WRITE transactions create new *versions* of
a subset of objects; versions are identified by *keys* ``κ = (z, w)`` — a
per-writer sequence number paired with the writer id (Section 5.2) — and the
serialization arguments assign each transaction a *tag* drawn from the
naturals (Sections 7–9).

This module defines those small value types plus the per-server version store
(`VersionStore`) shared by the protocol implementations.  Keys and versions
are named tuples, so they are hashed and compared in C.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Tuple


class Key(NamedTuple):
    """A WRITE-transaction key ``κ = (z, writer)``.

    ``z`` is the writer-local sequence number (strictly increasing per
    writer) and ``writer`` the writer id.  ``Key.initial()`` is the paper's
    ``κ₀ = (0, w₀)`` placeholder identifying the initial versions.
    Ordering is lexicographic, which is only used for deterministic
    tie-breaking in reports — the protocols never rely on cross-writer key
    order (that is what tags are for).

    A key is a tuple, so hashing and equality run in C (algorithm C's
    reader compares keys on every read); it therefore also equals the plain
    tuple ``(z, writer)``.  No container in the package mixes keys with
    plain tuples, and the stable-store codec tests ``Key`` before ``tuple``.
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


class Version(NamedTuple):
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
    version, and so algorithm C's reader can scan a shipped ``Vals``
    newest-first for the key the coordinator named.
    """

    def __init__(self, object_id: str, initial_value: Any = 0) -> None:
        self.object_id = object_id
        #: every version by key, in insertion order (an overwrite keeps its place)
        self._by_key: Dict[Key, Version] = {}
        #: ``Vals`` as a reply ships it, in the same order
        self._pair_list: List[Tuple[Key, Any]] = []
        #: :meth:`pairs`, the tuple of ``_pair_list``; ``None`` after a put
        self._pairs: Optional[Tuple[Tuple[Key, Any], ...]] = None
        self.put(Key.initial(), initial_value)

    # ------------------------------------------------------------------
    def put(self, key: Key, value: Any) -> Version:
        """Insert (or overwrite) the version for ``key``."""
        version = Version(self.object_id, value, key)
        if key in self._by_key:  # a re-sent or repaired write: rare
            self._pair_list[list(self._by_key).index(key)] = (key, value)
        else:
            self._pair_list.append((key, value))
        self._by_key[key] = version
        self._pairs = None
        return version

    def get(self, key: Key) -> Optional[Version]:
        """The version written under ``key``, or ``None``."""
        return self._by_key.get(key)

    def latest(self) -> Version:
        """The most recently inserted version (arrival order at this server)."""
        return self._by_key[self._pair_list[-1][0]]

    def initial(self) -> Version:
        return self._by_key[self._pair_list[0][0]]

    def all_versions(self) -> Tuple[Version, ...]:
        """Every version, in insertion order (the ``Vals`` set)."""
        return tuple(self._by_key.values())

    def pairs(self) -> Tuple[Tuple[Key, Any], ...]:
        """``Vals`` as the ``(key, value)`` pairs a reply ships, in insertion
        order: algorithm C sends them on every read, so the tuple is copied
        from a list (in C) on the first read after a put and shared by every
        reply until the next one."""
        if self._pairs is None:
            self._pairs = tuple(self._pair_list)
        return self._pairs

    def keys(self) -> Tuple[Key, ...]:
        return tuple(self._by_key)

    def __len__(self) -> int:
        return len(self._by_key)

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
