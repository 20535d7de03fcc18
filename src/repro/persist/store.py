"""Stable storage for consensus members: the ``StableStore`` interface.

Raft's safety argument assumes a member's term, vote and log survive
crashes.  The simulator's crash-with-amnesia hook (``forget()``) deliberately
violates that assumption — which is honest about the hazard (the double-vote
tests pin it) but forbids amnesiac members from ever rejoining safely.  A
:class:`StableStore` restores the assumption: a
:class:`~repro.consensus.coordinator.ReplicatedCoordinator` with a store
attached writes term/vote/log/commit *through* to it before acting, and
``forget()`` recovers from it instead of starting blank.

Two backends implement the interface:

* :class:`SimStableStore` (here) — plain in-memory state that survives
  ``forget()`` because it lives *outside* the automaton's volatile state.
  Deterministic and trace-invisible: attaching it changes no messages, no
  timers, no scheduling.
* :class:`~repro.persist.filestore.FileStableStore` — an append-only
  journal on disk with hash-chain integrity, for long real-clock runs and
  restart-from-disk recovery across builds.

The write API mirrors what the coordinator persists (Raft figure 2's
"persistent state" plus the snapshot):

* ``save_meta(term, voted_for)`` — election state, written before any vote
  or candidacy takes effect;
* ``log_append(index, entry)`` / ``log_truncate(from_index)`` — the log,
  written through on every append/merge;
* ``save_commit(index)`` — the commit cursor (an optimisation: recovery
  could re-learn it from the leader, persisting it lets a recovered member
  replay its applied state immediately);
* ``save_snapshot(snapshot)`` — a checkpoint of the applied state machine;
  entries at or below ``snapshot["index"]`` are discarded from the store
  (log compaction).
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Tuple


class StableStore:
    """Interface + bookkeeping shared by every stable-storage backend."""

    backend = "abstract"

    def __init__(self) -> None:
        #: write counters (observability / benchmarks; no behaviour hangs
        #: off them)
        self.meta_saves = 0
        self.appends = 0
        self.truncations = 0
        self.commit_saves = 0
        self.snapshots = 0

    # -- election state -------------------------------------------------
    def save_meta(self, term: int, voted_for: Optional[str]) -> None:
        raise NotImplementedError

    def load_meta(self) -> Optional[Tuple[int, Optional[str]]]:
        raise NotImplementedError

    # -- log ------------------------------------------------------------
    def log_append(self, index: int, entry: Any) -> None:
        raise NotImplementedError

    def log_truncate(self, from_index: int) -> None:
        raise NotImplementedError

    def load_entries(self) -> Tuple[Tuple[int, Any], ...]:
        """The stored ``(index, entry)`` suffix, ascending by index."""
        raise NotImplementedError

    # -- commit cursor --------------------------------------------------
    def save_commit(self, index: int) -> None:
        raise NotImplementedError

    def load_commit(self) -> int:
        raise NotImplementedError

    # -- checkpoint -----------------------------------------------------
    def save_snapshot(self, snapshot: Mapping[str, Any]) -> None:
        """Persist a checkpoint and discard entries <= ``snapshot['index']``."""
        raise NotImplementedError

    def load_snapshot(self) -> Optional[Dict[str, Any]]:
        raise NotImplementedError

    # -- introspection --------------------------------------------------
    def is_empty(self) -> bool:
        raise NotImplementedError


class SimStableStore(StableStore):
    """In-simulation stable storage: survives ``forget()``, changes nothing.

    The store is attached to the member from *outside* its volatile state
    (the build plumbing holds it in a
    :class:`~repro.persist.plane.PersistencePlane`), so a crash-with-amnesia
    wipes the automaton but not the store — exactly the distinction between
    RAM and disk that Raft's persistence rules draw.  Values are kept as the
    in-sim objects themselves (``LogEntry`` and friends are immutable);
    snapshot payloads are shallow-copied on the way in and out so neither
    side aliases the other's mutable reply cache.
    """

    backend = "sim"

    def __init__(self) -> None:
        super().__init__()
        self._meta: Optional[Tuple[int, Optional[str]]] = None
        self._entries: Dict[int, Any] = {}
        self._commit = 0
        self._snapshot: Optional[Dict[str, Any]] = None

    # -- election state -------------------------------------------------
    def save_meta(self, term: int, voted_for: Optional[str]) -> None:
        meta = (int(term), voted_for)
        if meta == self._meta:
            return
        self._meta = meta
        self.meta_saves += 1

    def load_meta(self) -> Optional[Tuple[int, Optional[str]]]:
        return self._meta

    # -- log ------------------------------------------------------------
    def log_append(self, index: int, entry: Any) -> None:
        self._entries[int(index)] = entry
        self.appends += 1

    def log_truncate(self, from_index: int) -> None:
        from_index = int(from_index)
        for index in [i for i in self._entries if i >= from_index]:
            del self._entries[index]
        self.truncations += 1

    def load_entries(self) -> Tuple[Tuple[int, Any], ...]:
        return tuple(sorted(self._entries.items()))

    # -- commit cursor --------------------------------------------------
    def save_commit(self, index: int) -> None:
        if int(index) > self._commit:
            self._commit = int(index)
            self.commit_saves += 1

    def load_commit(self) -> int:
        return self._commit

    # -- checkpoint -----------------------------------------------------
    def _copy_snapshot(self, snapshot: Mapping[str, Any]) -> Dict[str, Any]:
        copied = dict(snapshot)
        copied["replies"] = dict(copied.get("replies", {}))
        return copied

    def save_snapshot(self, snapshot: Mapping[str, Any]) -> None:
        self._snapshot = self._copy_snapshot(snapshot)
        through = int(self._snapshot.get("index", 0))
        for index in [i for i in self._entries if i <= through]:
            del self._entries[index]
        self.snapshots += 1

    def load_snapshot(self) -> Optional[Dict[str, Any]]:
        if self._snapshot is None:
            return None
        return self._copy_snapshot(self._snapshot)

    # -- introspection --------------------------------------------------
    def is_empty(self) -> bool:
        return (
            self._meta is None
            and not self._entries
            and self._commit == 0
            and self._snapshot is None
        )
