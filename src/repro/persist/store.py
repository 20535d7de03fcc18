"""Durable stable storage for consensus members.

Raft's safety argument assumes a member's term, vote and log survive
crashes.  Every :class:`~repro.consensus.coordinator.ReplicatedCoordinator`
writes term/vote/log/commit *through* to its :class:`StableStore` before
acting, and ``forget()`` (crash-with-amnesia) recovers from it.  The base
class lives beside the log in :mod:`repro.consensus.log` and keeps nothing,
so a volatile member recovers blank — the double-vote hazard the tests pin.
A durable backend restores the assumption:

* :class:`SimStableStore` (here) — plain in-memory state that survives
  ``forget()`` because it lives *outside* the automaton's volatile state.
  Deterministic and trace-invisible: attaching it changes no messages, no
  timers, no scheduling.
* :class:`~repro.persist.filestore.FileStableStore` — an append-only
  journal on disk with hash-chain integrity, for long real-clock runs and
  restart-from-disk recovery across builds.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Tuple

from ..consensus.log import StableStore


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
    durable = True

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
