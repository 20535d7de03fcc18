"""The replicated log data structure (the Raft log, 1-based indices).

:class:`ConsensusLog` is a pure data structure — no I/O, no randomness — so
its safety-critical operations (the match check, conflict-truncating merge
and commit/apply bookkeeping) are unit-testable in isolation and shared by
every :class:`~repro.consensus.coordinator.ReplicatedCoordinator` member.

Safety invariants maintained here:

* **Log matching** — :meth:`merge` only appends past a ``(prev_index,
  prev_term)`` pair that :meth:`matches` accepted, and truncates conflicting
  suffixes; two logs that agree on an index+term therefore agree on the whole
  prefix.
* **Commit stability** — committed entries are never truncated; a merge that
  would rewrite a committed entry raises :class:`~repro.ioa.errors.
  SimulationError` (it would mean election safety was already broken).
* **Apply order** — :meth:`take_unapplied` hands out committed entries
  exactly once, in index order.

Compaction (PR 9): a log may discard its *applied* prefix behind a state-
machine snapshot (:meth:`compact` / :meth:`install_snapshot`).  Indices stay
global — ``snapshot_index`` is the base the in-memory suffix hangs off —
and queries into the discarded prefix raise :class:`CompactedLogError`
loudly instead of answering from thin air.  Every mutation writes through
to the log's :class:`StableStore`: a durable backend
(:mod:`repro.persist.store`) keeps term/vote/log across a crash (Raft's
persistence rules), and the base class, a volatile member's store, keeps
nothing.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..ioa.errors import SimulationError


class CompactedLogError(SimulationError):
    """A query addressed an index that was compacted away behind a snapshot."""


class StableStore:
    """A member's stable storage; this base class is the store that keeps
    nothing, the one a volatile member writes to.

    The write API mirrors what a member persists (Raft figure 2's
    "persistent state" plus the snapshot):

    * ``save_meta(term, voted_for)`` — election state, written before any
      vote or candidacy takes effect;
    * ``log_append(index, entry)`` / ``log_truncate(from_index)`` — the log,
      written through on every append/merge;
    * ``save_commit(index)`` — the commit cursor (recovery could re-learn it
      from the leader; persisting it lets a recovered member replay its
      applied state at once);
    * ``save_snapshot(snapshot)`` — a checkpoint of the applied state
      machine; entries at or below ``snapshot["index"]`` are discarded from
      the store (log compaction).

    Here each save drops what it is given and each load returns the empty
    value, so recovering from this store yields a blank member: exactly
    what crash-with-amnesia leaves.  The durable backends
    (:mod:`repro.persist`) override every method and set ``durable``.
    """

    backend = "none"
    #: whether what is saved survives ``forget()``
    durable = False

    def __init__(self) -> None:
        #: write counters (observability / benchmarks; no behaviour hangs
        #: off them)
        self.meta_saves = 0
        self.appends = 0
        self.truncations = 0
        self.commit_saves = 0
        self.snapshots = 0

    def save_meta(self, term: int, voted_for: Optional[str]) -> None:
        pass

    def load_meta(self) -> Optional[Tuple[int, Optional[str]]]:
        return None

    def log_append(self, index: int, entry: Any) -> None:
        pass

    def log_truncate(self, from_index: int) -> None:
        pass

    def load_entries(self) -> Tuple[Tuple[int, Any], ...]:
        """The stored ``(index, entry)`` suffix, ascending by index."""
        return ()

    def save_commit(self, index: int) -> None:
        pass

    def load_commit(self) -> int:
        return 0

    def save_snapshot(self, snapshot: Mapping[str, Any]) -> None:
        """Persist a checkpoint and discard entries <= ``snapshot['index']``."""

    def load_snapshot(self) -> Optional[Dict[str, Any]]:
        return None

    def is_empty(self) -> bool:
        return True


#: Entry type appended by a freshly elected leader to commit prior-term
#: entries (Raft §5.4.2: a leader only counts replicas for entries of its
#: own term, so it commits the no-op and everything before it).
NOOP = "noop"


@dataclass(frozen=True)
class LogEntry:
    """One replicated coordinator request.

    ``request_id`` is the dedup key (``"<msg_type>/<txn>"``): re-proposed
    entries after a leader change may appear twice in the log, and the apply
    path uses the id to apply the state-machine transition exactly once
    (replies are memoized and re-sent instead).  ``proposed_at`` is the
    virtual time the entry was (re)proposed, which is what commit-latency
    metrics measure against.
    """

    term: int
    request_id: str
    msg_type: str
    payload: Tuple[Tuple[str, Any], ...] = ()
    client: str = ""
    proposed_at: int = 0

    def is_noop(self) -> bool:
        return self.msg_type == NOOP


class ConsensusLog:
    """Append/commit/apply state of one consensus member."""

    def __init__(self, store: Optional[StableStore] = None) -> None:
        self._entries: List[LogEntry] = []
        self.commit_index = 0
        self.last_applied = 0
        #: highest index discarded behind a snapshot (0 = nothing compacted);
        #: the in-memory suffix holds global indices ``snapshot_index+1 ..
        #: snapshot_index+len(_entries)``
        self.snapshot_index = 0
        #: term of the entry at ``snapshot_index`` (Raft keeps it so the
        #: match check still works at the snapshot boundary)
        self.snapshot_term = 0
        #: cumulative entries discarded by compaction (stats only)
        self.compacted_entries = 0
        #: every mutation writes through to this store
        self._store = store or StableStore()
        #: request-id refcounts over ``_entries`` (re-proposed entries may
        #: legitimately appear twice), making :meth:`contains_request` O(1)
        #: instead of a full-log scan per client request.
        self._request_ids: Dict[str, int] = {}
        #: msg_type -> the global indices of its entries in ``_entries``,
        #: ascending: :meth:`newest` bisects instead of scanning back through
        #: a log that, uncompacted, grows for the whole run
        self._indices: Dict[str, List[int]] = {}

    def _register(self, entry: LogEntry, index: int) -> None:
        """Index a new last entry (``index`` = its global index)."""
        ids = self._request_ids
        ids[entry.request_id] = ids.get(entry.request_id, 0) + 1
        self._indices.setdefault(entry.msg_type, []).append(index)

    def _unregister(self, entry: LogEntry) -> None:
        ids = self._request_ids
        count = ids.get(entry.request_id, 0) - 1
        if count > 0:
            ids[entry.request_id] = count
        else:
            ids.pop(entry.request_id, None)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def entries(self) -> Tuple[LogEntry, ...]:
        """The retained suffix (everything above ``snapshot_index``)."""
        return tuple(self._entries)

    @property
    def last_index(self) -> int:
        return self.snapshot_index + len(self._entries)

    @property
    def last_term(self) -> int:
        return self._entries[-1].term if self._entries else self.snapshot_term

    def entry(self, index: int) -> LogEntry:
        if index < 1 or index > self.last_index:
            raise SimulationError(f"log index {index} out of range [1, {self.last_index}]")
        if index <= self.snapshot_index:
            raise CompactedLogError(
                f"log index {index} was compacted away "
                f"(snapshot through {self.snapshot_index})"
            )
        return self._entries[index - self.snapshot_index - 1]

    def term_at(self, index: int) -> int:
        """Term of the entry at ``index`` (0 for the empty prefix)."""
        if index == 0:
            return 0
        if index == self.snapshot_index:
            return self.snapshot_term
        return self.entry(index).term

    def entries_from(self, index: int) -> Tuple[LogEntry, ...]:
        """All entries at indices >= ``index`` (which must be above the
        snapshot; callers ship a snapshot instead when it is not)."""
        return tuple(self._entries[max(0, index - self.snapshot_index - 1):])

    def contains_request(self, request_id: str) -> bool:
        return request_id in self._request_ids

    def committed_entries(self) -> Tuple[LogEntry, ...]:
        """The committed *retained* entries (above the snapshot)."""
        return tuple(self._entries[: max(0, self.commit_index - self.snapshot_index)])

    def newest(self, msg_type: str, through: int) -> Tuple[int, Optional[LogEntry]]:
        """The newest retained entry of ``msg_type`` at an index <= ``through``,
        as ``(index, entry)``; ``(0, None)`` when the suffix holds none."""
        indices = self._indices.get(msg_type)
        position = bisect_right(indices, through) if indices else 0
        if not position:
            return 0, None
        index = indices[position - 1]
        return index, self._entries[index - self.snapshot_index - 1]

    # ------------------------------------------------------------------
    # Leader-side append
    # ------------------------------------------------------------------
    def append(self, entry: LogEntry) -> int:
        """Append a new entry (leader path); returns its 1-based index."""
        self._entries.append(entry)
        index = self.last_index
        self._register(entry, index)
        self._store.log_append(index, entry)
        return index

    # ------------------------------------------------------------------
    # Follower-side replication
    # ------------------------------------------------------------------
    def matches(self, prev_index: int, prev_term: int) -> bool:
        """Whether this log contains ``(prev_index, prev_term)``."""
        if prev_index == 0:
            return True
        if prev_index < self.snapshot_index:
            # Inside the compacted prefix: those entries were committed and
            # applied here, and leader completeness guarantees any current
            # leader's log agrees with a committed prefix.
            return True
        if prev_index == self.snapshot_index:
            return prev_term == self.snapshot_term
        if prev_index > self.last_index:
            return False
        return self.term_at(prev_index) == prev_term

    def merge(self, prev_index: int, entries: Tuple[LogEntry, ...]) -> None:
        """Install ``entries`` after ``prev_index``, truncating conflicts.

        Callers must have checked :meth:`matches` first.  An entry that is
        already present with the same term is left untouched (idempotent
        re-delivery); a term conflict truncates the suffix from that point.
        Entries at or below ``snapshot_index`` are skipped — the snapshot
        already covers that committed prefix.
        """
        index = prev_index
        for entry in entries:
            index += 1
            if index <= self.snapshot_index:
                continue
            if index <= self.last_index:
                if self.term_at(index) == entry.term:
                    continue
                if index <= self.commit_index:
                    raise SimulationError(
                        f"consensus log asked to truncate committed entry {index} "
                        f"(commit_index={self.commit_index}): election safety is broken"
                    )
                position = index - self.snapshot_index - 1
                for truncated in self._entries[position:]:
                    self._unregister(truncated)
                del self._entries[position:]
                for indices in self._indices.values():
                    del indices[bisect_left(indices, index):]
                self._store.log_truncate(index)
            self._entries.append(entry)
            self._register(entry, index)
            self._store.log_append(index, entry)

    # ------------------------------------------------------------------
    # Commit / apply bookkeeping
    # ------------------------------------------------------------------
    def advance_commit(self, index: int) -> int:
        """Raise the commit index (clamped to the log end); returns it."""
        index = min(int(index), self.last_index)
        if index > self.commit_index:
            self.commit_index = index
            self._store.save_commit(index)
        return self.commit_index

    def take_unapplied(self) -> Tuple[Tuple[int, LogEntry], ...]:
        """Committed-but-unapplied ``(index, entry)`` pairs, advancing the
        apply cursor — each committed entry is handed out exactly once."""
        if self.last_applied >= self.commit_index:
            return ()
        base = self.snapshot_index
        newly = tuple(
            (i, self._entries[i - base - 1])
            for i in range(self.last_applied + 1, self.commit_index + 1)
        )
        self.last_applied = self.commit_index
        return newly

    # ------------------------------------------------------------------
    # Compaction / recovery
    # ------------------------------------------------------------------
    def _drop_prefix(self, through: int) -> int:
        drop = through - self.snapshot_index
        for entry in self._entries[:drop]:
            self._unregister(entry)
        del self._entries[:drop]
        for indices in self._indices.values():
            del indices[: bisect_right(indices, through)]
        self.compacted_entries += drop
        return drop

    def compact(self, snapshot: Mapping[str, Any]) -> int:
        """Discard the applied prefix behind ``snapshot`` (a checkpoint of
        the state machine at ``snapshot['index']``); returns entries dropped.

        Only the *applied* prefix may go — applied implies committed, and
        committed entries are the only ones whose loss the snapshot covers.
        """
        through = int(snapshot["index"])
        if through <= self.snapshot_index:
            return 0
        if through > self.last_applied:
            raise SimulationError(
                f"cannot compact through {through}: only the applied prefix "
                f"(last_applied={self.last_applied}) may be discarded"
            )
        dropped = self._drop_prefix(through)
        self.snapshot_index = through
        self.snapshot_term = int(snapshot["term"])
        self._store.save_snapshot(dict(snapshot))
        return dropped

    def install_snapshot(self, snapshot: Mapping[str, Any]) -> bool:
        """Adopt a leader-shipped snapshot (Raft InstallSnapshot).

        Returns whether the *state machine* must be restored from it — False
        when this log had already applied past the snapshot index (then only
        the prefix is dropped).  If the log holds the snapshot index with a
        matching term the suffix past it is retained; otherwise the whole
        log is replaced by the snapshot.
        """
        index = int(snapshot["index"])
        term = int(snapshot["term"])
        if index <= self.snapshot_index:
            return False
        needs_restore = index > self.last_applied
        if index <= self.last_index and self.term_at(index) == term:
            self._drop_prefix(index)
        else:
            for entry in self._entries:
                self._unregister(entry)
            self.compacted_entries += len(self._entries)
            self._entries = []
            self._indices = {}
            self._store.log_truncate(index + 1)
        self.snapshot_index = index
        self.snapshot_term = term
        self.commit_index = max(self.commit_index, index)
        self.last_applied = max(self.last_applied, index)
        self._store.save_snapshot(dict(snapshot))
        return needs_restore

    def restore(
        self,
        snapshot_index: int,
        snapshot_term: int,
        entries: Tuple[Tuple[int, LogEntry], ...],
        commit_index: int,
    ) -> None:
        """Reload from stable storage (recovery path — no write-back).

        ``entries`` is the persisted ``(index, entry)`` suffix; the apply
        cursor restarts at the snapshot (the recovered state machine is the
        snapshot's), so the caller replays the committed suffix."""
        self._entries = []
        self._request_ids = {}
        self._indices = {}
        self.snapshot_index = int(snapshot_index)
        self.snapshot_term = int(snapshot_term)
        expected = self.snapshot_index + 1
        for index, entry in entries:
            if index != expected:
                raise SimulationError(
                    f"stable store log is not contiguous: expected index "
                    f"{expected}, got {index}"
                )
            self._entries.append(entry)
            self._register(entry, index)
            expected += 1
        self.commit_index = min(max(int(commit_index), self.snapshot_index), self.last_index)
        self.last_applied = self.snapshot_index

    # ------------------------------------------------------------------
    # Election support
    # ------------------------------------------------------------------
    def up_to_date(self, last_index: int, last_term: int) -> bool:
        """Raft's voting restriction: is ``(last_term, last_index)`` at least
        as up-to-date as this log?  Guarantees a new leader holds every
        committed entry (leader completeness)."""
        return (last_term, last_index) >= (self.last_term, self.last_index)

    def describe(self) -> str:
        base = (
            f"ConsensusLog(len={self.last_index}, commit={self.commit_index}, "
            f"applied={self.last_applied}"
        )
        if self.snapshot_index:
            base += f", snapshot@{self.snapshot_index}"
        return base + ")"
