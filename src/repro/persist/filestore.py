"""File-backed stable storage: an append-only journal with hash-chain integrity.

Each write becomes one JSON line ``{"h": ..., "p": ..., "r": record}`` where
``h = sha256(p + canonical_json(record))`` and ``p`` is the previous line's
``h`` (the genesis record links to a fixed seed).  The chain makes silent
corruption impossible to miss: flipping a bit anywhere re-hashes that line,
which breaks its own digest *and* unlinks every later line.

Failure handling is deliberately asymmetric, matching what each failure
means on a real disk:

* a **torn tail** — the final line is incomplete or unparseable, the classic
  crash-mid-write artifact — is recovered from: the store silently drops the
  partial record and resumes from the last intact one (``recovered_tail`` is
  set so tests and operators can see it happened);
* **anything else** — an unparseable line with valid records after it, a
  digest mismatch, a broken link — raises :class:`IntegrityError`.  Data
  that fails its checksum is never partially trusted.

Compaction rewrites the journal: ``save_snapshot`` drops the covered entries
and atomically replaces the file (temp file + ``os.replace``) with a fresh
chain containing just the snapshot, the surviving suffix and the current
meta/commit records — this is what bounds journal size on long runs
(``compaction_ratio`` in the persistence benchmark).

In-sim values (``LogEntry``, ``Key``, nested tuples) round-trip through a
small tagged-JSON codec; plain scalars pass through untouched.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..consensus.log import LogEntry
from ..txn.objects import Key
from .store import SimStableStore, StableStore

#: link target of the first record in a journal
GENESIS = "repro-persist-v1"


class IntegrityError(Exception):
    """The journal's hash chain does not verify: corruption, not a torn tail."""


# ----------------------------------------------------------------------
# Tagged-JSON codec for in-sim values
# ----------------------------------------------------------------------
def encode_value(value: Any) -> Any:
    """JSON-encodable form of an in-sim value (tuples/Key/LogEntry tagged)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Key):
        return {"~": "key", "v": [value.z, value.writer]}
    if isinstance(value, LogEntry):
        return {
            "~": "entry",
            "v": [
                value.term,
                value.request_id,
                value.msg_type,
                encode_value(value.payload),
                value.client,
                value.proposed_at,
            ],
        }
    if isinstance(value, tuple):
        return {"~": "tuple", "v": [encode_value(item) for item in value]}
    if isinstance(value, list):
        return {"~": "list", "v": [encode_value(item) for item in value]}
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"stable storage cannot encode dict key {key!r}")
        return {"~": "dict", "v": [[key, encode_value(item)] for key, item in value.items()]}
    raise TypeError(f"stable storage cannot encode {type(value).__name__}: {value!r}")


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if not isinstance(value, dict):
        return value
    tag = value.get("~")
    if tag == "key":
        z, writer = value["v"]
        return Key(z=int(z), writer=writer)
    if tag == "entry":
        term, request_id, msg_type, payload, client, proposed_at = value["v"]
        return LogEntry(
            term=int(term),
            request_id=request_id,
            msg_type=msg_type,
            payload=decode_value(payload),
            client=client,
            proposed_at=int(proposed_at),
        )
    if tag == "tuple":
        return tuple(decode_value(item) for item in value["v"])
    if tag == "list":
        return [decode_value(item) for item in value["v"]]
    if tag == "dict":
        return {key: decode_value(item) for key, item in value["v"]}
    raise IntegrityError(f"journal record carries unknown value tag {tag!r}")


def _canonical(record: Mapping[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _chain_hash(prev: str, record: Mapping[str, Any]) -> str:
    return hashlib.sha256((prev + _canonical(record)).encode("utf-8")).hexdigest()


class FileStableStore(StableStore):
    """Append-only hash-chained journal backend for :class:`StableStore`.

    State queries are served from an in-memory :class:`SimStableStore`
    mirror that is rebuilt from the journal on open and updated on every
    write — the file is the durability layer, the mirror is the read path.
    """

    backend = "file"
    durable = True

    def __init__(self, path: Any, fsync: bool = False) -> None:
        super().__init__()
        self.path = Path(path)
        self.fsync = bool(fsync)
        #: set when opening dropped a torn final record
        self.recovered_tail = False
        #: bytes before/after the last compacting rewrite (benchmark hook)
        self.last_rewrite: Optional[Tuple[int, int]] = None
        self._mirror = SimStableStore()
        self._tip = GENESIS
        self._handle = None
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.path.exists():
            self._load()

    # ------------------------------------------------------------------
    # Journal I/O
    # ------------------------------------------------------------------
    def _load(self) -> None:
        raw_lines = self.path.read_bytes().split(b"\n")
        if raw_lines and raw_lines[-1] == b"":
            raw_lines.pop()
        records: List[Dict[str, Any]] = []
        tip = GENESIS
        for position, raw in enumerate(raw_lines):
            try:
                line = json.loads(raw.decode("utf-8"))
                if not isinstance(line, dict) or "h" not in line or "r" not in line:
                    raise ValueError("not a journal line")
            except (ValueError, UnicodeDecodeError):
                if position == len(raw_lines) - 1:
                    # Torn tail: the crash-mid-write artifact.  Drop the
                    # partial record and trim the file to the intact prefix.
                    self.recovered_tail = True
                    self._rewrite_raw(raw_lines[:position])
                    break
                raise IntegrityError(
                    f"{self.path.name}: journal line {position + 1} is unreadable but "
                    f"{len(raw_lines) - position - 1} intact line(s) follow — "
                    "mid-chain corruption, refusing to recover"
                ) from None
            if line.get("p") != tip or _chain_hash(tip, line["r"]) != line["h"]:
                raise IntegrityError(
                    f"{self.path.name}: hash chain breaks at journal line {position + 1} "
                    "— the record does not match its digest, refusing to recover"
                )
            tip = line["h"]
            records.append(line["r"])
        self._tip = tip
        for record in records:
            self._replay(record)

    def _replay(self, record: Mapping[str, Any]) -> None:
        kind = record.get("k")
        if kind == "meta":
            self._mirror.save_meta(int(record["t"]), record["v"])
        elif kind == "entry":
            self._mirror.log_append(int(record["i"]), decode_value(record["e"]))
        elif kind == "trunc":
            self._mirror.log_truncate(int(record["i"]))
        elif kind == "commit":
            self._mirror.save_commit(int(record["i"]))
        elif kind == "snap":
            self._mirror.save_snapshot(decode_value(record["s"]))
        else:
            raise IntegrityError(f"{self.path.name}: unknown journal record kind {kind!r}")

    def _append_record(self, record: Mapping[str, Any]) -> None:
        line = {"h": _chain_hash(self._tip, record), "p": self._tip, "r": record}
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(json.dumps(line, sort_keys=True, separators=(",", ":")) + "\n")
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        self._tip = line["h"]

    def _rewrite_raw(self, raw_lines: List[bytes]) -> None:
        """Atomically replace the journal with the given raw lines."""
        self._close_handle()
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        payload = b"".join(raw + b"\n" for raw in raw_lines)
        with open(tmp, "wb") as handle:
            handle.write(payload)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, self.path)

    def _rewrite_compacted(self) -> None:
        """Rewrite the journal as a fresh chain holding just current state."""
        before = self.path.stat().st_size if self.path.exists() else 0
        records: List[Dict[str, Any]] = []
        snapshot = self._mirror.load_snapshot()
        if snapshot is not None:
            records.append({"k": "snap", "s": encode_value(snapshot)})
        meta = self._mirror.load_meta()
        if meta is not None:
            records.append({"k": "meta", "t": meta[0], "v": meta[1]})
        for index, entry in self._mirror.load_entries():
            records.append({"k": "entry", "i": index, "e": encode_value(entry)})
        commit = self._mirror.load_commit()
        if commit:
            records.append({"k": "commit", "i": commit})
        tip = GENESIS
        raw_lines: List[bytes] = []
        for record in records:
            line = {"h": _chain_hash(tip, record), "p": tip, "r": record}
            raw_lines.append(json.dumps(line, sort_keys=True, separators=(",", ":")).encode("utf-8"))
            tip = line["h"]
        self._rewrite_raw(raw_lines)
        self._tip = tip
        self.last_rewrite = (before, self.path.stat().st_size)

    def _close_handle(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def close(self) -> None:
        self._close_handle()

    # ------------------------------------------------------------------
    # StableStore interface: write through to mirror + journal
    # ------------------------------------------------------------------
    def save_meta(self, term: int, voted_for: Optional[str]) -> None:
        if self._mirror.load_meta() == (int(term), voted_for):
            return  # idempotent re-save: no journal churn
        self._mirror.save_meta(term, voted_for)
        self._append_record({"k": "meta", "t": int(term), "v": voted_for})
        self.meta_saves += 1

    def load_meta(self) -> Optional[Tuple[int, Optional[str]]]:
        return self._mirror.load_meta()

    def log_append(self, index: int, entry: Any) -> None:
        self._mirror.log_append(index, entry)
        self._append_record({"k": "entry", "i": int(index), "e": encode_value(entry)})
        self.appends += 1

    def log_truncate(self, from_index: int) -> None:
        self._mirror.log_truncate(from_index)
        self._append_record({"k": "trunc", "i": int(from_index)})
        self.truncations += 1

    def load_entries(self) -> Tuple[Tuple[int, Any], ...]:
        return self._mirror.load_entries()

    def save_commit(self, index: int) -> None:
        if int(index) <= self._mirror.load_commit():
            return
        self._mirror.save_commit(index)
        self._append_record({"k": "commit", "i": int(index)})
        self.commit_saves += 1

    def load_commit(self) -> int:
        return self._mirror.load_commit()

    def save_snapshot(self, snapshot: Mapping[str, Any]) -> None:
        self._mirror.save_snapshot(snapshot)
        self._rewrite_compacted()
        self.snapshots += 1

    def load_snapshot(self) -> Optional[Dict[str, Any]]:
        return self._mirror.load_snapshot()

    def is_empty(self) -> bool:
        return self._mirror.is_empty()
