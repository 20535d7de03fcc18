"""The coordinator state machines that the consensus log replicates.

The metadata the paper's bounded-latency algorithms route through one
designated server comes in two shapes:

* the append-only **``List``** of algorithms B and C (Pseudocodes 5-7):
  per WRITE transaction, which objects it updated and under which key,
  answering ``update-coor`` (append, returning the tag) and ``get-tag-arr``
  (per requested object, the key of the newest entry updating it; for C,
  the entries that wrote it from the List length its reader saw last on);
* the monotonic **timestamp counter** of the OCC baseline, answering
  ``get-ts``.

Both are factored out here as plain deterministic state machines so that the
single-copy coordinator server (``consensus_factor=1``; see
:class:`~repro.protocols.coordinated.CoordinatedServer`) and the replicated
:class:`~repro.consensus.coordinator.ReplicatedCoordinator` members apply
*one shared implementation* — state-machine safety across the group is then
Raft's apply-in-commit-order guarantee plus determinism of these transitions.

A state machine maps ``(msg_type, payload) -> (reply_type, reply_payload)``;
it never does I/O and never consults time or randomness.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..ioa.errors import SimulationError
from ..txn.objects import Key


Bits = Tuple[Tuple[str, int], ...]


class CoordinatorList:
    """The coordinator's append-only ``List`` (1-based positions).

    The initial entry stands for the initial versions (``κ₀`` updating every
    object), exactly as in the pseudocode; the tag of a WRITE is the length
    of the list after its entry is appended.

    Each entry is stored once, as the immutable ``(κ, bits)`` pair the
    checkpoint payload carries: ``bits`` is the sorted ``((object, 0|1), …)``
    tuple, one shared tuple per distinct pattern (at most ``2**len(objects)``).
    Entries are never mutated, so :meth:`snapshot` shares them with the live
    list instead of copying them, and so does every checkpoint or stable-store
    record built from it.
    """

    def __init__(self, objects: Sequence[str]) -> None:
        self.objects = tuple(objects)
        self._sorted = tuple(sorted(self.objects))
        self._patterns: Dict[Bits, Bits] = {}
        self.entries: List[Tuple[Key, Bits]] = []
        self.reset()

    def _bits(self, written: Mapping[str, Any]) -> Bits:
        """The shared ``bits`` tuple for the objects ``written`` marks."""
        bits = tuple((obj, int(written.get(obj, 0))) for obj in self._sorted)
        return self._patterns.setdefault(bits, bits)

    def reset(self) -> None:
        """(Re)initialise to the single initial entry — the amnesia hook."""
        self.entries = [(Key.initial(), self._bits(dict.fromkeys(self.objects, 1)))]

    def snapshot(self) -> Tuple[Tuple[Key, Bits], ...]:
        """The list as a tuple (checkpoint payload), sharing its entries."""
        return tuple(self.entries)

    def restore(self, state: Sequence[Tuple[Key, Bits]]) -> None:
        """Replace the list with a :meth:`snapshot` payload, keeping its
        entries (another member's, when a leader ships its checkpoint) and
        their ``bits`` as this list's shared tuples."""
        patterns: Dict[Bits, Bits] = {}
        entries = []
        for entry in state:
            key, bits = entry
            shared = patterns.setdefault(bits, bits)
            entries.append(entry if bits is shared else (key, shared))
        self._patterns, self.entries = patterns, entries

    # ------------------------------------------------------------------
    def append(self, key: Key, bits: Mapping[str, Any]) -> int:
        """Record that the WRITE keyed ``key`` updated ``bits``; returns its tag."""
        self.entries.append((key, self._bits(bits)))
        return len(self.entries)

    def latest_index_for(self, object_id: str, length: Optional[int] = None) -> int:
        """1-based index of the newest entry that wrote ``object_id`` (among the first ``length``)."""
        written = (object_id, 1)
        for position in range((len(self.entries) if length is None else length) - 1, -1, -1):
            if written in self.entries[position][1]:
                return position + 1
        raise SimulationError(f"the List has no entry for object {object_id!r}")

    def tag_array_for(self, read_set: Sequence[str]) -> Tuple[int, Dict[str, Key]]:
        """``(t_r, {object: κ})`` for the requested read set."""
        keys: Dict[str, Key] = {}
        tag = 1
        for object_id in read_set:
            index = self.latest_index_for(object_id)
            tag = max(tag, index)
            keys[object_id] = self.entries[index - 1][0]
        return tag, keys

    def tag_fields(self, request: Mapping[str, Any]) -> Dict[str, Any]:
        """The tag fields of a reply to a ``get-tag-arr`` ``request``: B's tag
        array (``tag``, ``keys``), or, for C's reader, which sends the List
        length ``since`` its previous reply reported, ``prefixes``: ``(since,
        length, ((object, ((position, κ), …)), …))``, per requested object
        its newest entry among the first ``since`` and every later entry that
        wrote it."""
        read_set, since = tuple(request.get("read_set", ())), request.get("since")
        if since is None:
            tag, keys = self.tag_array_for(read_set)
            return {"tag": tag, "keys": tuple(keys.items())}
        since = min(since, len(self.entries))  # a List reset by amnesia is shorter
        named: Dict[str, List[Tuple[int, Key]]] = {}
        for object_id in read_set:
            index = self.latest_index_for(object_id, since)
            named[object_id] = [(index, self.entries[index - 1][0])]
        for position, (key, bits) in enumerate(self.entries[since:], since + 1):
            for object_id, written in bits:
                if written and object_id in named:
                    named[object_id].append((position, key))
        return {"prefixes": (since, len(self.entries), tuple((o, tuple(keys)) for o, keys in named.items()))}

    def __len__(self) -> int:
        return len(self.entries)


# ----------------------------------------------------------------------
# State-machine interface and the two coordinator machines
# ----------------------------------------------------------------------
class CoordinatorStateMachine:
    """Deterministic request → reply transition function over private state."""

    #: the client message types this machine serves (the consensus members
    #: treat exactly these as replicable requests)
    request_types: Tuple[str, ...] = ()

    #: the subset of ``request_types`` whose transitions are *pure* — no
    #: state change, reply derived from current state only.  Exactly these
    #: are eligible for the lease-holder's local-read fast path
    #: (``BuildConfig.leases``); a mutating type here would fork the
    #: replicas' states, so machines must declare reads explicitly.
    read_only_types: Tuple[str, ...] = ()

    def apply(self, msg_type: str, payload: Mapping[str, Any]) -> Tuple[str, Dict[str, Any]]:
        raise NotImplementedError

    def reply_phase(self, msg_type: str) -> str:
        """Trace phase label for the reply to ``msg_type``."""
        return ""

    def reset(self) -> None:
        """Drop all state (the crash-with-amnesia hook)."""
        raise NotImplementedError

    def snapshot(self) -> Any:
        """An immutable, deterministic copy of the full state — the
        checkpoint payload the consensus log compacts behind.  Must satisfy
        ``restore(snapshot())`` ≡ identity."""
        raise NotImplementedError

    def restore(self, state: Any) -> None:
        """Replace all state with a :meth:`snapshot` payload (recovery and
        snapshot-install both land here)."""
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


class ListStateMachine(CoordinatorStateMachine):
    """The ``List`` service of algorithms B and C."""

    request_types = ("update-coor", "get-tag-arr")
    #: ``get-tag-arr`` only inspects the list — the lease fast path serves it
    read_only_types = ("get-tag-arr",)
    _PHASES = {"update-coor": "update-coor", "get-tag-arr": "get-tag-array"}

    def __init__(self, objects: Sequence[str]) -> None:
        self.list = CoordinatorList(objects)

    def apply(self, msg_type: str, payload: Mapping[str, Any]) -> Tuple[str, Dict[str, Any]]:
        if msg_type == "update-coor":
            tag = self.list.append(payload["key"], dict(payload.get("bits", ())))
            return "ack-coor", {"txn": payload.get("txn"), "tag": tag}
        if msg_type == "get-tag-arr":
            return "tag-arr-reply", {"txn": payload.get("txn"), **self.list.tag_fields(payload), "num_versions": 1}
        raise SimulationError(f"ListStateMachine cannot apply {msg_type!r}")

    def reply_phase(self, msg_type: str) -> str:
        return self._PHASES.get(msg_type, "")

    def reset(self) -> None:
        self.list.reset()

    def snapshot(self) -> Any:
        return self.list.snapshot()

    def restore(self, state: Any) -> None:
        self.list.restore(state)

    def describe(self) -> str:
        return f"ListStateMachine({len(self.list)} entries)"


class TimestampStateMachine(CoordinatorStateMachine):
    """The monotonic timestamp oracle of the OCC baseline."""

    request_types = ("get-ts",)
    #: ``get-ts`` increments the counter — nothing here is lease-servable
    read_only_types = ()

    def __init__(self) -> None:
        self.counter = 0

    def apply(self, msg_type: str, payload: Mapping[str, Any]) -> Tuple[str, Dict[str, Any]]:
        if msg_type != "get-ts":
            raise SimulationError(f"TimestampStateMachine cannot apply {msg_type!r}")
        self.counter += 1
        return "ts-reply", {"txn": payload.get("txn"), "timestamp": self.counter}

    def reply_phase(self, msg_type: str) -> str:
        return "get-timestamp"

    def reset(self) -> None:
        self.counter = 0

    def snapshot(self) -> Any:
        return self.counter

    def restore(self, state: Any) -> None:
        self.counter = int(state)

    def describe(self) -> str:
        return f"TimestampStateMachine(counter={self.counter})"
