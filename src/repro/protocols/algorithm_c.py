"""Algorithm C (Section 9, Pseudocodes 5, 7): SNW + one-round, ≤|W| versions, MWMR.

Algorithm C keeps READ transactions down to a **single** parallel round by
giving up the *one-version* half of the O property: every server answers a
read request with its entire multi-version set ``Vals`` (whose size is
bounded by the number of WRITE transactions concurrent with the READ plus
the committed prefix), while the coordinator's reply pins down, per object,
*which* of those versions the READ must return.

The coordinator request and the data requests are sent concurrently; when
the coordinator itself stores one of the requested objects, the two requests
are combined into a single message (as the paper notes), preserving the
one-round property.

The reader keeps each shipped ``Vals`` as it arrived and scans it
newest-first for the key the coordinator named, so a READ's work is bounded
by the WRITEs concurrent with it (or with the named WRITE), not by the length
of the history.

Under the placement layer the data requests fan out to every replica of each
requested object and the round completes once a read quorum of ``Vals``
snapshots arrived per object (plus the coordinator's tag array); the named
key is looked up in each snapshot, and quorum intersection with the write
quorum guarantees one of them holds every key the coordinator can name for
a completed WRITE.

Fidelity note
-------------
The paper's pseudocode assumes the version named by the coordinator is
always present in the concurrently-fetched ``Vals`` snapshot.  Under an
adversarial schedule the data reply can be captured *before* the write-value
message reaches that server while the coordinator reply is captured *after*
the same WRITE's update-coor message — in that corner case the named key is
missing from the snapshot.  The implementation then falls back to one extra
algorithm-B-style round for the affected objects and annotates the
transaction with ``fallback_rounds`` so experiments can report how often the
corner case occurs.  It cannot occur under FIFO scheduling; 4 of the 24
traces of one READ beside one WRITE take it, each strictly serializable
(``tests/proofs/test_exhaust.py::test_algorithm_c_fallback_corner``).
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Dict, List, Sequence, Tuple

from ..ioa.automaton import Context, ReaderAutomaton, Send
from ..ioa.errors import SimulationError
from ..txn.objects import Key
from ..txn.transactions import ReadResult, ReadTransaction
from .coordinated import CoordinatedClient, CoordinatedProtocol
from .replication import key_read_round, quorum_round


#: the read round's one requirement that is not an object: the tag array,
#: one reply from a server asked for it
TAG_ARRAY = "tag-array"

#: one replica's ``Vals`` as a read-vals reply ships it: ``(key, value)``
#: pairs in the order the replica installed them
Vals = Tuple[Tuple[Key, Any], ...]

#: what :func:`named_value` returns when no snapshot holds the key
ABSENT = object()


def named_value(snapshots: Sequence[Vals], wanted: Key) -> Any:
    """The value the snapshots hold under ``wanted``, the last reply's first
    (as merging the replies in arrival order would give), else ``ABSENT``.

    Each snapshot is scanned newest-first, so one that holds the key passes
    only the versions installed after it (WRITEs that overlapped the READ or
    the named WRITE), whatever the length of the history."""
    for snapshot in reversed(snapshots):
        for key, value in reversed(snapshot):
            if key == wanted:
                return value
    return ABSENT


def versions_fetched(snapshots: Sequence[Vals]) -> int:
    """How many versions of one object the READ fetched: the snapshot's
    length when one replica answered, the union of the key sets when
    several did."""
    if len(snapshots) == 1:
        return len(snapshots[0])
    return len(dict(chain.from_iterable(snapshots)))


class AlgorithmCReader(CoordinatedClient, ReaderAutomaton):
    """One-round reader: fetch all versions and the tag array concurrently."""

    def run_transaction(self, txn: ReadTransaction, ctx: Context):
        read_set = tuple(txn.objects)
        view = self.view
        # Combining the data and tag requests into one message only applies
        # when the coordinator *is* a storage server (the unreplicated
        # deployment); a consensus group holds no objects.
        single_coordinator = len(self.coordinator_group) == 1
        # Every server asked for the tag array so far: the tag request is
        # matched across attempts (a replicated coordinator's memoized reply
        # cannot echo the attempt), so any of them may answer it.
        asked = set()

        def sends(stamp: Dict[str, Any]) -> List[Send]:
            combined = single_coordinator and any(
                self.coordinator in view.targets(object_id) for object_id in read_set
            )
            out = []
            for object_id in read_set:
                for replica in view.targets(object_id):
                    payload: Dict[str, Any] = {"txn": txn.txn_id, "object": object_id, **stamp}
                    if combined and replica == self.coordinator:
                        # combine the data request and the tag-array request
                        payload["want_tags"] = True
                        payload["read_set"] = read_set
                    out.append(
                        Send(dst=replica, msg_type="read-vals", payload=payload, phase="read-values-and-tags")
                    )
            if combined:
                asked.add(self.coordinator)
                return out
            # Re-broadcast per attempt: idempotent at the single coordinator
            # (a read), deduplicated by request id at a replicated one.
            for target in self.coordinators():
                asked.add(target)
                out.append(
                    Send(
                        dst=target,
                        msg_type="get-tag-arr",
                        payload={"txn": txn.txn_id, "read_set": read_set},
                        phase="read-values-and-tags",
                    )
                )
            return out

        def needs(requirement: str):
            if requirement == TAG_ARRAY:
                return ((tuple(asked), 1),)
            return view.read_needed(requirement)

        # Single phase: read-values-and-tags — a read quorum of ``Vals``
        # snapshots per object, plus the tag array (from a replicated
        # coordinator only the leader answers, a failover may answer twice).
        replies, _ = yield from quorum_round(
            txn.txn_id,
            view,
            ctx,
            sends,
            ("read-vals-reply", "tag-arr-reply"),
            needs,
            read_set + (TAG_ARRAY,),
            unnumbered=("tag-arr-reply",),
            description="values and tag array",
        )

        tag = None
        keys: Dict[str, Key] = {}
        snapshots: Dict[str, List[Vals]] = {}
        for reply in replies:
            if reply.get("tag") is not None:
                tag = reply.get("tag")
                keys = dict(reply.get("keys", ()))
            if reply.msg_type == "read-vals-reply":
                snapshots.setdefault(reply.get("object"), []).append(reply.get("versions", ()))
        if tag is None or not keys:
            raise SimulationError(f"reader {self.name} never received the tag array for {txn.txn_id}")

        values: Dict[str, Any] = {}
        missing: List[str] = []
        for object_id in read_set:
            value = named_value(snapshots.get(object_id, ()), keys[object_id])
            if value is ABSENT:
                missing.append(object_id)
            else:
                values[object_id] = value

        fallback_rounds = 0
        if missing:
            # Corner-case fallback (see module docstring): fetch the named
            # versions directly, algorithm-B style (quorum round under
            # replication).
            fallback_rounds = 1
            fallback_values, _fallback_replies = yield from key_read_round(
                txn.txn_id,
                {object_id: keys[object_id] for object_id in missing},
                view,
                ctx,
                phase="read-value-fallback",
            )
            values.update(fallback_values)

        max_versions = max(map(versions_fetched, snapshots.values()), default=1)
        annotations: Dict[str, Any] = {
            "tag": tag,
            "protocol": "algorithm-c",
            "fallback_rounds": fallback_rounds,
            "versions_fetched": max_versions,
        }
        if not self.placement.is_trivial():
            annotations["quorum_replies"] = len(replies)
        ctx.annotate_transaction(txn.txn_id, **annotations)
        return ReadResult.from_mapping({obj: values[obj] for obj in read_set})


class AlgorithmC(CoordinatedProtocol):
    """SNW + one-round READ transactions returning up to |W| versions (Theorem 5)."""

    name = "algorithm-c"
    description = "Paper's algorithm C: strictly serializable, non-blocking, one-round, multi-version reads (MWMR, no C2C)"
    requires_c2c = False
    reader = AlgorithmCReader
    claimed_properties = "SNW + one-round (Theorem 5)"
    claimed_read_rounds = 1
    claimed_versions = None  # up to |W|
