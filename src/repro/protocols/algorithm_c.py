"""Algorithm C (Section 9, Pseudocodes 5, 7): SNW + one-round, many versions, MWMR.

Algorithm C keeps READ transactions down to a **single** parallel round by
giving up the *one-version* half of the O property: every server answers a
read request with its entire multi-version set ``Vals``, while the
coordinator's reply pins down, per object, *which* of those versions the READ
returns.  The coordinator request and the data requests are sent
concurrently; when the coordinator itself stores one of the requested
objects, the two are combined into a single message (as the paper notes).

The coordinator's reply holds the ``List`` from the length the reader's
previous tag reply reported (``since``) on: per requested object, its newest
entry in that prefix and every later entry that wrote it.  The READ returns
the newest prefix whose named versions all arrived in its round, walking
back only while a named key is missing.  Every entry was appended after its
WRITE reached a write quorum, so the prefix that stood when the READ was
invoked (``since`` or newer) is in any read quorum and ends the walk: one
round, and every WRITE that responded before the READ is seen.  A replica
that crashed with amnesia breaks that intersection and its ``Vals`` reply
says so; when its object misses a named key, the READ fetches the prefix's
named keys in a second round, which repairs the stale replicas.

A reply ships the whole ``Vals``: no reply rule of this design keeps to
Theorem 5's |W| versions (``PAPER.md``, Figure 1(b)).  The reader scans each
shipped ``Vals`` newest-first for a named key, so a lookup costs the WRITEs
concurrent with the READ, not the history.  Under the placement layer the
round completes once a read quorum of ``Vals`` snapshots arrived per object.
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

    #: the ``List`` length the previous tag reply reported (1: the initial entry)
    since = 1

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
                        payload["since"] = self.since
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
                        payload={"txn": txn.txn_id, "read_set": read_set, "since": self.since},
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

        prefixes = None
        snapshots: Dict[str, List[Vals]] = {}
        for reply in replies:
            prefixes = reply.get("prefixes") or prefixes
            if reply.msg_type == "read-vals-reply":
                snapshots.setdefault(reply.get("object"), []).append(reply.get("versions", ()))
        if prefixes is None:
            raise SimulationError(f"reader {self.name} never received the tag array for {txn.txn_id}")

        # each object's named (position, key) pairs, oldest first, from prefix ``start`` on
        start, length, pairs = prefixes
        named = {object_id: list(keys) for object_id, keys in pairs}
        while True:
            values = {o: named_value(snapshots.get(o, ()), keys[-1][1]) for o, keys in named.items()}
            late = [o for o, value in values.items() if value is ABSENT]
            if not late:
                break
            if any(r.get("forgot") and r.get("object") in late for r in replies):
                # the missing version may be a WRITE's that responded before
                # this READ: fetch this prefix's named keys, and repair
                fetched, _ = yield from key_read_round(txn.txn_id, {o: named[o][-1][1] for o in late}, view, ctx)
                values.update(fetched)
                break
            # every prefix from the oldest missing entry on names a missing key
            oldest = min(named[o][-1][0] for o in late)
            if oldest <= start:
                raise SimulationError(f"reader {self.name}: {txn.txn_id}'s Vals miss List prefix {start}")
            for keys in named.values():
                while keys[-1][0] >= oldest:
                    keys.pop()
        self.since = length

        annotations: Dict[str, Any] = {
            "tag": max(keys[-1][0] for keys in named.values()),
            "protocol": "algorithm-c",
            "versions_fetched": max(map(versions_fetched, snapshots.values()), default=1),
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
    claimed_versions = None  # Theorem 5 says |W|; no reply keeps to it (PAPER.md)
