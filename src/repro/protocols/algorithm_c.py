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

Under the placement layer the data requests fan out to every replica of each
requested object and the round completes once a read quorum of ``Vals``
snapshots arrived per object (plus the coordinator's tag array); the
per-object snapshots are unioned, and quorum intersection with the write
quorum guarantees the union contains every key the coordinator can name for
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
corner case occurs (it cannot occur under FIFO scheduling; see
EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..ioa.actions import Message
from ..ioa.automaton import Context, ReaderAutomaton, Send
from ..ioa.errors import SimulationError
from ..txn.objects import Key
from ..txn.placement import Placement, QuorumPolicy
from ..txn.transactions import ReadResult, ReadTransaction
from .coordinated import CoordinatedProtocol, live_coordinator_targets
from .replication import (
    default_policy,
    epoch_quorum_round,
    key_read_round,
    per_object_reply_await,
    placement_or_single_copy,
)


def _tag_seen(collected: Sequence[Message]) -> bool:
    return any(m.get("tag") is not None for m in collected)


class AlgorithmCReader(ReaderAutomaton):
    """One-round reader: fetch all versions and the tag array concurrently."""

    #: shared placement directory when built with a reconfiguration plan
    #: (injected by the build; None keeps the rounds byte-identical)
    directory = None

    def __init__(
        self,
        name: str,
        objects: Sequence[str],
        coordinator: str,
        placement: Optional[Placement] = None,
        policy: Optional[QuorumPolicy] = None,
        coordinator_group: Optional[Sequence[str]] = None,
    ) -> None:
        super().__init__(name)
        self.objects = tuple(objects)
        self.coordinator = coordinator
        self.coordinator_group = (
            tuple(coordinator_group) if coordinator_group else (coordinator,)
        )
        self.placement = placement_or_single_copy(self.objects, placement)
        self.policy = policy if policy is not None else default_policy()

    def _fixed_membership_round(self, txn: ReadTransaction):
        """The seed's single round (no directory): byte-identical wire."""
        read_set = tuple(txn.objects)
        read_targets = {
            object_id: self.placement.group(object_id) for object_id in read_set
        }
        # Combining the data and tag requests into one message only applies
        # when the coordinator *is* a storage server (the unreplicated
        # deployment); a consensus group holds no objects.
        replicated_coordinator = len(self.coordinator_group) > 1
        coordinator_holds_read_object = not replicated_coordinator and any(
            self.coordinator in group for group in read_targets.values()
        )

        # Single phase: read-values-and-tags -----------------------------------
        sends = []
        for object_id in read_set:
            for replica in read_targets[object_id]:
                payload: Dict[str, Any] = {"txn": txn.txn_id, "object": object_id}
                if coordinator_holds_read_object and replica == self.coordinator:
                    # combine the data request and the tag-array request
                    payload["want_tags"] = True
                    payload["read_set"] = read_set
                sends.append(
                    Send(
                        dst=replica,
                        msg_type="read-vals",
                        payload=payload,
                        phase="read-values-and-tags",
                    )
                )
        if not coordinator_holds_read_object:
            for target in self.coordinator_group:
                sends.append(
                    Send(
                        dst=target,
                        msg_type="get-tag-arr",
                        payload={"txn": txn.txn_id, "read_set": read_set},
                        phase="read-values-and-tags",
                    )
                )
        yield from sends
        replies = yield per_object_reply_await(
            txn.txn_id,
            read_set,
            self.placement,
            self.policy,
            reply_type="read-vals-reply",
            description="values and tag array",
            extra_types=("tag-arr-reply",),
            extra_count=0 if coordinator_holds_read_object else 1,
            extra_ready=_tag_seen,
            # With a replicated coordinator the number of tag replies is not
            # fixed (only the leader answers; a failover may answer twice), so
            # a fixed count cannot express readiness — use the predicate form.
            force_quorum=replicated_coordinator,
        )
        return replies

    def _epoch_round(self, txn: ReadTransaction, ctx: Context):
        """The epoch-aware body of the single read round (directory installed).

        Requests go to ``C_old ∪ C_new`` of every requested object and carry
        epoch+attempt stamps; readiness needs a read quorum of ``Vals``
        snapshots per object per active configuration plus the tag array, and
        an ``epoch-mismatch`` (a retired replica) restarts the round against
        the refreshed groups.  The tag request is re-broadcast per attempt —
        idempotent at the single coordinator (a read) and deduplicated by
        request id at a replicated one.
        """
        read_set = tuple(txn.objects)
        directory = self.directory
        replicated_coordinator = len(self.coordinator_group) > 1

        def send_factory(epoch: int, attempt: int):
            sends = []
            coordinator_holds = not replicated_coordinator and any(
                self.coordinator in directory.targets(object_id)
                for object_id in read_set
            )
            for object_id in read_set:
                for replica in directory.targets(object_id):
                    payload: Dict[str, Any] = {
                        "txn": txn.txn_id,
                        "object": object_id,
                        "epoch": epoch,
                        "attempt": attempt,
                    }
                    if coordinator_holds and replica == self.coordinator:
                        payload["want_tags"] = True
                        payload["read_set"] = read_set
                    sends.append(
                        Send(
                            dst=replica,
                            msg_type="read-vals",
                            payload=payload,
                            phase="read-values-and-tags",
                        )
                    )
            if not coordinator_holds:
                for target in live_coordinator_targets(directory, self.coordinator_group):
                    sends.append(
                        Send(
                            dst=target,
                            msg_type="get-tag-arr",
                            payload={"txn": txn.txn_id, "read_set": read_set},
                            phase="read-values-and-tags",
                        )
                    )
            return sends

        replies, _attempt = yield from epoch_quorum_round(
            txn.txn_id,
            directory,
            ctx,
            send_factory,
            reply_types=("read-vals-reply",),
            needs_factory=lambda: {obj: directory.read_needed(obj) for obj in read_set},
            extra_ready=_tag_seen,
            description="values and tag array",
            unfiltered_types=("tag-arr-reply",),
        )
        return replies

    def run_transaction(self, txn: ReadTransaction, ctx: Context):
        if not isinstance(txn, ReadTransaction):
            raise SimulationError(f"reader {self.name} received a non-READ transaction {txn!r}")
        read_set = tuple(txn.objects)
        if self.directory is not None:
            replies = yield from self._epoch_round(txn, ctx)
        else:
            replies = yield from self._fixed_membership_round(txn)

        tag = None
        keys: Dict[str, Key] = {}
        versions_by_object: Dict[str, Dict[Key, Any]] = {}
        for reply in replies:
            if reply.get("tag") is not None:
                tag = reply.get("tag")
                keys = dict(reply.get("keys", ()))
            if reply.msg_type == "read-vals-reply":
                versions_by_object.setdefault(reply.get("object"), {}).update(
                    reply.get("versions", ())
                )
        if tag is None or not keys:
            raise SimulationError(f"reader {self.name} never received the tag array for {txn.txn_id}")

        values: Dict[str, Any] = {}
        missing: List[str] = []
        for object_id in read_set:
            wanted = keys[object_id]
            snapshot = versions_by_object.get(object_id, {})
            if wanted in snapshot:
                values[object_id] = snapshot[wanted]
            else:
                missing.append(object_id)

        fallback_rounds = 0
        if missing:
            # Corner-case fallback (see module docstring): fetch the named
            # versions directly, algorithm-B style (quorum round under
            # replication).
            fallback_rounds = 1
            fallback_values, _fallback_replies = yield from key_read_round(
                txn.txn_id,
                {object_id: keys[object_id] for object_id in missing},
                self.placement,
                self.policy,
                phase="read-value-fallback",
                directory=self.directory,
                ctx=ctx,
            )
            values.update(fallback_values)

        max_versions = max(
            (len(snapshot) for snapshot in versions_by_object.values()), default=1
        )
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
