"""Leader leases: taking the consensus tax off the coordinator read path.

Every read-only coordinator request (``get-tag-arr`` for algorithms B/C and
the OCC oracle) normally costs a full commit round: append, quorum ack,
commit notice, apply.  A *leader lease* lets the current leader answer
those reads locally from its applied state machine instead, as long as it
can prove no other leader may exist:

* The lease is built from quorum-acknowledged extension rounds on the
  kernel's **virtual clock** (skew-free by construction).  When the leader
  sends a ``cns-lease`` round at vtime ``S`` and a quorum acknowledges it,
  every acking follower has promised not to grant votes to *other*
  candidates until ``S + duration``; by quorum intersection no election can
  complete inside the proven window, so the leader may serve reads locally
  until ``S + duration``.
* The lease duration is bounded by the **low end of the election-timeout
  range**: a partitioned leader's lease provably lapses before any
  successor's election timer can fire and win, so a new leader never
  overlaps a live lease.
* A candidate whose peers still hold a live promise is refused votes and
  simply retries after the next timeout — it *waits out* the old lease.

Reads arriving while an extension round is in flight are batched: they park
on the leader and the single quorum evaluation that closes the round proves
the window for all of them at once.

Every leader holds a :class:`LeaderLeaseState`; ``leases`` only decides
which request types it serves under the lease (the machine's read-only
types, or none).  With ``leases=None`` (the default) that set is empty, so
no read parks, no round is sent, and every message, field and trace action
stays byte-identical to the seed.  The lease duration is not a setting: it
is always the election timeout's low bound, the longest lease that is still
safe.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

__all__ = ["LeaderLeaseState"]


class LeaderLeaseState:
    """Leader-side lease bookkeeping: ack times, the proven window, parked reads.

    ``acks[peer]`` is the latest extension send-vtime that ``peer`` has
    acknowledged.  The proven lease start is the latest send-vtime ``S``
    such that the leader plus every peer with ``acks[peer] >= S`` forms a
    quorum; the lease then runs to ``S + duration``.  All O(members) per
    ack, O(1) state.
    """

    __slots__ = (
        "duration",
        "acks",
        "expiry",
        "round_open",
        "round_sent_at",
        "reads",
        "notify",
        "expired_logged",
    )

    def __init__(self, duration: int):
        self.duration = int(duration)
        self.acks: Dict[str, int] = {}
        self.expiry = 0
        self.round_open = False
        self.round_sent_at = 0
        # one lease-expired trace action per lapse, not one per parked read
        self.expired_logged = False
        # request_id -> (pending request, arrival vtime): reads parked while
        # an extension round proves the window they will be served under.
        self.reads: "OrderedDict[str, Tuple[Any, int]]" = OrderedDict()
        # Served-locally request ids awaiting follower notification (so the
        # broadcast copies buffered in follower ``pending`` are drained).
        self.notify: List[str] = []

    def live(self, now: int) -> bool:
        return now < self.expiry

    def record_ack(self, peer: str, at: int) -> None:
        previous = self.acks.get(peer)
        if previous is None or at > previous:
            self.acks[peer] = at

    def proven_start(self, is_quorum: Callable[[Set[str]], bool]) -> Optional[int]:
        """Latest send-vtime ``S`` whose ack set (plus the leader) is a quorum."""
        for start in sorted(set(self.acks.values()), reverse=True):
            supporters = {peer for peer, at in self.acks.items() if at >= start}
            if is_quorum(supporters):
                return start
        return None
