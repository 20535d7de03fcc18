"""Leader leases: taking the consensus tax off the coordinator read path.

Every read-only coordinator request (``get-tag-arr`` for algorithms B/C and
the OCC oracle) normally costs a full commit round: append, quorum ack,
commit notice, apply.  A *leader lease* lets the current leader answer
those reads locally from its applied state machine instead, as long as it
can prove no other leader may exist:

* The lease is proven by the leader's **append rounds** on the kernel's
  **virtual clock** (skew-free by construction), as Raft's leader lease is
  kept by its AppendEntries.  Once a leader has parked a read in its term
  it stamps every ``cns-append`` with its send vtime ``at``; a follower that
  heeds one promises not to grant votes to *other* candidates until its
  receive time plus the lease duration, and echoes ``at`` in its ack.  When
  a quorum has acknowledged appends sent at or after ``S``, no election can
  complete before ``S + duration`` by quorum intersection, so the leader may
  serve reads locally until then.  A write's append round renews the window
  as well as a read's.
* The lease duration is bounded by the **low end of the election-timeout
  range**: a partitioned leader's lease provably lapses before any
  successor's election timer can fire and win, so a new leader never
  overlaps a live lease.
* A candidate whose peers still hold a live promise is refused votes and
  simply retries after the next timeout — it *waits out* the old lease.

A read arriving under a live window is served at once.  One arriving after
the window lapsed parks, and the leader sends an append round to every peer
(the extension round); the single quorum evaluation that closes it proves
the window for every read parked behind it.  The ids of the served reads
ride the leader's unacknowledged ``cns-committed`` notice, so followers drop
their broadcast copies; nothing answers it.

Every leader holds a :class:`LeaderLeaseState`; ``leases`` only decides
which request types it serves under the lease (the machine's read-only
types, or none).  With ``leases=None`` (the default) that set is empty, so
no read parks, no append is stamped, and every message, field and trace
action stays byte-identical to the seed; a leased run whose coordinator
only writes is byte-identical too.  The lease duration is not a setting: it
is always the election timeout's low bound, the longest lease that is still
safe.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

__all__ = ["LeaderLeaseState"]


class LeaderLeaseState:
    """Leader-side lease bookkeeping: ack times, the proven window, parked reads.

    ``acks[peer]`` is the latest stamped append send-vtime that ``peer`` has
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
        # an append round proves the window they will be served under.
        self.reads: "OrderedDict[str, Tuple[Any, int]]" = OrderedDict()
        # Served-locally request ids for the next commit notice (so the
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
