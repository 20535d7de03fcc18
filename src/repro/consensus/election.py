"""Term-based leader election state with seeded randomized timeouts.

:class:`LeaderElection` holds the Raft election state of one consensus
member — current term, role, who it voted for this term, the votes it has
gathered as a candidate — plus the member's private RNG for election timeout
delays.  The RNG is seeded from ``(build seed, member index)``, so elections
are deterministic per seed (the repository-wide replayability property) while
different members still draw *different* timeouts, which is what breaks
split-vote symmetry exactly as Raft's randomized timeouts do in real time.

Timeouts are measured in kernel virtual-time steps (``Simulation.now``, the
run's one clock) — there is no wall clock anywhere.

Bootstrap convention: the group's first member starts as the leader of term 1
and every member starts having voted for it, so a fault-free run never holds
an election (and ``consensus_factor=1`` systems, which instantiate no members
at all, stay byte-identical to the seed).
"""

from __future__ import annotations

import random
from typing import Any, Optional, Set, Tuple

FOLLOWER = "follower"
CANDIDATE = "candidate"
LEADER = "leader"

#: Default election timeout window, in virtual-time steps.  Generous relative
#: to a commit round (a handful of steps) so a healthy-but-busy leader is not
#: ousted, yet small enough that failover windows stay cheap to simulate.
DEFAULT_TIMEOUT_RANGE: Tuple[int, int] = (40, 80)


class LeaderElection:
    """Election-side state of one consensus member."""

    def __init__(
        self,
        member: str,
        index: int,
        group_size: int,
        initial_leader: str,
        seed: int = 0,
        timeout_range: Tuple[int, int] = DEFAULT_TIMEOUT_RANGE,
    ) -> None:
        if group_size < 1:
            raise ValueError(f"consensus group size must be >= 1, got {group_size}")
        low, high = timeout_range
        if not (1 <= low <= high):
            raise ValueError(f"election timeout range needs 1 <= low <= high, got {timeout_range}")
        self.member = member
        self.index = index
        self.group_size = group_size
        self.timeout_range = (int(low), int(high))
        self.term = 1
        self.role = LEADER if member == initial_leader else FOLLOWER
        self.voted_for: Optional[str] = initial_leader
        self.votes: Set[str] = set()
        self._rng = random.Random(((seed & 0xFFFFFFFF) * 1_000_003 + index * 97) ^ 0xE1EC7)
        #: attached stable store (write-through; None = volatile)
        self._store: Optional[Any] = None

    # ------------------------------------------------------------------
    # Stable storage (Raft's persist-before-act rule for term and vote)
    # ------------------------------------------------------------------
    def attach_store(self, store: Any) -> None:
        """Write ``(term, voted_for)`` through to ``store`` on every later
        mutation — a vote or candidacy is durable before anyone can see it."""
        self._store = store

    def restore(self, term: int, voted_for: Optional[str]) -> None:
        """Reload persisted election state (recovery path).  A recovered
        member always restarts as a follower: role and gathered votes are
        volatile, only term and vote are Raft persistent state."""
        self.term = int(term)
        self.voted_for = voted_for
        self.role = FOLLOWER
        self.votes = set()

    def _persist(self) -> None:
        if self._store is not None:
            self._store.save_meta(self.term, self.voted_for)

    # ------------------------------------------------------------------
    @property
    def majority(self) -> int:
        return self.group_size // 2 + 1

    @property
    def is_leader(self) -> bool:
        return self.role == LEADER

    @property
    def is_candidate(self) -> bool:
        return self.role == CANDIDATE

    @property
    def is_follower(self) -> bool:
        return self.role == FOLLOWER

    def next_timeout(self) -> int:
        """A fresh randomized election timeout delay (virtual-time steps)."""
        return self._rng.randint(*self.timeout_range)

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def start_candidacy(self) -> int:
        """Enter a new term as candidate, voting for self; returns the term."""
        self.term += 1
        self.role = CANDIDATE
        self.voted_for = self.member
        self.votes = {self.member}
        self._persist()
        return self.term

    def record_vote(self, voter: str) -> bool:
        """Register a granted vote; ``True`` when a majority is reached."""
        self.votes.add(voter)
        return len(self.votes) >= self.majority

    def become_leader(self) -> None:
        self.role = LEADER
        self.votes = set()

    def step_down(self, term: int) -> None:
        """Observe a higher term: adopt it as a follower with a fresh vote."""
        if term > self.term:
            self.term = term
            self.voted_for = None
            self._persist()
        self.role = FOLLOWER
        self.votes = set()

    def may_grant(self, candidate: str, term: int) -> bool:
        """Vote-at-most-once-per-term half of the grant decision (the log
        up-to-date half lives with the log)."""
        return term == self.term and self.voted_for in (None, candidate)

    def grant(self, candidate: str) -> None:
        self.voted_for = candidate
        self._persist()

    def describe(self) -> str:
        return f"{self.member}: {self.role} @ term {self.term}"
