"""Declarative fault plans: what can go wrong, when, and how badly.

The paper's model (Section 2) assumes reliable asynchronous channels, so the
rest of the repository can only exercise adversarial *orderings*.  A
:class:`FaultPlan` describes the regime real systems live in instead:

* **latency models** — every delivery is stamped with a sampled virtual-time
  delay, and the kernel offers it to the scheduler only once the clock has
  reached that stamp;
* **drop / duplicate policies** — per-message loss and duplication
  probabilities (fair-loss: a bounded number of consecutive drops of the same
  message, so retransmission guarantees eventual delivery);
* **link partitions** — bidirectional blocks between two groups of processes
  over a step window, with an optional heal time;
* **server crash/recover schedules** — fail-recover servers (state survives;
  messages addressed to a crashed server are held by the transport and
  redelivered after recovery, or lost forever if it never recovers);
* **a retry policy** — the transport-level timeout/retransmission wrapper
  that stands in for the per-client retry loops of a real system, so
  protocols written for reliable channels survive drops unchanged.

Everything is a frozen dataclass and fully determined by ``seed``: the same
plan and seed always produce the same faults, so every chaos experiment is
replayable — the property the whole repository is built on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from ..ioa.scheduler import draw_below


# ----------------------------------------------------------------------
# Latency models
# ----------------------------------------------------------------------
class LatencyModel:
    """Base class: sample a non-negative delivery delay in kernel steps."""

    def sample(self, rng: random.Random) -> int:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class FixedLatency(LatencyModel):
    """Every message takes exactly ``steps`` steps of virtual time."""

    steps: int = 1

    def sample(self, rng: random.Random) -> int:
        return max(0, int(self.steps))

    def describe(self) -> str:
        return f"fixed({self.steps})"


@dataclass(frozen=True)
class UniformLatency(LatencyModel):
    """Delay drawn uniformly from ``[low, high]`` steps."""

    low: int = 0
    high: int = 4

    def __post_init__(self) -> None:
        if self.low < 0 or self.high < self.low:
            raise ValueError(f"uniform latency needs 0 <= low <= high, got [{self.low}, {self.high}]")

    def sample(self, rng: random.Random) -> int:
        return self.low + draw_below(rng, self.high - self.low + 1)  # = rng.randint(low, high)

    def describe(self) -> str:
        return f"uniform[{self.low},{self.high}]"


@dataclass(frozen=True)
class BimodalLatency(LatencyModel):
    """Mostly ``fast``, occasionally ``slow`` — the tail-latency shape.

    ``slow_probability`` is the chance a message lands in the slow mode;
    this is the model that makes "p95 under fault" a meaningful number.
    """

    fast: int = 1
    slow: int = 12
    slow_probability: float = 0.1

    def __post_init__(self) -> None:
        if not (0.0 <= self.slow_probability <= 1.0):
            raise ValueError(f"slow_probability must be in [0, 1], got {self.slow_probability}")

    def sample(self, rng: random.Random) -> int:
        return max(0, int(self.slow if rng.random() < self.slow_probability else self.fast))

    def describe(self) -> str:
        return f"bimodal(fast={self.fast}, slow={self.slow}@{self.slow_probability})"


# ----------------------------------------------------------------------
# Loss, duplication, retry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DropPolicy:
    """Fair-loss channel: drop each delivery attempt with ``probability``.

    ``max_consecutive`` bounds how many times in a row the *same* message may
    be dropped; after that the attempt is forced through.  This is the
    fair-loss assumption that makes timeout + retransmission a correct
    reliability layer rather than a gamble.
    """

    probability: float = 0.1
    max_consecutive: int = 5

    def __post_init__(self) -> None:
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError(f"drop probability must be in [0, 1], got {self.probability}")
        if self.max_consecutive < 1:
            raise ValueError("max_consecutive must be >= 1")

    def describe(self) -> str:
        return f"drop(p={self.probability}, fair-loss after {self.max_consecutive})"


@dataclass(frozen=True)
class DuplicatePolicy:
    """Deliver an extra copy of a message with ``probability``.

    The kernel's fault plane deduplicates at the receiving automaton, so a
    duplicate costs a scheduler step (an observable latency/throughput tax)
    without breaking the protocols' exactly-once processing assumption.
    """

    probability: float = 0.1

    def __post_init__(self) -> None:
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError(f"duplicate probability must be in [0, 1], got {self.probability}")

    def describe(self) -> str:
        return f"duplicate(p={self.probability})"


@dataclass(frozen=True)
class RetryPolicy:
    """Transport-level timeout/retransmission standing in for client retries.

    A *dropped* message is retransmitted ``timeout_steps`` of virtual time
    later, up to ``max_attempts`` total attempts; after that the message is
    abandoned and its transaction counts against availability.  Messages held
    by a partition or a crashed destination are *not* retried — the transport
    parks them and redelivers on heal/recovery (forever parked, and the
    transaction unavailable, if the fault is permanent).
    """

    timeout_steps: int = 12
    max_attempts: int = 8

    def __post_init__(self) -> None:
        if self.timeout_steps < 1:
            raise ValueError("timeout_steps must be >= 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def describe(self) -> str:
        return f"retry(timeout={self.timeout_steps}, max_attempts={self.max_attempts})"


# ----------------------------------------------------------------------
# Partitions and crashes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Partition:
    """A bidirectional link cut between two groups over a step window.

    Messages between ``left`` and ``right`` sent while ``start <= now < heal``
    are held by the transport and released when the partition heals; with
    ``heal=None`` the partition is permanent and those messages are lost
    (their transactions count against availability).
    """

    left: Tuple[str, ...]
    right: Tuple[str, ...]
    start: int = 0
    heal: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "left", tuple(self.left))
        object.__setattr__(self, "right", tuple(self.right))
        if set(self.left) & set(self.right):
            raise ValueError("partition sides must be disjoint")
        if self.start < 0:
            raise ValueError("partition start must be >= 0")
        if self.heal is not None and self.heal <= self.start:
            raise ValueError("partition heal time must be after its start")

    def active(self, now: int) -> bool:
        return self.start <= now and (self.heal is None or now < self.heal)

    def blocks(self, src: str, dst: str, now: int) -> bool:
        if not self.active(now):
            return False
        return (src in self.left and dst in self.right) or (src in self.right and dst in self.left)

    def describe(self) -> str:
        window = f"[{self.start}, {'∞' if self.heal is None else self.heal})"
        return f"partition({'/'.join(self.left)} ⊥ {'/'.join(self.right)} @ {window})"


@dataclass(frozen=True)
class CrashEvent:
    """A fail-recover (or fail-stop) server crash.

    With ``preserve_state=True`` (the default) the server keeps its state
    across the outage — fail-recover with durable storage; while crashed it
    neither receives nor reacts.  ``preserve_state=False`` models
    **crash-with-amnesia**: the server's volatile state is lost and it
    recovers freshly initialised (the injector calls the automaton's
    ``forget()`` hook at recovery time — the moment the loss becomes
    observable).  ``recover=None`` is a permanent fail-stop: everything
    addressed to it is lost (and ``preserve_state`` is then moot).
    """

    server: str
    at: int = 0
    recover: Optional[int] = None
    preserve_state: bool = True

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("crash time must be >= 0")
        if self.recover is not None and self.recover <= self.at:
            raise ValueError("recovery must be after the crash")

    def crashed(self, now: int) -> bool:
        return self.at <= now and (self.recover is None or now < self.recover)

    def describe(self) -> str:
        until = "forever" if self.recover is None else f"until {self.recover}"
        amnesia = "" if self.preserve_state else ", amnesia"
        return f"crash({self.server} @ {self.at} {until}{amnesia})"


# ----------------------------------------------------------------------
# The plan itself
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultPlan:
    """The full declarative description of one chaos regime.

    All fields default to "off"; :meth:`none` is the canonical inert plan
    (guaranteed byte-for-byte identical traces to running without any fault
    plane at all).  ``seed`` feeds the injector's private RNG; ``name`` is a
    label used in reports and benchmark output.
    """

    name: str = ""
    latency: Optional[LatencyModel] = None
    drops: Optional[DropPolicy] = None
    duplicates: Optional[DuplicatePolicy] = None
    partitions: Tuple[Partition, ...] = ()
    crashes: Tuple[CrashEvent, ...] = ()
    retry: Optional[RetryPolicy] = None
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "partitions", tuple(self.partitions))
        object.__setattr__(self, "crashes", tuple(self.crashes))

    # ------------------------------------------------------------------
    @classmethod
    def none(cls, name: str = "none") -> "FaultPlan":
        """The inert plan: reliable channels, zero latency, no faults."""
        return cls(name=name)

    def is_inert(self) -> bool:
        """True when the plan perturbs nothing (pure reliable semantics)."""
        return (
            self.latency is None
            and self.drops is None
            and self.duplicates is None
            and not self.partitions
            and not self.crashes
        )

    def with_seed(self, seed: int) -> "FaultPlan":
        return replace(self, seed=seed)

    def needs_retry(self) -> bool:
        """Whether the plan can lose messages (and so wants a retry policy)."""
        return self.drops is not None or bool(self.crashes) or bool(self.partitions)

    def describe(self) -> str:
        if self.is_inert():
            return f"{self.name or 'faults'}: none (reliable channels)"
        parts = []
        if self.latency is not None:
            parts.append(self.latency.describe())
        if self.drops is not None:
            parts.append(self.drops.describe())
        if self.duplicates is not None:
            parts.append(self.duplicates.describe())
        parts.extend(p.describe() for p in self.partitions)
        parts.extend(c.describe() for c in self.crashes)
        if self.retry is not None:
            parts.append(self.retry.describe())
        return f"{self.name or 'faults'}: " + ", ".join(parts)
