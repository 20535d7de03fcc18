"""Automaton base classes and the effect vocabulary for protocol sessions.

Two styles of automata live on top of the simulation kernel:

* **Reactive automata** (servers): subclasses of :class:`Automaton` that
  implement :meth:`Automaton.on_message`.  A reactive automaton that replies
  within the same handler activation is *non-blocking by construction*,
  which is exactly the paper's N property; a blocking protocol (e.g. the
  lock-based baseline) instead stashes the request and replies from a later
  handler activation, which the N-checker detects as an intervening input
  action.

* **Session automata** (clients): transaction logic is written as a Python
  generator that yields *effects* (:class:`Send`, :class:`Await`) and
  finally returns the transaction result; it records an internal action
  through :meth:`Context.internal`.  The kernel drives the generator,
  recording ``INV``/``RESP`` actions at the right places.  This keeps
  protocol code extremely close to the paper's pseudocode (phases such as
  ``write-value`` / ``info-reader`` become straight-line generator code).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, List, Mapping, Optional, Tuple

from .actions import Message
from .errors import SessionError


# ----------------------------------------------------------------------
# Effects yielded by client sessions
# ----------------------------------------------------------------------
@dataclass
class Send:
    """Send a message to another automaton and continue immediately.

    ``phase`` is a protocol-level label (e.g. ``"read-value"``); it is copied
    into the ``send`` action's info so that traces remain self-describing.
    """

    dst: str
    msg_type: str
    payload: Mapping[str, Any] = field(default_factory=dict)
    phase: str = ""


@dataclass
class Await:
    """Suspend the session until ``count`` matching messages have arrived.

    ``matcher`` receives each delivered message; messages for which it
    returns ``True`` are collected.  The kernel resumes the generator with
    the list of matched messages (in delivery order) once ``count`` of them
    are available.  Awaiting counts as the end of a communication round for
    round-accounting purposes when ``counts_as_round`` is ``True``.

    ``until`` (optional) replaces the fixed ``count`` with a predicate over
    the collected messages: the session resumes as soon as it returns
    ``True``.  This is what quorum rounds are made of — e.g. "per object, at
    least R replies of which at least one is a hit" — where no single count
    expresses readiness.  Matching messages keep being collected until the
    predicate fires; ``count`` is ignored when ``until`` is set.
    """

    matcher: Callable[[Message], bool]
    count: int = 1
    description: str = ""
    counts_as_round: bool = True
    until: Optional[Callable[[List[Message]], bool]] = None

    def __post_init__(self) -> None:
        if self.count < 1:
            raise SessionError("Await.count must be >= 1")


SessionEffect = Any  # Send | Await
SessionGenerator = Generator[SessionEffect, Any, Any]


def expect_type(msg_type: str, *, frm: Optional[str] = None) -> Callable[[Message], bool]:
    """Convenience matcher: message type (and optionally sender) equality."""

    def _match(message: Message) -> bool:
        if message.msg_type != msg_type:
            return False
        if frm is not None and message.src != frm:
            return False
        return True

    return _match


def expect_types(*msg_types: str) -> Callable[[Message], bool]:
    """Matcher accepting any of several message types."""
    allowed = frozenset(msg_types)

    def _match(message: Message) -> bool:
        return message.msg_type in allowed

    return _match


# ----------------------------------------------------------------------
# Automaton base classes
# ----------------------------------------------------------------------
class Automaton:
    """Base class for every process in the system.

    Subclasses override :meth:`on_start` and :meth:`on_message`.  The
    ``kind`` attribute ("server", "reader", "writer", "client") is used by
    the network topology to enforce the client-to-client communication
    setting and by the checkers to know which automata are servers.
    """

    kind: str = "process"

    def __init__(self, name: str) -> None:
        self.name = name

    # -- life-cycle hooks ------------------------------------------------
    def on_start(self, ctx: "Context") -> None:  # pragma: no cover - default no-op
        """Called once when the simulation starts."""

    def on_message(self, message: Message, ctx: "Context") -> None:  # pragma: no cover - default no-op
        """Called when a message addressed to this automaton is delivered."""

    def on_timeout(self, info: Mapping[str, Any], ctx: "Context") -> None:  # pragma: no cover - default no-op
        """Called when a timer this automaton armed via ``ctx.set_timeout``
        fires.  ``info`` is the keyword payload passed at arming time."""

    # -- introspection ---------------------------------------------------
    def is_server(self) -> bool:
        return self.kind == "server"

    def is_client(self) -> bool:
        return self.kind in ("reader", "writer", "client")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r} kind={self.kind}>"


class ServerAutomaton(Automaton):
    """Convenience base class for servers."""

    kind = "server"


class ClientAutomaton(Automaton):
    """Base class for clients that run transactions as generator sessions.

    Subclasses implement :meth:`run_transaction`, a generator taking the
    transaction object and a :class:`Context`.  The kernel:

    1. records ``INVOKE`` at this client,
    2. drives the generator, executing each yielded effect,
    3. records ``RESPOND`` with the generator's return value as the result.

    Clients may also override :meth:`on_message` for protocol messages that
    arrive outside any running session (e.g. the reader of algorithm A
    receiving ``info-reader`` messages from writers at any time).
    Messages are first offered to the running session's pending ``Await``;
    messages the session does not match fall through to :meth:`on_message`.
    """

    kind = "client"

    def run_transaction(self, txn: Any, ctx: "Context") -> SessionGenerator:
        raise NotImplementedError

    def unmatched_goes_to_handler(self) -> bool:
        """Whether unmatched messages are passed to :meth:`on_message`.

        Default ``True``; protocols can override to drop stray messages.
        """
        return True


class ReaderAutomaton(ClientAutomaton):
    """A read client: ``Simulation.submit`` hands it ``read`` transactions only."""

    kind = "reader"


class WriterAutomaton(ClientAutomaton):
    """A write client: ``Simulation.submit`` hands it ``write`` transactions only."""

    kind = "writer"


# ----------------------------------------------------------------------
# Context object handed to automata by the kernel
# ----------------------------------------------------------------------
class Context:
    """Capability object through which automata interact with the kernel.

    Only the operations of the model are exposed: sending messages (subject
    to the topology), recording internal actions, reading the virtual clock
    and annotating the currently-executing transaction with protocol metrics
    (rounds, versions, ...).

    The kernel owns its contexts; a context refers back to it *weakly*, so no
    reference cycle runs through the simulation and a dropped one — trace
    included — is freed at once by reference counting, not by some later
    collector pass.  Used after its simulation is gone, a context raises
    :class:`ReferenceError`.
    """

    def __init__(self, kernel: Any, actor: str) -> None:
        self._kernel = weakref.proxy(kernel)
        self._actor = actor

    @property
    def actor(self) -> str:
        return self._actor

    @property
    def vtime(self) -> int:
        """Virtual time: the kernel's one clock (``Simulation.now``), the
        step counter moved forward past idle gaps to the next timer or fault
        boundary — the clock timeouts are measured on."""
        return self._kernel.now()

    def set_timeout(self, delay: int, **info: Any):
        """Arm a timer for this automaton ``delay`` virtual-time steps from
        now; the kernel calls :meth:`Automaton.on_timeout` with ``info`` when
        it fires.  Timeouts never fire early, and fire eventually even if the
        system would otherwise go idle."""
        return self._kernel.set_timeout(self._actor, delay, info)

    def send(
        self,
        dst: str,
        msg_type: str,
        payload: Optional[Mapping[str, Any]] = None,
        phase: str = "",
    ) -> Message:
        """Send a message from this automaton to ``dst``."""
        return self._kernel._send_from(self._actor, dst, msg_type, payload or {}, phase)

    def internal(self, **info: Any) -> None:
        """Record an internal action at this automaton."""
        self._kernel._record_internal(self._actor, info)

    def annotate_transaction(self, txn_id: Any, **fields: Any) -> None:
        """Attach protocol-reported metrics to a transaction record."""
        self._kernel._annotate_transaction(txn_id, fields)

    # -- membership reconfiguration (the admin surface) -----------------
    @property
    def topology(self):
        """The live topology (reconfig drivers update groups through it)."""
        return self._kernel.topology

    def has_automaton(self, name: str) -> bool:
        """Whether ``name`` is currently registered on the kernel (a
        rejoining member may still exist if its retirement drain is
        pending)."""
        return name in self._kernel._automata

    def spawn(self, automaton: "Automaton") -> "Automaton":
        """Register a new automaton mid-run (dynamic membership growth);
        its START action is recorded at the point of joining."""
        return self._kernel.add_automaton(automaton)

    def retire(self, name: str, force: bool = False) -> bool:
        """Remove an automaton mid-run (dynamic membership shrink); see
        :meth:`~repro.ioa.simulation.Simulation.remove_automaton`."""
        return self._kernel.remove_automaton(name, force=force)


@dataclass(slots=True)
class SessionState:
    """Book-keeping for one in-flight client transaction session (slotted:
    the kernel reads and writes it on every collected reply)."""

    txn: Any
    txn_id: Any
    client: str
    generator: SessionGenerator
    pending_await: Optional[Await] = None
    collected: List[Message] = field(default_factory=list)
    rounds: int = 0
    sends: int = 0
    finished: bool = False
    result: Any = None
    #: the ``info_values`` shared by every ``recv`` action this session
    #: collects (their ``info_keys`` are the kernel's ``("session",)``)
    recv_info: Tuple[Any, ...] = ()

    def matches(self, message: Message) -> bool:
        if self.pending_await is None:
            return False
        return bool(self.pending_await.matcher(message))

    def ready(self) -> bool:
        if self.pending_await is None:
            return False
        if self.pending_await.until is not None:
            return bool(self.pending_await.until(self.collected))
        return len(self.collected) >= self.pending_await.count
