"""Communication topology and network conditions: who may talk to whom, and how.

The paper's results hinge on the communication topology among processes:

* clients always talk to servers and servers reply to clients;
* servers may talk to each other (algorithms B and C route reads through a
  coordinator server);
* **client-to-client (C2C) communication** is the pivotal switch: Figure 1(a)
  shows SNOW is possible in the MWSR setting *only* when C2C is allowed
  (algorithm A has writers send ``info-reader`` messages directly to the
  reader), and impossible when it is disallowed.

:class:`Topology` encodes these rules; the simulation kernel consults it on
every send and raises :class:`~repro.ioa.errors.CommunicationNotAllowedError`
on a violation, so running algorithm A in a no-C2C configuration fails loudly
rather than silently producing a meaningless result.

On top of the *static* rules, :class:`FaultPlane` is the optional *dynamic*
network-conditions interface: a hook object the kernel consults on every send,
before every step and when the system goes idle.  With no plane installed the
kernel keeps the paper's reliable-channel semantics byte-for-byte; installing
one (see :mod:`repro.faults`) lets experiments add latency distributions,
drops, duplication, link partitions and server crash/recover schedules without
touching any protocol code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

from .automaton import Automaton
from .errors import CommunicationNotAllowedError, UnknownProcessError


@dataclass
class Topology:
    """Communication rules over a set of named automata.

    Parameters
    ----------
    allow_client_to_client:
        The C2C switch of the paper.  When ``False`` any client→client send
        raises :class:`CommunicationNotAllowedError`.
    allow_server_to_server:
        Whether servers may exchange messages (needed by coordinator-based
        protocols if the coordinator is a separate server; enabled by
        default).
    extra_forbidden:
        Additional directed pairs ``(src, dst)`` that are forbidden, for
        fault-injection style experiments.
    """

    allow_client_to_client: bool = True
    allow_server_to_server: bool = True
    extra_forbidden: FrozenSet[Tuple[str, str]] = field(default_factory=frozenset)

    def __setattr__(self, name: str, value: Any) -> None:
        object.__setattr__(self, name, value)
        if not name.startswith("_"):  # a rule changed: forget the pairs cleared under the old ones
            self.__dict__.setdefault("_cleared", set()).clear()

    def __post_init__(self) -> None:
        self._kinds: Dict[str, str] = {}
        self._replica_groups: Dict[str, Tuple[str, ...]] = {}
        self._consensus_group: Tuple[str, ...] = ()
        #: kinds of unregistered automata: introspection over already-
        #: delivered messages (:meth:`kind_of`) keeps working after a
        #: retirement, while new sends to the name still fail loudly
        self._removed_kinds: Dict[str, str] = {}

    # ------------------------------------------------------------------
    def register(self, automaton: Automaton) -> None:
        """Record the kind of a named automaton (called by the kernel)."""
        self._kinds[automaton.name] = automaton.kind
        self._removed_kinds.pop(automaton.name, None)
        self._cleared.clear()

    def unregister(self, name: str) -> None:
        """Forget a retired automaton (the reconfiguration layer's removal).

        Any later send to or from the name raises
        :class:`~repro.ioa.errors.UnknownProcessError` — a retired server is
        gone, not silent.  The name is also dropped from any replica group or
        consensus group it appeared in, keeping :meth:`describe` honest.
        :meth:`kind_of` keeps answering from a tombstone, so sessions that
        collected replies from the server *before* its retirement can still
        account rounds for them.
        """
        if name not in self._kinds:
            raise UnknownProcessError(name)
        self._removed_kinds[name] = self._kinds[name]
        del self._kinds[name]
        self._cleared.clear()
        self._replica_groups = {
            obj: tuple(s for s in group if s != name)
            for obj, group in self._replica_groups.items()
        }
        self._consensus_group = tuple(m for m in self._consensus_group if m != name)

    def update_replica_group(self, object_id: str, group: Tuple[str, ...]) -> None:
        """Re-point one object's replica group (a committed reconfiguration)."""
        self._replica_groups[object_id] = tuple(group)

    def set_replica_groups(self, groups: Mapping[str, Tuple[str, ...]]) -> None:
        """Record the object → replica-group placement of the built system.

        Clients reach every replica the way they reached the single copy
        (client↔server channels) and replicas of a group may gossip over the
        ordinary server↔server channels, so no *rules* change — but the
        topology knows the grouping, which keeps ``describe()`` honest and
        lets tools ask which servers co-hold an object.
        """
        self._replica_groups = {obj: tuple(group) for obj, group in groups.items()}

    def set_consensus_group(self, group: Iterable[str]) -> None:
        """Record the replicated-coordinator group of the built system.

        Empty (the default) means the coordinator — if the protocol has one —
        is a single designated storage server, exactly the seed's setting.
        The SNOW checkers consult this to treat the group as *one logical
        metadata server* (see :mod:`repro.core.snow`).
        """
        self._consensus_group = tuple(group)

    def consensus_group(self) -> Tuple[str, ...]:
        """The replicated-coordinator members (empty when unreplicated)."""
        return self._consensus_group

    def replica_group(self, object_id: str) -> Tuple[str, ...]:
        """The replica group registered for ``object_id`` (empty if unknown)."""
        return self._replica_groups.get(object_id, ())

    def kind_of(self, name: str) -> str:
        try:
            return self._kinds[name]
        except KeyError:
            try:
                return self._removed_kinds[name]
            except KeyError:
                raise UnknownProcessError(name) from None

    def is_client(self, name: str) -> bool:
        return self.kind_of(name) in ("reader", "writer", "client")

    def is_server(self, name: str) -> bool:
        return self.kind_of(name) == "server"

    def channel_class(self, src: str, dst: str) -> str:
        """Coarse channel label (``c2s``/``s2c``/``s2s``/``c2c``) for the
        observability plane's per-channel message counters.  Unknown names
        (a retired automaton whose tombstone also expired) fall back to the
        server side, which keeps the hook total-function cheap."""
        try:
            src_client = self.is_client(src)
        except Exception:
            src_client = False
        try:
            dst_client = self.is_client(dst)
        except Exception:
            dst_client = False
        if src_client:
            return "c2c" if dst_client else "c2s"
        return "s2c" if dst_client else "s2s"

    # ------------------------------------------------------------------
    def check_send(self, src: str, dst: str) -> None:
        """Raise if a send from ``src`` to ``dst`` violates the topology.  A
        pair that passed is remembered in ``_cleared`` until the membership
        or a rule changes (the set is emptied in place, never replaced); the
        kernel asks only for a pair not in it."""
        if (src, dst) in self._cleared:
            return
        if src not in self._kinds:
            raise UnknownProcessError(src)
        if dst not in self._kinds:
            raise UnknownProcessError(dst)
        if (src, dst) in self.extra_forbidden:
            raise CommunicationNotAllowedError(src, dst, "explicitly forbidden pair")
        if src == dst:
            raise CommunicationNotAllowedError(src, dst, "self-sends are not modelled")
        src_client = self.is_client(src)
        dst_client = self.is_client(dst)
        if src_client and dst_client and not self.allow_client_to_client:
            raise CommunicationNotAllowedError(
                src, dst, "client-to-client communication is disallowed in this setting"
            )
        if (not src_client) and (not dst_client) and not self.allow_server_to_server:
            raise CommunicationNotAllowedError(
                src, dst, "server-to-server communication is disallowed in this setting"
            )
        self._cleared.add((src, dst))

    def allows(self, src: str, dst: str) -> bool:
        """Boolean form of :meth:`check_send`."""
        try:
            self.check_send(src, dst)
        except CommunicationNotAllowedError:
            return False
        return True

    # ------------------------------------------------------------------
    def describe(self) -> str:
        clients = sorted(n for n in self._kinds if self.is_client(n))
        servers = sorted(n for n in self._kinds if self.is_server(n))
        base = (
            f"Topology(clients={clients}, servers={servers}, "
            f"c2c={'allowed' if self.allow_client_to_client else 'disallowed'}"
        )
        if self._replica_groups and any(len(g) > 1 for g in self._replica_groups.values()):
            groups = "; ".join(
                f"{obj}→[{','.join(group)}]" for obj, group in self._replica_groups.items()
            )
            base += f", replicas: {groups}"
        if self._consensus_group:
            base += f", consensus: [{','.join(self._consensus_group)}]"
        return base + ")"


class FaultPlane:
    """Optional network-conditions hook consulted by the simulation kernel.

    The kernel calls these methods **only when a plane is installed**; the
    default (``fault_plane=None``) path is untouched, which is what guarantees
    that fault-free runs remain identical to the paper's reliable model.

    The base class implements the reliable semantics, so a subclass overrides
    only the aspects it perturbs.  The contract:

    * :meth:`on_send` — called instead of the kernel's own delivery enqueue;
      the plane decides how many copies of ``message`` become pending (0 = the
      message is lost or held) and with what ``ready_at`` stamp, by calling
      ``kernel.enqueue_delivery``.
    * :meth:`before_step` — called at the top of every kernel step, and again
      each time the kernel moves its clock; the plane applies what is due at
      ``kernel.now()``, moving messages between its holding areas and the
      kernel's pending set (crash onsets, partition heals, retransmissions).
    * :meth:`on_idle` — called when nothing pending is ripe; returns the
      plane's next boundary strictly after ``kernel.now()`` (a held
      message's release, a crash edge), or ``None``.  The kernel moves its
      clock to the earliest of that, the next arrival and the next timer,
      then calls :meth:`before_step`.
    * :meth:`suppress_delivery` — called for each delivery about to execute;
      returning ``True`` consumes the scheduler step without activating the
      destination automaton (used for at-most-once dedup of duplicated or
      retransmitted copies, so protocols keep exactly-once processing).
    * :meth:`describe_stuck` — one line the kernel appends to a
      :class:`~repro.ioa.errors.LivenessError`: what the plane knows about
      why the run cannot progress (crashed servers, mail parked forever).

    A plane keeps no clock of its own and never moves the kernel's: it reads
    ``now()``.  Which events are ripe is the kernel's rule, not the plane's.
    """

    def on_attach(self, kernel: Any) -> None:
        """Called once when the plane is installed on a kernel."""

    def on_send(self, message: Any, kernel: Any) -> None:
        """Reliable default: exactly one immediately-deliverable copy."""
        kernel.enqueue_delivery(message)

    def before_step(self, kernel: Any) -> None:
        """Called at the top of every kernel step."""

    def on_idle(self, kernel: Any) -> Optional[int]:
        """The plane's next boundary after ``kernel.now()`` (``None`` = none)."""
        return None

    def suppress_delivery(self, message: Any, kernel: Any) -> bool:
        """``True`` = swallow this delivery (duplicate copy); default never."""
        return False

    def suppress_timeout(self, timeout: Any, kernel: Any) -> bool:
        """``True`` = swallow this timeout firing (e.g. its owner is
        crashed; the plane may ``kernel.reschedule_timeout`` it to fire at
        recovery instead); default never."""
        return False

    def on_remove(self, name: str, kernel: Any) -> None:
        """Called when the kernel retires an automaton mid-run; the plane
        drops any transport state it holds for the name (held mail, crash
        tracking).  Default: nothing held, nothing to do."""

    def describe(self) -> str:
        return type(self).__name__

    def describe_stuck(self) -> str:
        """One line appended to the kernel's liveness errors: what the plane
        knows about why the run cannot progress (empty = nothing to add)."""
        return ""


@dataclass(frozen=True)
class SystemSetting:
    """A named point in the design space of Figure 1(a).

    ``num_readers`` / ``num_writers`` give the client population,
    ``num_servers`` the number of shards, and ``c2c`` whether client-to-client
    communication is allowed.  The feasibility search runs each one's schedules.
    """

    name: str
    num_readers: int
    num_writers: int
    num_servers: int
    c2c: bool

    @property
    def num_clients(self) -> int:
        return self.num_readers + self.num_writers

    def is_mwsr(self) -> bool:
        """Multi-writer single-reader (the setting of algorithm A)."""
        return self.num_readers == 1

    def is_swmr(self) -> bool:
        """Single-writer multi-reader (the setting of the original theorem)."""
        return self.num_writers == 1 and self.num_readers >= 2

    def describe(self) -> str:
        return (
            f"{self.name}: {self.num_writers} writer(s), {self.num_readers} reader(s), "
            f"{self.num_servers} server(s), C2C {'allowed' if self.c2c else 'disallowed'}"
        )


def standard_settings() -> Tuple[SystemSetting, ...]:
    """The settings enumerated by Figure 1(a), plus the classic 3-client one.

    * ``two-clients``: one writer, one reader (the open question of the
      original paper, closed in Section 5).
    * ``mwsr``: two writers, single reader (three are beyond a quick search).
    * ``three-clients``: one writer, two readers (the original SNOW setting).

    Each appears with C2C allowed and disallowed.
    """
    settings = []
    for c2c in (True, False):
        suffix = "c2c" if c2c else "no-c2c"
        settings.append(SystemSetting(f"two-clients-{suffix}", 1, 1, 2, c2c))
        settings.append(SystemSetting(f"mwsr-{suffix}", 1, 2, 2, c2c))
        settings.append(SystemSetting(f"three-clients-{suffix}", 2, 1, 2, c2c))
    return tuple(settings)
