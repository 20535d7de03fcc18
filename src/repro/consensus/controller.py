"""Automated rebalancing: derive membership changes from observed state.

The :class:`~repro.consensus.reconfig.ReconfigDriver` executes *declarative*
plans — someone still has to notice that a replica died and author the
replacement.  This module closes that loop (ROADMAP: "Automated
rebalancing"): a :class:`ReconfigController` automaton probes every storage
replica on a virtual-time cadence and *derives* :class:`ReconfigRequest`\\ s
from what it observes, feeding them to the driver over the ordinary message
plane (``reconfig-submit``).  Two rules are implemented:

* **replace-dead** — a replica is declared fail-stopped once **every** live
  sibling of its group has answered probes ``fail_after`` ticks newer than
  anything it answered; the controller submits a change swapping it for a
  freshly named replica (``sx.3`` → ``sx.4``), restoring the group to full
  strength.  Detection is *relative* (siblings as unanimous witnesses)
  rather than a wall-clock timeout: virtual time advances per delivered
  event, so under load every ack lags equally, and requiring the whole
  sibling set to complete ``fail_after`` newer probe round-trips makes a
  single starved message (the random schedulers guarantee no fairness)
  very unlikely to masquerade as a failure.  False positives remain
  *possible* — perfect failure detection under asynchrony is impossible —
  and are safe by construction: replacing a live replica is just an
  ordinary joint-consensus change, and the victim is state-synced away
  like any retired member;
* **grow-on-latency** — when the read-quorum probe round-trip of a group
  (the R-th fastest ack) exceeds ``latency_bound`` for ``fail_after``
  consecutive windows, the group is grown by one replica (up to
  :data:`GROW_LIMIT`), the "replicas absorb stragglers" lever.

Everything is deterministic: probes ride kernel virtual-time timeouts, all
observation state lives in the controller, and the probing horizon is
bounded (:data:`MAX_TICKS`) so runs still quiesce.  The controller never touches
the safety machinery — derived changes travel through the same
joint-consensus driver (and the same at-most-one-in-flight rule) as
hand-authored plans, so every safety invariant of the reconfiguration layer
applies verbatim to autonomous changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

from ..ioa.actions import Message
from ..ioa.automaton import Automaton, Context
from ..txn.placement import next_replica_names
from .reconfig import ADMIN_NAME, REPLICA_GROUP, PlacementDirectory

#: The controller automaton's well-known name.
CONTROLLER_NAME = "reconfig-controller"

#: The grow-on-latency rule never grows a group past this many members.
GROW_LIMIT = 5

#: The virtual-time cadence of liveness probes.
PROBE_INTERVAL = 20

#: The probing horizon in ticks, so runs quiesce.
MAX_TICKS = 24


@dataclass(frozen=True)
class ControllerPolicy:
    """The knobs of the rebalancing control loop.

    Probes go out every :data:`PROBE_INTERVAL` steps for :data:`MAX_TICKS`
    ticks.  ``fail_after`` is the number of consecutive unanswered windows
    before a replica is declared fail-stopped (and the breach streak the
    latency rule requires).
    ``latency_bound`` (virtual-time steps; ``None`` disables the rule) is
    the read-quorum probe round-trip above which a group is grown, up to
    :data:`GROW_LIMIT` members.  ``max_actions`` is a safety valve on the
    number of derived changes per run.
    """

    fail_after: int = 3
    latency_bound: Optional[int] = None
    max_actions: int = 4

    def __post_init__(self) -> None:
        if self.fail_after < 1:
            raise ValueError("fail_after must be >= 1")

    def describe(self) -> str:
        rules = ["replace-dead"]
        if self.latency_bound is not None:
            rules.append(f"grow>{self.latency_bound}")
        return (
            f"controller(every {PROBE_INTERVAL}, fail_after={self.fail_after}, "
            f"{'+'.join(rules)})"
        )


class ReconfigController(Automaton):
    """The control-loop automaton: observe → derive → submit.

    Neither client nor server (``kind="admin"``, like the driver): it owns no
    transactions and serves no objects.  Each probe tick it

    1. evaluates the acks of earlier probes (detection),
    2. derives at most one change per object (replace-dead before
       grow-on-latency) and submits it to the driver, and
    3. fans out the next round of ``ctl-probe`` messages.

    The shared directory is read-only from here — all mutation goes through
    the driver so the at-most-one-in-flight rule keeps holding.
    """

    kind = "admin"

    def __init__(
        self,
        policy: ControllerPolicy,
        directory: PlacementDirectory,
        name: str = CONTROLLER_NAME,
    ) -> None:
        super().__init__(name)
        self.policy = policy
        self.directory = directory
        #: replica -> tick of its first probe / newest probe tick it acked,
        #: plus the vtime of its most recent ack (reported in diagnostics)
        self._first_probed_tick: Dict[str, int] = {}
        self._last_ack_tick: Dict[str, int] = {}
        self._last_ack: Dict[str, int] = {}
        #: (tick, object) -> ack round-trips (virtual-time steps)
        self._rtts: Dict[Tuple[int, str], List[int]] = {}
        #: object -> consecutive latency-bound breaches
        self._breaches: Dict[str, int] = {}
        #: replica -> consecutive evaluations the dead rule held (a verdict
        #: needs two in a row: a merely starved ack lands within a window,
        #: a fail-stopped replica stays suspect forever)
        self._suspect: Dict[str, int] = {}
        #: object -> newest probe tick already latency-evaluated
        self._eval_tick: Dict[str, int] = {}
        #: object -> the group a submitted change is moving it to
        self._pending: Dict[str, Tuple[str, ...]] = {}
        #: replicas already declared dead (never re-reported)
        self._dead: Set[str] = set()
        #: names this controller has minted, per object (so replacements
        #: never collide with names a concurrent plan used)
        self._minted: Dict[str, Set[str]] = {}
        self._actions = 0
        self._acks = 0
        self._probes = 0

    # ------------------------------------------------------------------
    def on_start(self, ctx: Context) -> None:
        ctx.set_timeout(PROBE_INTERVAL, tick=1)

    def on_message(self, message: Message, ctx: Context) -> None:
        if message.msg_type != "ctl-ack":
            return
        self._acks += 1
        tick = int(message.get("probe", 0))
        self._last_ack[message.src] = ctx.vtime
        self._last_ack_tick[message.src] = max(
            self._last_ack_tick.get(message.src, 0), tick
        )
        rtt = max(0, ctx.vtime - int(message.get("sent", ctx.vtime)))
        self._rtts.setdefault((tick, str(message.get("object", ""))), []).append(rtt)

    def on_timeout(self, info: Mapping[str, Any], ctx: Context) -> None:
        tick = int(info["tick"])
        self._note_healed(ctx)
        self._detect_and_derive(tick, ctx)
        if tick > MAX_TICKS:
            ctx.internal(controller="stopped", tick=tick, vtime=ctx.vtime)
            return
        probes = self._send_probes(tick, ctx)
        ctx.internal(
            controller="tick",
            tick=tick,
            probes=probes,
            acks=self._acks,
            vtime=ctx.vtime,
        )
        ctx.set_timeout(PROBE_INTERVAL, tick=tick + 1)

    # ------------------------------------------------------------------
    # Observe
    # ------------------------------------------------------------------
    def _send_probes(self, tick: int, ctx: Context) -> int:
        sent = 0
        for object_id in self.directory.placement.objects():
            for replica in self.directory.targets(object_id):
                if self.directory.is_retired(replica) or replica in self._dead:
                    continue
                self._first_probed_tick.setdefault(replica, tick)
                ctx.send(
                    replica,
                    "ctl-probe",
                    {"object": object_id, "probe": tick, "sent": ctx.vtime},
                    phase="controller",
                )
                sent += 1
        self._probes += sent
        return sent

    def _is_dead(self, replica: str, group) -> bool:
        """Relative detection: *every* live sibling has answered probes
        ``fail_after`` ticks newer than anything this replica answered."""
        first = self._first_probed_tick.get(replica)
        if first is None:
            return False
        mine = self._last_ack_tick.get(replica, first - 1)
        witnesses = [
            self._last_ack_tick.get(m, -1)
            for m in group
            if m != replica and m not in self._dead
        ]
        if not witnesses:
            return False  # no live witness left to testify
        return min(witnesses) - mine >= self.policy.fail_after

    # ------------------------------------------------------------------
    # Derive
    # ------------------------------------------------------------------
    def _taken_names(self, object_id: str) -> Tuple[str, ...]:
        minted = self._minted.setdefault(object_id, set())
        return tuple(
            sorted(
                set(self.directory.targets(object_id))
                | self.directory.retired
                | minted
            )
        )

    def _may_act(self, object_id: str) -> bool:
        return (
            not self.directory.in_flight()
            and object_id not in self._pending
            and self._actions < self.policy.max_actions
        )

    def _submit(self, object_id: str, new_group: Tuple[str, ...], ctx: Context) -> None:
        self._actions += 1
        self._pending[object_id] = new_group
        ctx.send(
            ADMIN_NAME,
            "reconfig-submit",
            {"kind": REPLICA_GROUP, "object": object_id, "group": new_group},
            phase="controller",
        )

    def _detect_and_derive(self, tick: int, ctx: Context) -> None:
        now = ctx.vtime
        for object_id in self.directory.placement.objects():
            group = self.directory.group(object_id)
            dead = []
            for m in group:
                if m in self._dead:
                    continue
                if self._is_dead(m, group):
                    self._suspect[m] = self._suspect.get(m, 0) + 1
                    # A probe verdict needs two consecutive windows (a
                    # starved ack recovers within one).
                    if self._suspect[m] >= 2:
                        dead.append(m)
                else:
                    self._suspect.pop(m, None)
            for replica in dead:
                self._dead.add(replica)
                ctx.internal(
                    controller="replica-dead",
                    replica=replica,
                    object=object_id,
                    last_ack=self._last_ack.get(replica, -1),
                    vtime=now,
                )
            # Protected names (the designated coordinator at cf=1) are never
            # replaced by a derived change — the role does not migrate, and a
            # dead coordinator stalls the system with or without its replica.
            gone = tuple(
                m
                for m in group
                if m in self._dead and m not in self.directory.protected
            )
            if gone and self._may_act(object_id):
                replacements = next_replica_names(
                    object_id, self._taken_names(object_id), count=len(gone)
                )
                self._minted[object_id].update(replacements)
                new_group = tuple(m for m in group if m not in gone) + replacements
                ctx.internal(
                    controller="plan-replace",
                    object=object_id,
                    dead=",".join(gone),
                    group=",".join(new_group),
                    vtime=now,
                )
                self._submit(object_id, new_group, ctx)
                continue
            self._check_latency(tick, object_id, group, ctx)

    def _check_latency(self, tick: int, object_id: str, group, ctx: Context) -> None:
        if self.policy.latency_bound is None:
            return
        # Evaluate the newest past tick whose probes have a quorum of acks —
        # under a slow network the acks of a tick can lag more than one
        # window, so "the previous tick" would chronically be empty.
        need = self.directory.read_needed(object_id)[0][1]
        done = [
            t
            for t in range(self._eval_tick.get(object_id, 0) + 1, tick)
            if len(self._rtts.get((t, object_id), ())) >= need
        ]
        if not done:
            return  # no fresh evidence; quorum liveness is the dead rule's business
        newest = max(done)
        self._eval_tick[object_id] = newest
        quorum_rtt = sorted(self._rtts[(newest, object_id)])[need - 1]
        if quorum_rtt > self.policy.latency_bound:
            self._breaches[object_id] = self._breaches.get(object_id, 0) + 1
        else:
            self._breaches[object_id] = 0
            return
        if (
            self._breaches[object_id] >= self.policy.fail_after
            and len(group) < GROW_LIMIT
            and self._may_act(object_id)
        ):
            added = next_replica_names(object_id, self._taken_names(object_id))
            self._minted[object_id].update(added)
            new_group = tuple(group) + added
            self._breaches[object_id] = 0
            ctx.internal(
                controller="plan-grow",
                object=object_id,
                quorum_rtt=quorum_rtt,
                group=",".join(new_group),
                vtime=ctx.vtime,
            )
            self._submit(object_id, new_group, ctx)

    def _note_healed(self, ctx: Context) -> None:
        for object_id, target in tuple(self._pending.items()):
            if self.directory.group(object_id) == target and not self.directory.in_flight():
                del self._pending[object_id]
                ctx.internal(
                    controller="healed",
                    object=object_id,
                    group=",".join(target),
                    vtime=ctx.vtime,
                )
