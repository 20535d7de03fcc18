"""The deterministic discrete-event simulation kernel.

This is the substrate on which every protocol in the repository runs.  It
plays the role of the composed I/O automaton of the paper: it owns the set of
automata, the reliable asynchronous channels, the external invocation events
and the global execution trace.  Asynchrony is embodied by the pluggable
:class:`~repro.ioa.scheduler.Scheduler`, which at each step picks one pending
event (a message delivery or a transaction invocation) to execute.

Guarantees provided (matching the paper's model, Section 2):

* **Reliable channels** — every sent message is eventually deliverable and is
  delivered at most once, uncorrupted.  The kernel never drops messages; a
  run ends only when no pending events remain or the step bound is hit.
* **Asynchrony** — the scheduler may interleave deliveries and invocations in
  any order; per-channel FIFO is *not* assumed (the paper does not assume
  it either).
* **Well-formed clients** — a client has at most one outstanding transaction;
  queued transactions are only offered for invocation once the previous one
  has responded and any explicit ``after`` dependencies have completed.  A
  reader is handed only READs and a writer only WRITEs.
* **Determinism** — given the same automata, workload, scheduler and seed the
  produced trace is identical, which makes every experiment and every failure
  replayable.
"""

from __future__ import annotations

import gc
import itertools
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Deque, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from .actions import _MUTABLE, ActionKind, Keys, Message, PayloadLayouts, _freeze_value, _freeze_values
from .automaton import (
    Automaton,
    Await,
    ClientAutomaton,
    Context,
    Send,
    SessionState,
)
from .errors import (
    DuplicateProcessError,
    LivenessError,
    SessionError,
    SimulationError,
    UnknownProcessError,
    WellFormednessError,
)
from .frontier import EventFrontier
from .network import FaultPlane, Topology
from .scheduler import (
    FIFOScheduler,
    PendingDelivery,
    PendingEvent,
    PendingInvocation,
    PendingTimeout,
    Scheduler,
)
from .trace import Trace, TraceMode

#: the kernel builds its pending deliveries, invocations and timers without a
#: constructor frame, as :meth:`PayloadLayouts.message` builds a message: on
#: the writable twin, then frozen (see :class:`~repro.ioa.actions.FrozenRecord`)
_new_record = object.__new__
_WritableDelivery = PendingDelivery._writable
_WritableInvocation = PendingInvocation._writable
_WritableTimeout = PendingTimeout._writable

#: the transaction kind each client kind may be handed (the paper's model:
#: read clients issue only READs, write clients only WRITEs)
_RUNS_KIND = {"reader": "read", "writer": "write"}
#: the prefix of a kernel-chosen transaction id, by transaction kind
#: (``T`` for anything else)
_ID_PREFIX = {"read": "R", "write": "W"}


@dataclass(slots=True)
class TransactionRecord:
    """Everything the kernel knows about one submitted transaction (slotted:
    a full run keeps one per transaction, and an instance ``__dict__`` would
    cost more than its fields)."""

    txn_id: Any
    txn: Any
    client: str
    submitted_at: int = 0
    invoke_index: Optional[int] = None
    respond_index: Optional[int] = None
    result: Any = None
    rounds: int = 0
    messages_sent: int = 0
    annotations: Dict[str, Any] = field(default_factory=dict)
    #: virtual-clock stamps (kernel steps + fault-plane time jumps); only
    #: populated when a fault plane is installed.  Trace-index latency is
    #: blind to virtual-time delays (a latency model adds no trace actions),
    #: so "latency under fault" must be measured on this clock instead.
    invoke_vtime: Optional[int] = None
    respond_vtime: Optional[int] = None
    #: transaction ids that must have responded before this one is invoked
    after: Tuple[Any, ...] = ()

    @property
    def complete(self) -> bool:
        return self.respond_index is not None

    @property
    def invoked(self) -> bool:
        return self.invoke_index is not None

    def latency_steps(self) -> Optional[int]:
        """Number of trace steps between invocation and response."""
        if self.invoke_index is None or self.respond_index is None:
            return None
        return self.respond_index - self.invoke_index

    def latency_virtual(self) -> Optional[int]:
        """Virtual-time latency (only measured under a fault plane)."""
        if self.invoke_vtime is None or self.respond_vtime is None:
            return None
        return self.respond_vtime - self.invoke_vtime

    def describe(self) -> str:
        status = "complete" if self.complete else ("running" if self.invoked else "queued")
        return f"{self.txn_id} @ {self.client}: {status}, rounds={self.rounds}, result={self.result!r}"


class Simulation:
    """The composed system: automata + channels + scheduler + trace."""

    def __init__(
        self,
        topology: Optional[Topology] = None,
        scheduler: Optional[Scheduler] = None,
        max_steps: int = 200_000,
        fault_plane: Optional[FaultPlane] = None,
        obs: Optional[Any] = None,
        trace_mode: Optional[TraceMode] = None,
    ) -> None:
        self.topology = topology if topology is not None else Topology()
        self.scheduler = scheduler if scheduler is not None else FIFOScheduler()
        self.max_steps = max_steps
        #: ``trace_mode`` selects record retention (see
        #: :class:`~repro.ioa.trace.TraceMode`); ``None``/``full`` keeps
        #: every action.  Retention never touches scheduling state, so the
        #: *executed* run is identical in every mode; only what gets
        #: recorded changes.
        self.trace = Trace(mode=trace_mode)
        self.fault_plane = fault_plane
        if fault_plane is not None:
            fault_plane.on_attach(self)
        #: optional observability plane (see :mod:`repro.obs`): a passive
        #: listener — trace observer plus mailbox hooks — that appends no
        #: actions and never touches scheduler or RNG state, so the trace is
        #: identical with or without it.  ``None`` skips every hook.
        self.obs = obs
        if obs is not None:
            obs.on_attach(self)

        self._automata: Dict[str, Automaton] = {}
        self._contexts: Dict[str, Context] = {}
        #: the incrementally maintained pending-event index (deliveries,
        #: timers, ready invocations) — see :mod:`repro.ioa.frontier`.
        self._frontier = EventFrontier()
        #: where :meth:`advance_to` last moved the virtual clock (see
        #: :meth:`now`); never moves backwards.
        self._clock = 0
        self._client_queues: Dict[str, Deque[TransactionRecord]] = {}
        #: client -> registration index; ready invocations are presented in
        #: this order (= the old per-step iteration over ``_client_queues``).
        self._client_order: Dict[str, int] = {}
        self._client_order_counter = itertools.count(1)
        #: dependency-triggered invocation readiness: the current queue
        #: head's ``after`` deps per client, and the reverse index mapping a
        #: dep txn id to the clients whose head waits on it.  Heads are
        #: re-evaluated only when a trigger fires (txn completion, head
        #: change, a dep id materialising as a record) — never per step.
        self._head_deps: Dict[str, Tuple[Any, ...]] = {}
        self._dep_waiters: Dict[Any, Set[str]] = {}
        self._sessions: Dict[str, SessionState] = {}
        #: every submitted transaction's record in submission order (records
        #: are only ever added, so insertion order is that order)
        self._records: Dict[Any, TransactionRecord] = {}
        #: names every submission that brings no id (``R``/``W``/``T`` share it)
        self._txn_counter = itertools.count(1)
        self._enqueue_counter = itertools.count(1)
        #: message ids are a function of the simulation, not the interpreter
        self._msg_ids = itertools.count()
        #: the key layouts of sent payloads and recorded action infos: one
        #: shared keys tuple per key set
        layouts = self._layouts = PayloadLayouts()
        #: the info of ``send`` actions, ``{"phase": p}``, as ``(info_keys,
        #: info_values)``: one shared pair of tuples per phase label (a few
        #: literals) instead of one values tuple per message
        self._phase_info: Dict[str, Tuple[Keys, Tuple[str, ...]]] = {"": ((), ())}
        #: the ``info_keys`` of an in-session ``recv`` (its values are the
        #: session's :attr:`SessionState.recv_info`)
        self._session_keys = layouts[("session",)][0]
        #: the ``info_keys`` of every ``INV`` and every ``RESP`` action
        self._invoke_keys = layouts[("txn", "txn_kind")][0]
        self._respond_keys = layouts[("txn", "result")][0]
        #: the pairs ``Topology.check_send`` has cleared (emptied in place)
        self._cleared_pairs = self.topology._cleared
        self._steps_taken = 0
        self._started = False

    # ------------------------------------------------------------------
    # System construction
    # ------------------------------------------------------------------
    def add_automaton(self, automaton: Automaton) -> Automaton:
        """Register an automaton — before the run, or dynamically mid-run.

        Mid-run registration (the reconfiguration layer spawning a fresh
        replica or consensus member) records the START action at the point
        of joining and runs ``on_start`` immediately, so late automata get
        the same life-cycle as founding ones.
        """
        if automaton.name in self._automata:
            raise DuplicateProcessError(automaton.name)
        self._automata[automaton.name] = automaton
        self.topology.register(automaton)
        self._contexts[automaton.name] = Context(self, automaton.name)
        if isinstance(automaton, ClientAutomaton):
            self._client_queues[automaton.name] = deque()
            self._client_order[automaton.name] = next(self._client_order_counter)
        if self._started:
            self.trace.record(ActionKind.START, automaton.name)
            automaton.on_start(self._contexts[automaton.name])
        return automaton

    def remove_automaton(self, name: str, force: bool = False) -> bool:
        """Retire an automaton mid-run (the reconfiguration removal path).

        Returns ``False`` — removing nothing — while pending deliveries
        still involve the automaton (either direction: a message *from* a
        retired process must die with it too, or its receiver would reply to
        a ghost), unless ``force`` is set (then they are dropped with the
        automaton; the reconfig driver only forces after a drain window).
        The automaton's :meth:`~repro.ioa.automaton.Automaton.on_retire`
        runs first, so what it sends there counts as pending.
        Timers owned by the automaton die with it, and the fault plane is
        told to drop any transport state it holds for the name.  Clients
        with queued or in-flight transactions cannot be removed — that
        would orphan their records.
        """
        automaton = self.automaton(name)
        if isinstance(automaton, ClientAutomaton):
            if name in self._sessions or self._client_queues.get(name):
                raise SimulationError(
                    f"cannot retire client {name!r} with queued or in-flight transactions"
                )
        automaton.on_retire(self._contexts[name])
        in_flight = [
            d for d in self._frontier.deliveries()
            if d.message.dst == name or d.message.src == name
        ]
        if in_flight and not force:
            return False
        if in_flight:
            for delivery in in_flight:
                self._frontier.remove_delivery(delivery)
            if self.obs is not None:
                for delivery in in_flight:
                    self.obs.on_dequeue(delivery.message)
        self._frontier.remove_timeouts_for_owner(name)
        if self.fault_plane is not None:
            self.fault_plane.on_remove(name, self)
        self._record_internal(name, {"lifecycle": "retired"})
        del self._automata[name]
        del self._contexts[name]
        if self._client_queues.pop(name, None) is not None:
            order = self._client_order.pop(name, None)
            if order is not None:
                self._frontier.clear_ready(order, name)
            self._unwatch_deps(name)
        self.topology.unregister(name)
        return True

    def add_automata(self, automata: Iterable[Automaton]) -> None:
        for automaton in automata:
            self.add_automaton(automaton)

    def automaton(self, name: str) -> Automaton:
        try:
            return self._automata[name]
        except KeyError:
            raise UnknownProcessError(name) from None

    def automata(self) -> Tuple[Automaton, ...]:
        return tuple(self._automata.values())

    def servers(self) -> Tuple[str, ...]:
        return tuple(name for name, a in self._automata.items() if a.is_server())

    def clients(self) -> Tuple[str, ...]:
        return tuple(name for name, a in self._automata.items() if a.is_client())

    # ------------------------------------------------------------------
    # Workload submission
    # ------------------------------------------------------------------
    def submit(self, client: str, txn: Any, txn_id: Any = None, after: Sequence[Any] = ()) -> Any:
        """Queue ``txn`` for invocation at ``client``; returns its id.

        ``after`` lists transaction ids that must have *responded* before this
        transaction may be invoked — this is how experiments express the
        real-time orderings the paper's constructions rely on ("R1 begins
        after W completes").  Within one client, queued transactions are
        invoked in submission order (well-formedness).

        The id is ``txn_id``, else the transaction's own, else the next from
        this simulation's counter — ``R<n>``, ``W<n>`` or ``T<n>`` by the
        transaction's ``kind``, one sequence for all three — so a run's ids
        do not depend on what ran before it in the process.  A transaction
        whose ``txn_id`` is ``""`` is queued as a copy carrying the chosen
        id.  A reader is handed only ``read`` transactions and a writer only
        ``write`` ones; anything else is refused here, before any step.
        """
        queue = self._client_queues.get(client)
        if queue is None:
            raise UnknownProcessError(client)
        kind = getattr(txn, "kind", None)
        client_kind = self._automata[client].kind
        runs = _RUNS_KIND.get(client_kind)
        if runs is not None and kind != runs:
            raise WellFormednessError(
                f"{client_kind} {client!r} runs only {runs} transactions, not {txn!r}"
            )
        if txn_id is None:
            txn_id = getattr(txn, "txn_id", None)
        if txn_id is None or txn_id == "":
            txn_id = f"{_ID_PREFIX.get(kind, 'T')}{next(self._txn_counter)}"
        if getattr(txn, "txn_id", None) == "":
            txn = replace(txn, txn_id=txn_id)
        if txn_id in self._records:
            raise WellFormednessError(f"transaction id {txn_id!r} submitted twice")
        record = TransactionRecord(txn_id, txn, client, next(self._enqueue_counter))
        if after:  # set apart: a keyword argument costs the generated __init__ more
            record.after = tuple(after)
        self._records[txn_id] = record
        queue.append(record)
        if len(queue) == 1:
            self._watch_head(client)
        # A head waiting on this (previously unknown, hence trivially
        # satisfied) txn id must be re-blocked now that the dep is a real,
        # incomplete record.
        waiters = self._dep_waiters.get(txn_id)
        if waiters:
            for waiter in tuple(waiters):
                self._refresh_ready(waiter)
        return txn_id

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def transaction_record(self, txn_id: Any) -> Optional[TransactionRecord]:
        return self._records.get(txn_id)

    def transaction_records(self) -> Tuple[TransactionRecord, ...]:
        return tuple(self._records.values())

    def incomplete_transactions(self) -> Tuple[TransactionRecord, ...]:
        """The submitted transactions that have not responded, in submission
        order (one walk of the records, reading the slot ``complete`` reads)."""
        return tuple([r for r in self._records.values() if r.respond_index is None])

    @property
    def steps_taken(self) -> int:
        return self._steps_taken

    def pending_deliveries(self) -> Tuple[PendingDelivery, ...]:
        """The in-flight messages (read-only view, enqueue order)."""
        return tuple(self._frontier.deliveries())

    def pending_timeouts(self) -> Tuple[PendingTimeout, ...]:
        """The armed-but-unfired timers (read-only view, arming order)."""
        return tuple(self._frontier.timeouts())

    def now(self) -> int:
        """The run's one virtual clock: the step counter, or further on where
        :meth:`advance_to` moved it.  Timers, ``ready_at`` stamps and fault
        windows all read this clock."""
        steps, clock = self._steps_taken, self._clock
        return steps if steps > clock else clock

    def advance_to(self, step: int) -> None:
        """Move the virtual clock forward to ``step`` (never backwards).  The
        only way time jumps; :meth:`step` moves it when nothing is ripe (so a
        timeout is long compared to message delay, but finite)."""
        if step > self._clock:
            self._clock = int(step)

    def extract_deliveries(self, predicate) -> List[PendingDelivery]:
        """Remove and return the pending deliveries matching ``predicate``.

        Used by fault planes to pull in-flight messages back out of the
        network (e.g. when their destination server crashes).  The reliable
        kernel never calls this itself.  Single pass: the predicate is
        evaluated once per delivery, and removal is O(1) per match.
        """
        taken = [d for d in self._frontier.deliveries() if predicate(d)]
        for delivery in taken:
            self._frontier.remove_delivery(delivery)
        if taken and self.obs is not None:
            for delivery in taken:
                self.obs.on_dequeue(delivery.message)
        return taken

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Record start actions and call ``on_start`` hooks (idempotent)."""
        if self._started:
            return
        self._started = True
        self.scheduler.reset()
        for name, automaton in self._automata.items():
            self.trace.record(ActionKind.START, name)
            automaton.on_start(self._contexts[name])

    def pending_events(self) -> List[PendingEvent]:
        """The events the scheduler may choose from right now.

        Only ripe events (a stamp the clock has reached), in the canonical
        order — deliveries in enqueue order, timeouts in arming order, ready
        invocations in client-registration order — exactly as the
        pre-frontier per-step rebuild produced them.
        """
        return self._frontier.events(self.now)

    def step(self) -> bool:
        """Execute one scheduler-chosen event.  Returns ``False`` if idle.

        The scheduler is offered only ripe events.  The fault plane's
        ``before_step`` applies what is due at the clock; while nothing is
        ripe, the clock moves to the next boundary (the earliest arrival,
        timer or :meth:`FaultPlane.on_idle` boundary) and what is due there is
        applied, so no crash or heal is jumped over.  Idle means nothing is
        pending and no boundary is left.
        """
        if not self._started:
            self.start()
        plane, frontier = self.fault_plane, self._frontier
        if plane is not None:
            plane.before_step(self)
        while frontier.idle(self.now):
            boundaries = [
                boundary
                for boundary in (
                    frontier.next_delivery_ready(),
                    frontier.next_timeout_ready(),
                    plane.on_idle(self) if plane is not None else None,
                )
                if boundary is not None
            ]
            if not boundaries:
                return False
            boundary = min(boundaries)
            if boundary <= self.now():
                raise SimulationError(f"{plane.describe()}: next boundary {boundary} is not after now")
            self.advance_to(boundary)
            if plane is not None:
                plane.before_step(self)
        if self._steps_taken >= self.max_steps:
            raise LivenessError(
                f"simulation exceeded max_steps={self.max_steps} with {len(self.pending_events())} "
                "pending events" + self._stuck_line()
            )
        event = self.scheduler.pick(frontier, self)
        self._steps_taken += 1
        if type(event) is PendingDelivery:
            frontier.remove_delivery(event)
            if self.obs is not None:
                self.obs.on_dequeue(event.message)
            self._deliver(event.message)
        elif type(event) is PendingTimeout:
            frontier.remove_timeout(event)
            self._fire_timeout(event)
        elif type(event) is PendingInvocation:
            queue = self._client_queues[event.client]
            if not queue or queue[0].txn_id != event.txn_id:
                raise SimulationError("scheduler chose a stale invocation event")
            queue.popleft()
            self._invoke(event.client, event.txn, event.txn_id)
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown pending event {event!r}")
        return True

    def run(self, max_new_steps: Optional[int] = None) -> Trace:
        """Run until idle (or until ``max_new_steps`` more events executed).

        Without a budget the loop only stops when the system is idle or the
        kernel's ``max_steps`` guard trips (raising :class:`LivenessError`).

        The cyclic garbage collector is paused while the loop runs: a run
        builds no reference cycles per event (this paragraph is pinned by
        ``tests/ioa/test_collector_contract.py``), so its passes over the
        growing trace find nothing and cost up to a third of a long run.  Every
        exit path leaves the collector as it was found, after handing the
        run's survivors to the oldest generation so the next young passes do
        not walk the finished trace.  A caller that disabled the collector
        itself (a nested ``run()`` included) and a loop over :meth:`step` are
        left alone.  Cycles a user automaton does build are reclaimed only
        after ``run()`` returns.
        """
        paused = gc.isenabled()
        if paused:
            gc.disable()
        try:
            executed = 0
            while max_new_steps is None or executed < max_new_steps:
                if not self.step():
                    break
                executed += 1
        finally:
            if paused:
                # O(1) hand-over to the oldest generation (via the permanent
                # one), unless the host keeps frozen objects of its own there
                if not gc.get_freeze_count():
                    gc.freeze()
                    gc.unfreeze()
                gc.enable()
        return self.trace

    def run_to_completion(self) -> Trace:
        """Run until idle; raise :class:`LivenessError` if transactions remain."""
        self.run()
        incomplete = self.incomplete_transactions()
        if incomplete:
            names = ", ".join(str(r.txn_id) for r in incomplete)
            raise LivenessError(
                f"simulation went idle with incomplete transactions: {names}" + self._stuck_line()
            )
        return self.trace

    def _stuck_line(self) -> str:
        """What the fault plane knows about a stuck run, as a line to append
        to a :class:`LivenessError` (empty without a plane)."""
        stuck = self.fault_plane.describe_stuck() if self.fault_plane is not None else ""
        return f"\n{stuck}" if stuck else ""

    # ------------------------------------------------------------------
    # Internal machinery: sends, deliveries, sessions
    # ------------------------------------------------------------------
    def enqueue_delivery(self, message: Message, ready_at: int = 0) -> PendingDelivery:
        """Make ``message`` a pending delivery (the fault plane calls this).

        ``ready_at`` is the virtual time at which the delivery ripens: the
        kernel offers it to the scheduler only once :meth:`now` reaches it.
        The reliable path always uses ``0`` (ripe at once).
        """
        delivery = _new_record(_WritableDelivery)
        delivery.message = message
        delivery.enqueued_at = next(self._enqueue_counter)
        delivery.ready_at = ready_at
        delivery.__class__ = PendingDelivery
        self._frontier.add_delivery(delivery)
        if self.obs is not None:
            self.obs.on_enqueue(delivery)
        return delivery

    def set_timeout(self, owner: str, delay: int, info: Mapping[str, Any]) -> PendingTimeout:
        """Arm a timer for ``owner`` to fire ``delay`` virtual-time steps from
        now (used through ``Context.set_timeout``)."""
        if owner not in self._automata:
            raise UnknownProcessError(owner)
        return self._arm(owner, dict(info), self.now() + max(1, int(delay)))

    def reschedule_timeout(self, timeout: PendingTimeout, ready_at: int) -> PendingTimeout:
        """Re-arm a (suppressed) timeout at a later virtual time — fault
        planes use this to defer a crashed owner's timer to its recovery."""
        return self._arm(timeout.owner, timeout.info, max(int(ready_at), timeout.ready_at))

    def _arm(self, owner: str, info: Mapping[str, Any], ready_at: int) -> PendingTimeout:
        timeout = _new_record(_WritableTimeout)
        timeout.owner = owner
        timeout.info = info
        timeout.enqueued_at = next(self._enqueue_counter)
        timeout.ready_at = ready_at
        timeout.__class__ = PendingTimeout
        self._frontier.add_timeout(timeout)
        return timeout

    def _fire_timeout(self, timeout: PendingTimeout) -> None:
        if self.fault_plane is not None and self.fault_plane.suppress_timeout(timeout, self):
            return
        self._record_internal(timeout.owner, {"timeout": True, **dict(timeout.info)})
        self.automaton(timeout.owner).on_timeout(dict(timeout.info), self._contexts[timeout.owner])

    def _send_from(
        self, src: str, dst: str, msg_type: str, payload: Mapping[str, Any], phase: str = ""
    ) -> Message:
        if (src, dst) not in self._cleared_pairs:
            self.topology.check_send(src, dst)
        message = self._layouts.message(msg_type, src, dst, payload, next(self._msg_ids))
        try:
            info_keys, info_values = self._phase_info[phase]
        except KeyError:
            info_keys, info_values = self._phase_info[phase] = (self._layouts[("phase",)][0], (phase,))
        self.trace.record(ActionKind.SEND, src, message, info_keys, info_values)
        if self.fault_plane is None:
            self.enqueue_delivery(message)
        else:
            self.fault_plane.on_send(message, self)
        session = self._sessions.get(src)
        if session is not None:
            session.sends += 1
            record = self._records.get(session.txn_id)
            if record is not None:
                record.messages_sent += 1
        return message

    def _record_internal(self, actor: str, info: Mapping[str, Any]) -> None:
        keys, take = self._layouts[tuple(info)]
        self.trace.record(ActionKind.INTERNAL, actor, None, keys, _freeze_values(take(info)))

    def annotate_transaction(self, txn_id: Any, fields: Mapping[str, Any]) -> None:
        """Attach metadata to a transaction record (public form used by
        automaton contexts and fault planes).  ``_accumulate: True`` in
        ``fields`` adds numeric values onto existing keys instead of
        overwriting."""
        self._annotate_transaction(txn_id, fields)

    def _annotate_transaction(self, txn_id: Any, fields: Mapping[str, Any]) -> None:
        record = self._records.get(txn_id)
        if record is None:
            return
        if "_accumulate" not in fields:
            record.annotations.update(fields)
            return
        fields = dict(fields)
        accumulate = bool(fields.pop("_accumulate", False))
        for key, value in fields.items():
            if (
                accumulate
                and key in record.annotations
                and isinstance(record.annotations[key], (int, float))
                and isinstance(value, (int, float))
            ):
                record.annotations[key] += value
            else:
                record.annotations[key] = value

    def _deliver(self, message: Message) -> None:
        dst = message.dst
        plane = self.fault_plane
        if plane is not None and plane.suppress_delivery(message, self):
            # A duplicated (or redundantly retransmitted) copy: the delivery
            # consumed a scheduler step but the automaton keeps at-most-once
            # processing, and no trace action is recorded so that the SNOW
            # checkers see exactly the protocol-level exchange.
            return
        automaton = self._automata.get(dst)
        if automaton is None:
            raise UnknownProcessError(dst)
        session = self._sessions.get(dst)
        if session is not None and session.matches(message):
            self.trace.record(ActionKind.RECV, dst, message, self._session_keys, session.recv_info)
            session.collected.append(message)
            if session.ready():
                self._resume_session(session)
            return
        self.trace.record(ActionKind.RECV, dst, message)
        if isinstance(automaton, ClientAutomaton) and not automaton.unmatched_goes_to_handler():
            return
        automaton.on_message(message, self._contexts[dst])

    # -- dependency-triggered invocation readiness ----------------------
    def _watch_head(self, client: str) -> None:
        """Re-point dependency tracking at ``client``'s current queue head
        and re-evaluate its readiness.  Called whenever the head changes."""
        self._unwatch_deps(client)
        queue = self._client_queues.get(client)
        if queue:
            head = queue[0]
            if head.after:
                self._head_deps[client] = head.after
                for dep in head.after:
                    self._dep_waiters.setdefault(dep, set()).add(client)
        self._refresh_ready(client)

    def _unwatch_deps(self, client: str) -> None:
        old = self._head_deps.pop(client, None)
        if old:
            for dep in old:
                waiters = self._dep_waiters.get(dep)
                if waiters is not None:
                    waiters.discard(client)
                    if not waiters:
                        del self._dep_waiters[dep]

    def _refresh_ready(self, client: str) -> None:
        """Recompute whether ``client``'s queue head is invocable and update
        the frontier's ready set accordingly."""
        order = self._client_order.get(client)
        if order is None:
            return
        queue = self._client_queues.get(client)
        if not queue or client in self._sessions:
            self._frontier.clear_ready(order, client)
            return
        head = queue[0]
        records = self._records
        after = head.after
        if not after or all(records[dep].respond_index is not None for dep in after if dep in records):
            invocation = _new_record(_WritableInvocation)
            invocation.client = client
            invocation.txn = head.txn
            invocation.txn_id = head.txn_id
            invocation.enqueued_at = head.submitted_at
            invocation.__class__ = PendingInvocation
            self._frontier.set_ready(order, invocation)
        else:
            self._frontier.clear_ready(order, client)

    def _invoke(self, client: str, txn: Any, txn_id: Any) -> None:
        automaton = self.automaton(client)
        if not isinstance(automaton, ClientAutomaton):
            raise WellFormednessError(f"{client!r} is not a client automaton; cannot invoke transactions on it")
        if client in self._sessions:
            raise WellFormednessError(f"client {client!r} already has an outstanding transaction")
        record = self._records[txn_id]
        txn_kind = getattr(txn, "kind", "txn")
        if isinstance(txn_kind, _MUTABLE):
            txn_kind = _freeze_value(txn_kind)
        name = str(txn_id)
        record.invoke_index = self.trace.record(
            ActionKind.INVOKE, client, None, self._invoke_keys, (name, txn_kind)
        ).index
        if self.fault_plane is not None:
            record.invoke_vtime = self.now()
        ctx = self._contexts[client]
        generator = automaton.run_transaction(txn, ctx)
        session = SessionState(txn, txn_id, client, generator, recv_info=(name,))
        self._sessions[client] = session
        # The invoked txn left the queue: watch the next head (it cannot be
        # ready while this session runs — one outstanding txn per client).
        self._watch_head(client)
        self._advance_session(session, None)

    def _resume_session(self, session: SessionState) -> None:
        pending = session.pending_await
        collected = session.collected
        session.pending_await = None
        session.collected = []
        if pending is not None and pending.counts_as_round:
            if any(self.topology.is_server(m.src) for m in collected):
                session.rounds += 1
                record = self._records.get(session.txn_id)
                if record is not None:
                    record.rounds = session.rounds
        self._advance_session(session, collected)

    def _advance_session(self, session: SessionState, send_value: Any) -> None:
        generator = session.generator
        try:
            while True:
                # ``send(None)`` starts a fresh generator; subsequent resumes
                # pass the list of messages collected by the pending Await.
                effect = generator.send(send_value)
                send_value = None
                if isinstance(effect, Send):
                    self._send_from(session.client, effect.dst, effect.msg_type, effect.payload, effect.phase)
                    continue
                if isinstance(effect, Await):
                    session.pending_await = effect
                    return
                raise SessionError(
                    f"session for {session.txn_id!r} yielded unsupported effect {effect!r}"
                )
        except StopIteration as stop:
            self._finish_session(session, stop.value)

    def _finish_session(self, session: SessionState, result: Any) -> None:
        if session.finished:
            raise SessionError(f"transaction {session.txn_id!r} completed twice")
        session.finished = True
        session.result = result
        record = self._records[session.txn_id]
        # a dict result becomes its sorted items, a list a tuple, a set a frozenset
        frozen = _freeze_value(result)
        record.respond_index = self.trace.record(
            ActionKind.RESPOND, session.client, None, self._respond_keys, (frozen, str(session.txn_id))
        ).index
        record.result = result
        record.rounds = session.rounds
        if self.fault_plane is not None:
            record.respond_vtime = self.now()
        self._sessions.pop(session.client, None)
        # Completion triggers: wake the heads waiting on this txn (the dep
        # is complete for good, so the reverse-index entry can be dropped)
        # and re-evaluate this client's own next head.
        waiters = self._dep_waiters.pop(session.txn_id, None)
        if waiters:
            for waiter in tuple(waiters):
                self._refresh_ready(waiter)
        self._refresh_ready(session.client)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        lines = [
            f"Simulation: {len(self._automata)} automata, {len(self.trace)} actions, "
            f"{len(self._records)} transactions ({len(self.incomplete_transactions())} incomplete)",
            self.topology.describe(),
        ]
        for record in self.transaction_records():
            lines.append("  " + record.describe())
        return "\n".join(lines)
