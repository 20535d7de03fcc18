"""Metamorphic tests for the incremental event frontier.

The kernel used to rebuild the scheduler's pending-event list from scratch
every step; it now maintains the list incrementally (indexed mailboxes, a
timer heap, dependency-triggered invocation readiness — see
:mod:`repro.ioa.frontier`).  The contract is *equivalence*: at every point of
any execution, the incremental frontier must present exactly the events — in
exactly the canonical order — that a from-scratch rebuild over the kernel's
ground-truth state would produce.

The main test here is a randomized interleaving driver: it interleaves every
operation that mutates the frontier (submit with ``after`` dependencies,
steps, timer arming, ``extract_deliveries``, mid-run add/remove of
automata) and re-derives the pending list independently after **every**
operation.  The re-derivation deliberately does not consult the frontier's
internals for ripeness, readiness or ordering — only the raw views and the
kernel's queues/records — so any drift between the incremental index and the
ground truth fails loudly with the operation sequence that produced it.

Since PR 19 the list is no longer the only way out: the kernel tests emptiness
with ``EventFrontier.idle`` and ``FIFOScheduler.pick`` answers with
``EventFrontier.oldest``, neither building the list.  The same driver pins
both to the list after every operation (``idle`` == "the rebuild is empty",
``oldest`` **is** the event ``FIFOScheduler.choose`` indexes), and a cell per
protocol and stack pins the whole trace: FIFO by ``pick`` == FIFO forced
through ``choose``.  A hypothesis test drives the same operations to pin
``RandomScheduler.pick`` and ``ChaosScheduler.pick`` (``ripe_count`` and
``event_at``, no list) to ``pending[choose(pending)]``, draws and counters
included.

Ripeness is the frontier's rule: ``events``, ``idle`` and ``oldest`` hold a
latency-stamped delivery or a timer only once the kernel's clock has reached
its stamp.  The interleaving test injects latency-stamped deliveries, and the
rebuild filters deliveries and timers alike by ``ready_at <= now``.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.workload import WorkloadSpec, generate_workload, submit_workload
from repro.faults import ChaosScheduler
from repro.ioa import (
    Await,
    ClientAutomaton,
    FIFOScheduler,
    Message,
    PendingDelivery,
    PendingInvocation,
    PendingTimeout,
    RandomScheduler,
    Scheduler,
    Send,
    ServerAutomaton,
    Simulation,
    expect_type,
)
from repro.ioa.frontier import EventFrontier
from repro.obs.registry import MetricsRegistry
from repro.protocols import get_protocol, protocol_names

from tests.conftest import build_system


class EchoServer(ServerAutomaton):
    def on_message(self, message, ctx):
        if message.msg_type == "ping":
            ctx.send(message.src, "pong", {"txn": message.get("txn")})


class GossipServer(ServerAutomaton):
    """A server whose timers send messages to whichever peers are alive.

    ``peers`` is a callable so the randomized driver can retire gossip
    servers mid-run: a firing timer only targets survivors.
    """

    def __init__(self, name, peers):
        super().__init__(name)
        self.peers = peers

    def on_timeout(self, info, ctx):
        for peer in self.peers(self.name):
            ctx.send(peer, "gossip", {"from": self.name})

    def on_message(self, message, ctx):
        pass  # gossip is absorbed


class PingClient(ClientAutomaton):
    def __init__(self, name, server):
        super().__init__(name)
        self.server = server

    def run_transaction(self, txn, ctx):
        yield Send(dst=self.server, msg_type="ping", payload={"txn": str(txn)})
        yield Await(matcher=expect_type("pong"), count=1)
        return "done"


def rebuild_pending(sim, client_order):
    """Independently re-derive the canonical pending-event list.

    This is the from-scratch poll the frontier replaced: the deliveries ripe
    at ``now`` in enqueue order, then the armed timers ripe at ``now`` in
    arming order, then — for every client in registration order — the queue head
    whose ``after`` dependencies have all completed (an id with no record
    counts as satisfied) while no session is running at that client.
    """
    rows = []
    now = sim.now()
    for delivery in sorted(sim.pending_deliveries(), key=lambda d: d.enqueued_at):
        if delivery.ready_at <= now:
            rows.append(("deliver", delivery.enqueued_at))
    for timeout in sorted(sim.pending_timeouts(), key=lambda t: t.enqueued_at):
        if timeout.ready_at <= now:
            rows.append(("timeout", timeout.enqueued_at))
    records = sim._records
    for client in client_order:
        queue = sim._client_queues.get(client)
        if not queue or client in sim._sessions:
            continue
        head = queue[0]
        if all(records[dep].complete for dep in head.after if dep in records):
            rows.append(("invoke", client, head.txn_id))
    return rows


def frontier_rows(sim):
    rows = []
    for event in sim.pending_events():
        if isinstance(event, PendingDelivery):
            rows.append(("deliver", event.enqueued_at))
        elif isinstance(event, PendingTimeout):
            rows.append(("timeout", event.enqueued_at))
        elif isinstance(event, PendingInvocation):
            rows.append(("invoke", event.client, event.txn_id))
        else:  # pragma: no cover - no fourth kind exists
            raise AssertionError(event)
    return rows


def assert_frontier_matches_rebuild(sim, client_order, list_first):
    """Every way out of the frontier agrees with the independent rebuild.

    ``list_first`` alternates who gets to ripen the timers: the list, or the
    queries that do not build it."""
    rebuilt = rebuild_pending(sim, client_order)
    if list_first:
        assert frontier_rows(sim) == rebuilt
    frontier = sim._frontier
    assert frontier.idle(sim.now) == (not rebuilt)
    oldest = frontier.oldest(sim.now)
    events = sim.pending_events()
    assert frontier_rows(sim) == rebuilt
    if events:
        assert oldest is events[FIFOScheduler().choose(events, sim)]
    else:
        assert oldest is None


def interleave(seed, turns, check):
    """Run ``turns`` random frontier mutations from ``seed``, then drain the
    run, calling ``check(sim, client_order, turn)`` after every operation."""
    rng = random.Random(seed)
    sim = Simulation(scheduler=RandomScheduler(seed=seed))
    servers = ["s1", "s2"]
    clients = ["c1", "c2", "c3"]
    for server in servers:
        sim.add_automaton(EchoServer(server))
    gossip_alive = ["g1", "g2"]

    def live_peers(me):
        return [g for g in gossip_alive if g != me]

    for name in tuple(gossip_alive):
        sim.add_automaton(GossipServer(name, live_peers))
    client_order = []
    for client in clients:
        sim.add_automaton(PingClient(client, rng.choice(servers)))
        client_order.append(client)

    submitted = []  # every txn id ever submitted
    reserved = [f"X{i}" for i in range(8)]  # ids usable as future deps
    spare_counter = 0

    check(sim, client_order, 1)
    for turn in range(turns):
        op = rng.randrange(9)
        if op == 8:  # a latency-stamped delivery, as a fault plane would enqueue it
            message = Message.make("gossip", "s1", rng.choice(gossip_alive), {"from": "s1"})
            sim.enqueue_delivery(message, ready_at=sim.now() + rng.randrange(0, 6))
        elif op <= 2:  # weighted towards stepping
            if sim.pending_events():
                sim.step()
        elif op == 3:  # submit, sometimes under a (possibly future) dep
            client = rng.choice(clients)
            after = ()
            if submitted and rng.random() < 0.5:
                after = (rng.choice(submitted),)
            elif reserved and rng.random() < 0.5:
                # Depend on an id that does not exist yet: trivially
                # satisfied now, re-blocked if the id is submitted later.
                after = (rng.choice(reserved),)
            if reserved and rng.random() < 0.3:
                txn_id = reserved.pop(rng.randrange(len(reserved)))
            else:
                txn_id = None
            submitted.append(
                sim.submit(client, f"t{len(submitted)}", txn_id=txn_id, after=after)
            )
        elif op == 4:  # arm a timer somewhere
            owner = rng.choice(servers + gossip_alive)
            sim.set_timeout(owner, rng.randrange(0, 6), {"kind": "test"})
        elif op == 5:  # pull matching messages back out of the network
            wanted = rng.choice(["ping", "pong", "gossip"])
            taken = sim.extract_deliveries(lambda d, w=wanted: d.message.msg_type == w)
            assert all(t.message.msg_type == wanted for t in taken)
        elif op == 6:  # spawn a gossip server mid-run
            if len(gossip_alive) < 4:
                spare_counter += 1
                name = f"g{2 + spare_counter}"
                sim.add_automaton(GossipServer(name, live_peers))
                gossip_alive.append(name)
        else:  # retire a gossip server mid-run (in-flight mail dies with it)
            if len(gossip_alive) > 1:
                name = gossip_alive.pop(rng.randrange(len(gossip_alive)))
                assert sim.remove_automaton(name, force=True)
        check(sim, client_order, turn % 2)

    # Drain what remains, the kernel moving its clock to unripe work; the
    # equivalence must hold through completion too.
    guard = 0
    while sim.step():
        check(sim, client_order, guard % 2)
        guard += 1
        assert guard < 10_000
    assert sim.pending_deliveries() == () and sim._frontier.oldest(sim.now) is None


@pytest.mark.parametrize("seed", [0, 1, 7, 23, 91])
def test_random_interleaving_matches_rebuild(seed):
    interleave(seed, 250, assert_frontier_matches_rebuild)


def assert_pick_is_choose_of_the_list(sim, client_order, turn):
    """``RandomScheduler.pick`` and ``ChaosScheduler.pick`` (frontier count
    and indexed lookup) return ``pending[choose(pending)]``, draw the same
    numbers and bump the chaos counters by the same amounts."""
    events = sim.pending_events()
    frontier = sim._frontier
    assert frontier.ripe_count(sim.now()) == len(events)
    for index, event in enumerate(events):
        assert frontier.event_at(index, sim.now()) is event
    if not events:
        return
    for draws in range(3):  # three seeds, so the draws reach past index 0
        by_pick, by_choose = RandomScheduler(seed=turn + draws), RandomScheduler(seed=turn + draws)
        assert by_pick.pick(frontier, sim) is events[by_choose.choose(events, sim)]
        assert by_pick._rng.getstate() == by_choose._rng.getstate()
    picked, chosen = (SimpleNamespace(now=sim.now, obs=SimpleNamespace(registry=MetricsRegistry())) for _ in "ab")
    by_pick, by_choose = ChaosScheduler(seed=len(events)), ChaosScheduler(seed=len(events))
    assert by_pick.pick(frontier, picked) is events[by_choose.choose(events, chosen)]
    assert picked.obs.registry.counter_value("scheduler.chaos_ripe_events") == len(events)
    assert picked.obs.registry.snapshot() == chosen.obs.registry.snapshot()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 120))
def test_random_and_chaos_pick_is_choose_of_the_list(seed, turns):
    interleave(seed, turns, assert_pick_is_choose_of_the_list)


class ListPathFIFO(FIFOScheduler):
    """FIFO that answers through ``choose``: redefining it puts the list-based
    ``pick`` back (the rule in :class:`~repro.ioa.Scheduler`'s docstring)."""

    def choose(self, pending, kernel):
        return super().choose(pending, kernel)


STACKS = {
    "plain": lambda protocol: {},
    "rf3-cf3": lambda protocol: dict(
        replication_factor=3, quorum="majority", consensus_factor=3 if protocol.has_coordinator else 1
    ),
    "rf3": lambda protocol: dict(replication_factor=3, quorum="majority"),
}


@pytest.mark.parametrize("stack", sorted(STACKS))
@pytest.mark.parametrize("protocol", protocol_names())
def test_fifo_by_pick_runs_the_trace_fifo_by_choose_runs(protocol, stack):
    assert ListPathFIFO.pick is Scheduler.pick and FIFOScheduler.pick is not Scheduler.pick
    traces = []
    for scheduler in (FIFOScheduler(), ListPathFIFO()):
        handle = build_system(
            protocol, 2, 2, 3, scheduler=scheduler, seed=11, **STACKS[stack](get_protocol(protocol))
        )
        spec = WorkloadSpec(reads_per_reader=12, writes_per_writer=6, seed=11)
        submit_workload(handle, generate_workload(spec, handle.readers, handle.writers, handle.objects))
        handle.run_to_completion()
        traces.append(list(handle.trace()))
    by_pick, by_choose = traces
    assert by_pick == by_choose and len(by_pick) > 150  # ids included: a trace is a function of the run


class TestDependencyTriggeredReadiness:
    def test_unknown_dep_is_satisfied_until_submitted(self):
        """The dep-revocation edge: a head waiting on a not-yet-submitted id
        is ready; submitting that id re-blocks it until the dep completes."""
        sim = Simulation(scheduler=FIFOScheduler())
        sim.add_automaton(EchoServer("s1"))
        sim.add_automaton(PingClient("c1", "s1"))
        sim.add_automaton(PingClient("c2", "s1"))
        sim.submit("c2", "late", txn_id="T-late", after=("T-first",))
        assert [e.client for e in sim.pending_events()] == ["c2"]
        sim.submit("c1", "first", txn_id="T-first")
        # The previously satisfied dependency is now a real, incomplete
        # record: c2's head must have been re-blocked.
        invocations = [e for e in sim.pending_events() if isinstance(e, PendingInvocation)]
        assert [e.client for e in invocations] == ["c1"]
        sim.run_to_completion()
        record = sim.transaction_record("T-late")
        dep = sim.transaction_record("T-first")
        assert record.complete and dep.complete
        assert dep.respond_index < record.invoke_index

    def test_head_not_ready_while_session_runs(self):
        sim = Simulation(scheduler=FIFOScheduler())
        sim.add_automaton(EchoServer("s1"))
        sim.add_automaton(PingClient("c1", "s1"))
        sim.submit("c1", "a", txn_id="A")
        sim.submit("c1", "b", txn_id="B")
        sim.step()  # invoke A: its session now awaits the pong
        invocations = [e for e in sim.pending_events() if isinstance(e, PendingInvocation)]
        assert invocations == []
        sim.run_to_completion()
        assert sim.transaction_record("B").complete


class TestTimerFrontier:
    def test_idle_fast_forward_fires_far_timer(self):
        sim = Simulation(scheduler=FIFOScheduler())
        fired = []

        class TimerServer(ServerAutomaton):
            def on_timeout(self, info, ctx):
                fired.append(dict(info))

        sim.add_automaton(TimerServer("t1"))
        sim.set_timeout("t1", 100, {"kind": "far"})
        assert sim.pending_events() == []  # not ripe yet
        assert sim._frontier.next_timeout_ready() is not None
        assert sim.step()  # idle fast-forward makes it ripe, then fires it
        assert fired == [{"kind": "far"}]
        assert sim._frontier.next_timeout_ready() is None

    def test_remove_automaton_drops_owned_timers(self):
        sim = Simulation(scheduler=FIFOScheduler())

        class TimerServer(ServerAutomaton):
            def on_timeout(self, info, ctx):  # pragma: no cover - never fires
                raise AssertionError("timer of a retired automaton fired")

        sim.add_automaton(TimerServer("t1"))
        sim.add_automaton(EchoServer("s1"))
        sim.set_timeout("t1", 3, {"kind": "doomed"})
        sim.set_timeout("s1", 4, {"kind": "kept"})
        assert sim.remove_automaton("t1")
        assert [t.owner for t in sim.pending_timeouts()] == ["s1"]
        assert sim._frontier.next_timeout_ready() == 4


class TestExtraction:
    def test_extract_evaluates_predicate_once_per_delivery(self):
        sim = Simulation(scheduler=FIFOScheduler())
        sim.add_automaton(EchoServer("s1"))
        sim.add_automaton(EchoServer("s2"))
        sim.add_automaton(PingClient("c1", "s1"))
        sim.add_automaton(PingClient("c2", "s2"))
        sim.submit("c1", "a")
        sim.submit("c2", "b")
        sim.step()
        sim.step()  # both pings are now in flight
        seen = []

        def predicate(delivery):
            seen.append(delivery.message.msg_id)
            return delivery.message.dst == "s1"

        before = sim.pending_deliveries()
        taken = sim.extract_deliveries(predicate)
        assert len(seen) == len(set(seen)) == len(before)
        assert [d.message.dst for d in taken] == ["s1"]
        assert [d.message.dst for d in sim.pending_deliveries()] == ["s2"]

    def test_delivery_boundary_tracks_earliest(self):
        sim = Simulation(scheduler=FIFOScheduler())
        sim.add_automaton(EchoServer("s1"))
        sim.add_automaton(PingClient("c1", "s1"))
        assert sim._frontier.next_delivery_ready() is None
        sim.submit("c1", "a")
        sim.step()
        assert sim._frontier.next_delivery_ready() == 0  # reliable path: ripe now


class TestDelayedHeap:
    """Removed latency-stamped deliveries leave ``(ready_at, seq)`` entries in
    the frontier's heap.  While an immediate delivery is pending,
    ``next_delivery_ready`` answers 0 without looking at the heap, so it never
    sheds them: removal must, or the heap grows with every delivery made."""

    @pytest.mark.parametrize("order", ("earliest first", "latest first"))
    def test_heap_stays_within_twice_the_live_delayed_deliveries(self, order):
        frontier = EventFrontier()
        immediate = PendingDelivery(Message.make("m", "c1", "s1"), 0)
        frontier.add_delivery(immediate)
        delayed = [
            PendingDelivery(Message.make("m", "c1", "s1"), seq, ready_at=seq)
            for seq in range(1, 201)
        ]
        for delivery in delayed:
            frontier.add_delivery(delivery)
        doomed = delayed[:150] if order == "earliest first" else delayed[:49:-1]
        for removed, delivery in enumerate(doomed, 1):
            frontier.remove_delivery(delivery)
            assert len(frontier._delayed) <= 2 * (len(delayed) - removed)
        assert frontier.next_delivery_ready() == 0
        frontier.remove_delivery(immediate)
        gone = {delivery.enqueued_at for delivery in doomed}
        survivors = [d.ready_at for d in delayed if d.enqueued_at not in gone]
        assert frontier.next_delivery_ready() == min(survivors)
