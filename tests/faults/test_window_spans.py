"""The injector's window spans answer what a scan of the plan answers.

``FaultInjector`` caches, for the span of plan edges holding ``now``, which
partitions are open and which servers are down, and diffs the down set against
the last one only when the span moved.  ``ReferenceFaultInjector`` still asks
the plan on every call (``tests/faults/reference_injector.py``).  The property
below drives both over generated plans and clocks — every edge, and the step
on either side of it, first seen by a step boundary, by one send or by one
timer — through the same sequence of sends, timers and step boundaries;
the two named regressions are the cases the cache could get wrong by
construction: an edge first seen by a send, mid-step, and a retirement during
an outage.  ``tests/faults/test_buffer_equivalence.py`` pins the same
equivalence on whole runs.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import ChaosScheduler, CrashEvent, FaultInjector, FaultPlan, Partition
from repro.ioa import ActionKind, FIFOScheduler, Message, internal_action
from repro.protocols import get_protocol

from tests.faults.reference_injector import ReferenceFaultInjector

SERVERS = ("s1", "s2", "s3")
NAMES = ("c1", "c2") + SERVERS
HORIZON = 60


class _Automaton:
    def __init__(self, name, forgot):
        self.name = name
        self._forgot = forgot

    def forget(self):
        self._forgot.append(self.name)


class _Kernel:
    """What ``before_step`` and ``on_send`` touch, with work always pending
    (so the clock is the step counter: ``before_step`` applies what is due at
    ``steps_taken`` and returns)."""

    def __init__(self):
        self.steps_taken = 0
        self.recorded = []  # (step, actor, info) of every appended action
        self.enqueued = []  # (step, dst) of every admitted copy
        self.forgot = []
        self.trace = self
        self._automata = {name: _Automaton(name, self.forgot) for name in NAMES}

    def now(self):
        return self.steps_taken

    def append(self, action):
        self.recorded.append((self.steps_taken, action.actor, action.info))

    def _record_internal(self, actor, info):
        self.append(internal_action(actor, info))

    def enqueue_delivery(self, message, ready_at=0):
        self.enqueued.append((self.steps_taken, message.dst))

    def reschedule_timeout(self, timeout, ready_at):
        self.enqueued.append((self.steps_taken, timeout.owner, ready_at))

    def automata(self):
        return tuple(self._automata.values())

    def automaton(self, name):
        return self._automata[name]

    def extract_deliveries(self, predicate):
        return []


class _Timeout:
    def __init__(self, owner):
        self.owner = owner


PAIRS = tuple((src, dst) for src in NAMES for dst in NAMES if src != dst)


def read_clock(injector, kernel, reader):
    """One read of the clock by the injector: a step boundary (``None``), the send
    of a ``(src, dst)`` pair, or the timer of a server firing."""
    if reader is None:
        injector.before_step(kernel)
    elif isinstance(reader, tuple):
        injector.on_send(Message.make("m", *reader), kernel)
    else:
        kernel.enqueued.append((reader, injector.suppress_timeout(_Timeout(reader), kernel)))


def observed(injector, kernel):
    return (
        kernel.recorded,
        kernel.enqueued,
        kernel.forgot,
        injector.stats.as_dict(),
        injector.crashed_servers(),
        tuple((m.src, m.dst) for m in injector.held_messages()),
    )


def windows(draw, earlier):
    """``(start, end)`` of a window; after ``earlier`` ones on the same server
    or link it is as likely to start where the last ended (back to back) or
    inside it (overlapping) as anywhere.  One end in three is ``None``."""
    start = draw(st.integers(0, HORIZON - 20))
    if earlier:
        last_start, last_end = earlier[-1]
        mode = draw(st.sampled_from(("anywhere", "back-to-back", "overlapping")))
        if mode == "back-to-back" and last_end is not None:
            start = last_end
        elif mode == "overlapping":
            start = draw(st.integers(last_start, last_start + 3))
    end = draw(st.one_of(st.none(), st.integers(start + 1, start + 8), st.integers(start + 1, start + 20)))
    return start, end


@st.composite
def plans(draw):
    crashes = []
    for server in draw(st.lists(st.sampled_from(SERVERS), max_size=5)):
        earlier = [(c.at, c.recover) for c in crashes if c.server == server]
        at, recover = windows(draw, earlier)
        crashes.append(CrashEvent(server, at, recover, preserve_state=draw(st.booleans())))
    partitions = []
    for _ in range(draw(st.integers(0, 4))):
        if partitions and draw(st.booleans()):  # cut the same link again
            left, right = partitions[-1].left, partitions[-1].right
        else:
            left = draw(st.sets(st.sampled_from(NAMES), min_size=1, max_size=2))
            right = draw(st.sets(st.sampled_from(sorted(set(NAMES) - left)), min_size=1, max_size=2))
        sides = tuple(sorted(left)), tuple(sorted(right))
        earlier = [(p.start, p.heal) for p in partitions if (p.left, p.right) == sides]
        start, heal = windows(draw, earlier)
        partitions.append(Partition(*sides, start, heal))
    return FaultPlan(name="generated", crashes=tuple(crashes), partitions=tuple(partitions))


@st.composite
def plans_and_clocks(draw):
    plan = draw(plans())
    edges = {t for c in plan.crashes for t in (c.at, c.recover) if t is not None}
    edges |= {t for p in plan.partitions for t in (p.start, p.heal) if t is not None}
    around = sorted({max(0, t + d) for t in edges for d in (-1, 0, 1)})
    clocks = draw(st.lists(st.integers(0, HORIZON + 20), max_size=12))
    clocks += draw(st.lists(st.sampled_from(around), max_size=12)) if around else []
    # per clock, who reads it first: before_step, or (mid-step) one send or one timer
    readers = st.one_of(st.none(), st.sampled_from(PAIRS), st.sampled_from(SERVERS))
    return plan, [(now, draw(readers)) for now in sorted(clocks)]


@settings(max_examples=300, deadline=None)
@given(plans_and_clocks())
def test_cached_windows_equal_a_scan_of_the_plan(case):
    plan, clocks = case
    cached, scanning = FaultInjector(plan), ReferenceFaultInjector(plan)
    kernels = _Kernel(), _Kernel()
    for now, first in clocks:
        for injector, kernel in zip((cached, scanning), kernels):
            kernel.steps_taken = now
            for reader in (first, *PAIRS, *SERVERS, None):
                read_clock(injector, kernel, reader)
        assert cached._lo <= now < cached._hi
        assert set(cached._open_partitions) == {p for p in plan.partitions if p.active(now)}
        assert set(cached._down) == {c.server for c in plan.crashes if c.crashed(now)}
        for name in NAMES:
            assert cached._crash_release(name, now) == scanning._crash_release(name, now)
        for pair in PAIRS:
            assert cached._partition_release(*pair, now) == scanning._partition_release(*pair, now)
        assert observed(cached, kernels[0]) == observed(scanning, kernels[1])


def fault_actions(handle):
    return [
        (a.actor, a.get("fault")) for a in handle.trace().of_kind(ActionKind.INTERNAL) if a.get("fault")
    ]


def test_a_crash_reached_by_the_step_counter_mid_step_parks_the_sends_and_is_then_recorded():
    """The kernel counts the step after ``before_step``: at ``at=1`` the first
    reader of clock 1 is the invocation's own send.  It must be parked for a
    server that is down by then, and the *next* ``before_step`` — inside the
    span the send entered — must still record the onset."""
    outcomes = []
    for injector_cls in (FaultInjector, ReferenceFaultInjector):
        plan = FaultPlan(name="edge", crashes=(CrashEvent("sx", at=1, recover=30),))
        injector = injector_cls(plan, seed=0)
        handle = get_protocol("simple-rw").build(
            num_writers=2, scheduler=ChaosScheduler(base=FIFOScheduler()), fault_plane=injector
        )
        handle.submit_write({"ox": 1}, writer=handle.writers[0], txn_id="W1")
        # a second invocation stays pending, so no before_step skips the clock ahead
        handle.submit_write({"oy": 2}, writer=handle.writers[1], txn_id="W2")
        simulation = handle.simulation
        assert simulation.step()  # before_step saw clock 0; W1's invocation sends at clock 1
        assert injector.stats.held_by_crash == 1 and [m.dst for m in injector.held_messages()] == ["sx"]
        assert injector.crashed_servers() == () and fault_actions(handle) == []
        injector.before_step(simulation)
        assert injector.crashed_servers() == ("sx",) and fault_actions(handle) == [("sx", "crash")]
        handle.run_to_completion()
        assert fault_actions(handle) == [("sx", "crash"), ("sx", "recover")]
        outcomes.append((handle.trace().signature(), injector.stats.as_dict()))
    assert outcomes[0] == outcomes[1]


def test_a_server_retired_during_its_outage_is_neither_swept_nor_recovered():
    crashes = (CrashEvent("s1", at=5, recover=20), CrashEvent("s2", at=8, recover=12))
    plan = FaultPlan(name="ghost", crashes=crashes)
    outcomes = []
    for injector_cls in (FaultInjector, ReferenceFaultInjector):
        injector, kernel = injector_cls(plan), _Kernel()
        for now in range(0, 30):
            kernel.steps_taken = now
            injector.before_step(kernel)
            injector.on_send(Message.make("m", "c1", "s1"), kernel)
            if now == 10:
                assert injector.crashed_servers() == ("s1", "s2") and len(injector.held_messages()) == 6
                injector.on_remove("s1", kernel)
                assert injector.crashed_servers() == ("s2",) and injector.held_messages() == ()
        faults = [(step, actor, dict(info)["fault"]) for step, actor, info in kernel.recorded]
        assert faults == [(5, "s1", "crash"), (8, "s2", "crash"), (12, "s2", "recover")]
        assert injector.crashed_servers() == () and injector.stats.recoveries == 1
        outcomes.append(observed(injector, kernel))
    assert outcomes[0] == outcomes[1]
