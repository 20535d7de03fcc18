"""Golden-trace guarantee of the placement layer.

``replication_factor=1`` must be a *pure generalisation*: the signatures in
``golden_signatures.json`` were captured from the pre-placement seed kernel
(before the placement layer existed), and every registered protocol must
still reproduce them byte-for-byte — both with the default build arguments
and with the replication knobs passed explicitly.

If a legitimate protocol-level change intentionally alters traces, re-capture
the fixture and say so in the commit; silent drift here means the placement
layer leaked into the single-copy wire protocol.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.ioa import FIFOScheduler, RandomScheduler
from repro.protocols import protocol_names

from tests.conftest import trace_digest
from tests.replication.conftest import run_fixed_workload

GOLDEN = json.loads((Path(__file__).parent / "golden_signatures.json").read_text())

CONFIGS = {
    "fifo-2obj": (lambda: FIFOScheduler(), 2),
    "random17-2obj": (lambda: RandomScheduler(seed=17), 2),
    "fifo-3obj": (lambda: FIFOScheduler(), 3),
}



@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("protocol", protocol_names())
def test_default_build_matches_pre_placement_seed(protocol, config_name):
    scheduler_factory, num_objects = CONFIGS[config_name]
    handle = run_fixed_workload(
        protocol, scheduler=scheduler_factory(), num_objects=num_objects
    )
    assert trace_digest(handle) == GOLDEN[protocol][config_name], (
        f"{protocol} trace drifted from the pre-placement seed under {config_name}"
    )


@pytest.mark.parametrize("protocol", protocol_names())
def test_explicit_rf1_matches_pre_placement_seed(protocol):
    """Passing replication_factor=1 / quorum explicitly changes nothing."""
    for quorum in ("read-one-write-all", "majority"):
        handle = run_fixed_workload(
            protocol,
            scheduler=FIFOScheduler(),
            num_objects=2,
            replication_factor=1,
            quorum=quorum,
        )
        assert trace_digest(handle) == GOLDEN[protocol]["fifo-2obj"], (protocol, quorum)


def test_every_registered_protocol_is_pinned():
    """A newly registered protocol must be added to the golden fixture."""
    assert set(GOLDEN) == set(protocol_names())


@pytest.mark.parametrize("protocol", protocol_names())
def test_explicit_consensus1_matches_pre_consensus_seed(protocol):
    """Passing consensus_factor=1 explicitly changes nothing, for every
    protocol: the consensus layer's byte-identity contract (no members are
    instantiated, no timers armed, sends/awaits identical)."""
    handle = run_fixed_workload(
        protocol, scheduler=FIFOScheduler(), num_objects=2, consensus_factor=1
    )
    assert trace_digest(handle) == GOLDEN[protocol]["fifo-2obj"], protocol


def test_consensus_factor_rejected_without_coordinator():
    """Protocols with no coordinator fail loudly instead of silently
    ignoring the knob."""
    with pytest.raises(ValueError, match="no coordinator"):
        run_fixed_workload("simple-rw", consensus_factor=3)


@pytest.mark.parametrize("protocol", protocol_names())
def test_explicit_reconfig_off_matches_seed(protocol):
    """Passing reconfig=None (and an empty plan) explicitly changes nothing,
    for every protocol: the reconfiguration layer's byte-identity contract —
    no directory, no driver, no epoch fields on any wire."""
    from repro.consensus.reconfig import ReconfigPlan

    for reconfig in (None, ReconfigPlan(name="empty")):
        handle = run_fixed_workload(
            protocol, scheduler=FIFOScheduler(), num_objects=2, reconfig=reconfig
        )
        assert handle.directory is None
        assert trace_digest(handle) == GOLDEN[protocol]["fifo-2obj"], (protocol, reconfig)


@pytest.mark.parametrize("protocol", protocol_names())
def test_explicit_persistence_off_matches_seed(protocol):
    """Passing persistence=None explicitly changes nothing, for every
    protocol: the persistence plane's byte-identity contract — no stores
    attached, no recovery path armed, the seed's volatile members."""
    handle = run_fixed_workload(
        protocol, scheduler=FIFOScheduler(), num_objects=2, persistence=None
    )
    assert handle.persistence is None
    assert trace_digest(handle) == GOLDEN[protocol]["fifo-2obj"], protocol


def test_enabled_persistence_is_trace_invisible_without_compaction():
    """The stronger contract (consensus runs only — persistence needs
    members): an *attached* persistence plane with compaction off leaves the
    whole trace byte-identical to the volatile run.  Checkpoints and
    recovery write stores, never the trace."""
    from repro.persist import PersistencePolicy

    def consensus_signature(persistence):
        handle = run_fixed_workload(
            "algorithm-b",
            scheduler=FIFOScheduler(),
            num_objects=2,
            consensus_factor=3,
            persistence=persistence,
        )
        return trace_digest(handle)

    assert consensus_signature(PersistencePolicy()) == consensus_signature(None)


@pytest.mark.parametrize("protocol", protocol_names())
def test_explicit_leases_off_matches_seed(protocol):
    """Passing leases=None explicitly changes nothing, for every protocol:
    the lease layer's byte-identity contract — no lease state allocated, no
    lease rounds on any wire, no new trace actions."""
    handle = run_fixed_workload(protocol, scheduler=FIFOScheduler(), num_objects=2, leases=None)
    assert trace_digest(handle) == GOLDEN[protocol]["fifo-2obj"], protocol


def test_enabled_leases_leave_the_write_path_byte_identical():
    """The stronger contract (consensus runs only — leases need members): a
    *leased* run of a write-only workload is byte-identical to the unleased
    one.  Lease rounds are triggered exclusively by read-only requests, so a
    run with no reads never starts one — leases-on changes are confined to
    the read path by construction."""
    from repro.protocols import get_protocol

    from tests import invariants

    def write_only_signature(leases):
        handle = get_protocol("algorithm-b").build(
            num_readers=2,
            num_writers=2,
            num_objects=2,
            scheduler=FIFOScheduler(),
            seed=3,
            consensus_factor=3,
            leases=leases,
        )
        w1 = handle.submit_write(
            {obj: f"v1-{obj}" for obj in handle.objects}, writer=handle.writers[0], txn_id="W1"
        )
        handle.submit_write(
            {obj: f"v2-{obj}" for obj in handle.objects},
            writer=handle.writers[-1],
            txn_id="W2",
            after=[w1],
        )
        handle.run_to_completion()
        return trace_digest(invariants.register(handle))

    assert write_only_signature(True) == write_only_signature(None)


def test_enabled_leases_confine_changes_to_the_read_path():
    """With the mixed workload, leases change *what happens to reads* — they
    bypass the log — while the committed write sequence is untouched: the
    leased log is exactly the unleased log minus its ``get-tag-arr``
    entries, and both runs return the same read values."""
    def run(leases):
        return run_fixed_workload(
            "algorithm-b",
            scheduler=FIFOScheduler(),
            num_objects=2,
            consensus_factor=3,
            leases=leases,
        )

    def committed_requests(handle):
        member = handle.simulation.automaton("coor")
        return [
            member.log.entry(i).request_id
            for i in range(member.log.snapshot_index + 1, member.log.commit_index + 1)
        ]

    on, off = run(True), run(None)
    assert committed_requests(on) == [
        rid for rid in committed_requests(off) if not rid.startswith("get-tag-arr/")
    ]
    assert any(rid.startswith("get-tag-arr/") for rid in committed_requests(off))
    assert on.history().results() == off.history().results()


@pytest.mark.parametrize("protocol", protocol_names())
def test_explicit_obs_off_matches_seed(protocol):
    """Passing obs=None explicitly changes nothing, for every protocol: the
    observability plane's byte-identity contract — no observer installed,
    no mailbox hooks."""
    handle = run_fixed_workload(protocol, scheduler=FIFOScheduler(), num_objects=2, obs=None)
    assert handle.simulation.obs is None
    assert trace_digest(handle) == GOLDEN[protocol]["fifo-2obj"], protocol


@pytest.mark.parametrize("protocol", protocol_names())
def test_enabled_obs_is_trace_invisible(protocol):
    """The stronger contract: even an *enabled* plane (with the monitors and
    the health plane on) leaves the trace byte-identical to the seed — the
    plane only listens, it never appends actions or perturbs the scheduler."""
    from repro.obs import ObservabilityPlane

    plane = ObservabilityPlane(monitors=True, health=True)
    handle = run_fixed_workload(
        protocol, scheduler=FIFOScheduler(), num_objects=2, obs=plane
    )
    assert trace_digest(handle) == GOLDEN[protocol]["fifo-2obj"], protocol
    # ... and it actually observed the run.
    assert plane.registry.counter_total("kernel.events") == len(handle.trace())


@pytest.mark.parametrize("protocol", protocol_names())
def test_explicit_full_trace_mode_matches_seed(protocol):
    """Passing trace_mode=TraceMode.full() explicitly changes nothing, for
    every protocol: full retention is the seed behaviour, knob or no knob."""
    from repro.ioa import TraceMode

    handle = run_fixed_workload(
        protocol, scheduler=FIFOScheduler(), num_objects=2, trace_mode=TraceMode.full()
    )
    assert handle.simulation.trace.is_full()
    assert trace_digest(handle) == GOLDEN[protocol]["fifo-2obj"], protocol


@pytest.mark.parametrize("protocol", protocol_names())
def test_monitors_and_health_are_trace_invisible(protocol):
    """The streaming invariant monitors and the health/SLO plane extend the
    enabled-plane contract: both attached, the trace stays byte-identical to
    the seed — they listen, they never act."""
    from repro.obs import ObservabilityPlane

    plane = ObservabilityPlane(monitors=True, health=True)
    handle = run_fixed_workload(
        protocol, scheduler=FIFOScheduler(), num_objects=2, obs=plane
    )
    assert trace_digest(handle) == GOLDEN[protocol]["fifo-2obj"], protocol
    # ... and both actually watched every appended action.
    assert plane.monitors.ok
    assert plane.health_view.report()["totals"]["events"] == len(handle.trace())


def test_every_protocol_is_laid_out_by_protocol():
    """One system layout: every registered protocol leaves the layout loop to
    ``Protocol.make_automata`` and names only its clients and its server, so a
    replica spawned mid-run is built by the same ``make_server`` as a founding
    one."""
    from repro.protocols import Protocol, get_protocol

    for name in protocol_names():
        cls = type(get_protocol(name))
        assert cls.make_automata is Protocol.make_automata, name
        assert cls.make_clients is not Protocol.make_clients, name
        assert cls.make_server is not Protocol.make_server, name


def _layout_config(protocol, consensus_factor: int = 1):
    from repro.protocols.base import BuildConfig

    return BuildConfig(
        num_readers=3 if protocol.supports_multiple_readers else 1,
        num_writers=3,
        num_objects=3,
        replication_factor=3,
        quorum="majority",
        consensus_factor=consensus_factor,
    )


@pytest.mark.parametrize("protocol", protocol_names())
def test_layout_registers_clients_then_replicas_then_members(protocol):
    """``make_automata`` registers the readers, the writers, every replica in
    placement order (object-major, primaries first), then the consensus
    members; the coordinator role goes to the first server only, and only
    when the protocol has a coordinator that no consensus group replicates."""
    from repro.protocols import get_protocol

    impl = get_protocol(protocol)
    factors = (1, 3) if impl.has_coordinator else (1,)
    for consensus_factor in factors:
        config = _layout_config(impl, consensus_factor)
        placement = config.placement()
        calls = []
        make_server = impl.make_server

        def spy(config, object_id, name, group, coordinator=False):
            calls.append((object_id, name, group, coordinator))
            return make_server(config, object_id, name, group, coordinator=coordinator)

        impl.make_server = spy
        try:
            automata = impl.make_automata(config, placement)
        finally:
            del impl.make_server
        assert [a.name for a in automata] == [
            *config.readers(),
            *config.writers(),
            *placement.servers(),
            *config.consensus_group(),
        ], (protocol, consensus_factor)
        assert calls == [
            (object_id, name, group, impl.has_coordinator and consensus_factor == 1
             and name == placement.servers()[0])
            for object_id, group in placement.groups
            for name in group
        ], (protocol, consensus_factor)


@pytest.mark.parametrize("protocol", protocol_names())
def test_layout_builds_the_placement_once(protocol, monkeypatch):
    """One build derives the object → replica-group map once and hands it to
    every hook (validation, the automata, the reconfiguration layer, the
    handle); each re-derivation multiplied the cost of every build."""
    from dataclasses import asdict

    from repro.faults import grow_group_mid_run
    from repro.protocols import get_protocol
    from repro.txn.placement import Placement

    impl = get_protocol(protocol)
    settings = asdict(_layout_config(impl))
    derived = []
    for_objects = Placement.for_objects.__func__

    def counting(cls, objects, replication_factor=1):
        derived.append(objects)
        return for_objects(cls, objects, replication_factor)

    monkeypatch.setattr(Placement, "for_objects", classmethod(counting))
    handle = impl.build(**settings)
    assert len(derived) == 1 and handle.placement.servers() == handle.servers, protocol
    impl.build(**{**settings, "reconfig": grow_group_mid_run("o2", at=20)[1]})
    assert len(derived) == 2, protocol
