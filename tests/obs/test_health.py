"""The health/SLO subsystem: latency SLOs, rolling rates, replica health.

Unit tests drive a *detached* :class:`HealthPlane` with hand-built actions
carrying explicit ``vtime`` stamps (the detached clock reconstructs time
from those), so every threshold is exercised at an exact virtual instant;
the end-to-end tests pin determinism of the report on real runs and the
post-mortem :func:`derive_health` path.
"""

from __future__ import annotations

import pytest

from repro.faults import ChaosScheduler
from repro.ioa import FIFOScheduler
from repro.ioa.actions import Action, ActionKind, Message
from repro.obs import HealthPlane, HealthView, SLOPolicy, derive_health

from tests.consensus.conftest import leader_crash_plan
from tests.obs.conftest import run_observed


def act(kind, actor, vtime, message=None, **info):
    return Action.make(kind, actor, message=message, info={"vtime": vtime, **info})


def invoke(txn, txn_kind, vtime, actor="w1"):
    return act(ActionKind.INVOKE, actor, vtime, txn=txn, txn_kind=txn_kind)


def respond(txn, vtime, actor="w1"):
    return act(ActionKind.RESPOND, actor, vtime, txn=txn)


def feed(plane, *actions):
    for action in actions:
        plane.on_action(action)
    return HealthView(plane)


# ----------------------------------------------------------------------
# Policy validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs",
    [
        {"read_latency": 0},
        {"write_latency": 0},
        {"window": 0},
        {"history": 0},
        {"stale_after": 0},
    ],
)
def test_slo_policy_rejects_degenerate_thresholds(kwargs):
    with pytest.raises(ValueError):
        SLOPolicy(**kwargs)


def test_slo_policy_maps_kinds_to_latency_slos():
    policy = SLOPolicy(read_latency=5, write_latency=9)
    assert policy.latency_slo("read") == 5
    assert policy.latency_slo("write") == 9
    assert "slo(read<=5" in policy.describe()


# ----------------------------------------------------------------------
# Latency SLOs
# ----------------------------------------------------------------------
def test_latency_measured_on_the_virtual_clock_with_slo_verdicts():
    plane = HealthPlane(SLOPolicy(read_latency=5, write_latency=10))
    view = feed(
        plane,
        invoke("R1", "read", 0),
        respond("R1", 4),  # latency 4 <= 5: ok
        invoke("R2", "read", 10),
        respond("R2", 20),  # latency 10 > 5: breach
        invoke("W1", "write", 20),
        respond("W1", 30),  # latency 10 <= 10: ok
    )
    assert view.slo_attainment("read") == 0.5
    assert view.slo_attainment("write") == 1.0
    report = view.report()
    assert report["slo"]["read"] == {
        "slo": 5,
        "attainment": 0.5,
        "ok": 1,
        "breach": 1,
        "latency": report["slo"]["read"]["latency"],
    }
    assert report["slo"]["read"]["latency"]["count"] == 2
    assert report["slo"]["read"]["latency"]["max"] == 10


def test_attainment_is_none_before_any_completion():
    view = feed(HealthPlane(), invoke("W1", "write", 0))
    assert view.slo_attainment("write") is None
    assert view.report()["incomplete_txns"] == ["W1"]
    assert view.render().splitlines()[-1] == "  incomplete: W1"


def test_unmatched_respond_is_ignored():
    view = feed(HealthPlane(), respond("GHOST", 5))
    assert view.report()["slo"] == {}


# ----------------------------------------------------------------------
# Replica health / suspects
# ----------------------------------------------------------------------
def test_replica_health_decays_linearly_with_staleness():
    plane = HealthPlane(SLOPolicy(stale_after=100))
    feed(plane, act(ActionKind.INTERNAL, "sx", 0))
    assert plane.replica_health("sx", now=0) == 1.0
    assert plane.replica_health("sx", now=50) == 0.5
    assert plane.replica_health("sx", now=100) == 0.0
    assert plane.replica_health("sx", now=999) == 0.0
    # absence of evidence is not evidence of failure
    assert plane.replica_health("never-seen", now=999) == 1.0


def test_suspects_are_sorted_and_thresholded():
    plane = HealthPlane(SLOPolicy(stale_after=100))
    view = feed(
        plane,
        act(ActionKind.INTERNAL, "sz", 0),
        act(ActionKind.INTERNAL, "sy", 0),
        act(ActionKind.INTERNAL, "sx", 80),  # drives the clock to 80
    )
    # sy/sz are 80 steps stale -> health 0.2 <= 0.25; sx is fresh
    assert view.suspects(threshold=0.25) == ("sy", "sz")
    assert view.report()["suspects"] == ["sy", "sz"]
    assert "  suspects: sy, sz" in view.render().splitlines()


# ----------------------------------------------------------------------
# Rolling rates: timeouts, errors
# ----------------------------------------------------------------------
def test_timeouts_and_errors_are_counted():
    plane = HealthPlane(SLOPolicy(window=16, history=2))
    mismatch = Message.make("epoch-mismatch", "sx", "coor")
    view = feed(
        plane,
        act(ActionKind.INTERNAL, "coor", 1, timeout="election"),
        act(ActionKind.RECV, "coor", 2, message=mismatch),
        act(ActionKind.INTERNAL, "w1", 3),
    )
    totals = view.report()["totals"]
    assert totals["timeouts"] == 1
    assert totals["errors"] == 1
    assert totals["events"] == 3
    assert view.timeout_rate() == pytest.approx(1 / 3, abs=1e-4)
    assert view.error_rate() == pytest.approx(1 / 3, abs=1e-4)


def test_rolling_window_forgets_old_buckets():
    plane = HealthPlane(SLOPolicy(window=10, history=2))
    view = feed(plane, act(ActionKind.INTERNAL, "coor", 1, timeout="x"))
    assert view.timeout_rate() == 1.0
    # two fresh buckets later the timeout bucket has rolled out of history
    feed(plane, act(ActionKind.INTERNAL, "w1", 50), act(ActionKind.INTERNAL, "w1", 70))
    assert view.timeout_rate() == 0.0
    # ... but the lifetime totals never forget
    assert view.report()["totals"]["timeouts"] == 1


# ----------------------------------------------------------------------
# End-to-end: real runs, determinism, the rendered report
# ----------------------------------------------------------------------
def run_healthy(health=True, **kwargs):
    return run_observed(
        "algorithm-b",
        health=health,
        scheduler=FIFOScheduler(),
        replication_factor=3,
        quorum="majority",
        **kwargs,
    )


def test_end_of_run_report_is_deterministic():
    """Same build, same workload (pinned txn ids) -> byte-identical report."""
    _, plane_a = run_healthy()
    _, plane_b = run_healthy()
    report = plane_a.health_view.report()
    assert report == plane_b.health_view.report()
    assert report["totals"]["events"] > 0
    assert report["slo"]["read"]["attainment"] == 1.0
    assert report["slo"]["write"]["attainment"] == 1.0
    assert report["incomplete_txns"] == []


def test_render_is_a_stable_text_reflection_of_the_report():
    _, plane = run_healthy()
    text = plane.health_view.render()
    assert text.startswith("health @ vtime")
    assert "read:" in text and "write:" in text
    assert plane.health_view.render() == text


def test_custom_slo_policy_threads_through_the_plane():
    """An impossible 1-step SLO: every transaction breaches, proving the
    policy (not the default) is the one consulted."""
    _, plane = run_healthy(health=SLOPolicy(read_latency=1, write_latency=1))
    view = plane.health_view
    assert view.slo_attainment("read") == 0.0
    assert view.slo_attainment("write") == 0.0


def test_derive_health_is_deterministic_and_needs_no_plane():
    """Post-mortem health from a run that had no observability at all."""
    handle, _ = run_healthy()
    first = derive_health(handle.simulation).report()
    second = derive_health(handle.simulation).report()
    assert first == second
    assert first["totals"]["events"] == len(handle.trace())
    assert first["incomplete_txns"] == []


def test_failover_timeouts_feed_the_health_plane():
    """A real failover run: the election timeout the crash forces shows up
    in the health totals (and the run still completes cleanly)."""
    _, plane = run_observed(
        "algorithm-b",
        health=True,
        scheduler=ChaosScheduler(base=FIFOScheduler()),
        consensus_factor=3,
        plan=leader_crash_plan(),
        run_to_completion=False,
    )
    report = plane.health_view.report()
    assert report["totals"]["timeouts"] > 0
    assert report["incomplete_txns"] == []
