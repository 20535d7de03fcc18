"""The sampling trace modes: full / sampled(rate, seed) / ring(capacity).

The contract under test, end to end on real runs:

* ``full`` is the seed behaviour — explicit or defaulted, byte-identical
  (the per-protocol golden pin lives in ``test_golden_rf1.py``; here the
  two spellings are compared directly);
* ``sampled`` drops only SEND/RECV records, deterministically per seed,
  while **observers stay exact**: metrics counters, registry snapshots and
  the streaming monitors see every appended action in every mode;
* ``ring`` keeps the newest ``capacity`` records with true global indices;
* the position-dependent queries that would lie on a partial record
  (``prefix``) refuse loudly in non-full modes.
"""

from __future__ import annotations

import pytest

from repro.ioa import FIFOScheduler, TraceMode
from repro.ioa.actions import Action, ActionKind
from repro.ioa.trace import Trace, TraceError

from tests.obs.conftest import run_observed
from tests.replication.conftest import run_fixed_workload


def run_mode(trace_mode, protocol="algorithm-b", **kwargs):
    """The fixed explicit-id workload (txn ids pinned, so two same-process
    runs are directly comparable) under a retention mode."""
    return run_fixed_workload(
        protocol,
        scheduler=FIFOScheduler(),
        replication_factor=3,
        quorum="majority",
        trace_mode=trace_mode,
        **kwargs,
    )


# ----------------------------------------------------------------------
# Mode validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "bad",
    [
        lambda: TraceMode(kind="hologram"),
        lambda: TraceMode.sampled(rate=0.0),
        lambda: TraceMode.sampled(rate=1.5),
        lambda: TraceMode.ring(capacity=0),
    ],
)
def test_degenerate_modes_are_rejected(bad):
    with pytest.raises(ValueError):
        bad()


def test_mode_describe_strings():
    assert TraceMode.full().describe() == "full"
    assert TraceMode.sampled(0.1, seed=7).describe() == "sampled(rate=0.1, seed=7)"
    assert TraceMode.ring(256).describe() == "ring(capacity=256)"


# ----------------------------------------------------------------------
# full: the seed behaviour, spelled or defaulted
# ----------------------------------------------------------------------
def test_default_and_explicit_full_are_identical():
    defaulted = run_mode(None)
    explicit = run_mode(TraceMode.full())
    assert defaulted.trace().signature() == explicit.trace().signature()
    trace = explicit.simulation.trace
    assert trace.is_full()
    assert trace.total_appended == len(trace)
    assert trace.sampled_out == 0


def test_rate_one_sampled_mode_retains_everything():
    """``sampled(1.0)`` is full retention (the never-drop fast path)."""
    full = run_mode(TraceMode.full())
    everything = run_mode(TraceMode.sampled(rate=1.0, seed=5))
    assert everything.trace().signature() == full.trace().signature()
    assert everything.simulation.trace.sampled_out == 0


# ----------------------------------------------------------------------
# sampled: deterministic, send/recv only, observers exact
# ----------------------------------------------------------------------
def test_sampled_runs_are_byte_identical_per_seed():
    first = run_mode(TraceMode.sampled(rate=0.2, seed=11))
    second = run_mode(TraceMode.sampled(rate=0.2, seed=11))
    assert first.trace().signature() == second.trace().signature()
    assert [a.index for a in first.trace()] == [a.index for a in second.trace()]


def test_different_sampler_seeds_keep_different_records():
    first = run_mode(TraceMode.sampled(rate=0.2, seed=11))
    second = run_mode(TraceMode.sampled(rate=0.2, seed=12))
    assert first.trace().signature() != second.trace().signature()
    # ... but the *execution* is untouched: same number of appended actions,
    # same transaction outcomes (the sampler RNG lives inside the trace).
    assert first.simulation.trace.total_appended == second.simulation.trace.total_appended
    for txn_id in ("R1", "R2"):
        assert (
            first.simulation.transaction_record(txn_id).result
            == second.simulation.transaction_record(txn_id).result
        ), txn_id


def test_sampling_drops_only_send_and_recv():
    handle = run_mode(TraceMode.sampled(rate=0.1, seed=3))
    trace = handle.simulation.trace
    full = run_mode(TraceMode.full()).simulation.trace
    assert len(trace) < len(full)
    assert trace.total_appended == full.total_appended
    assert trace.sampled_out == trace.total_appended - len(trace)
    for kind in (ActionKind.INVOKE, ActionKind.RESPOND, ActionKind.INTERNAL):
        assert len(trace.of_kind(kind)) == len(full.of_kind(kind)), kind
    # retained records carry their true global indices (sparse but ordered)
    indices = [a.index for a in trace]
    assert indices == sorted(indices) and len(set(indices)) == len(indices)
    # last_index is the newest *retained* record's true global position
    # (the run's final records may themselves have been sampled out)
    assert trace.last_index == indices[-1] <= full.last_index


def test_observers_stay_exact_under_sampling():
    """The acceptance-criterion heart: counters and monitors are computed
    from *every* appended action, so sampling changes no observed number."""
    _, full_plane = run_observed(
        "algorithm-b", monitors=True, scheduler=FIFOScheduler(),
        replication_factor=3, quorum="majority",
    )
    handle, sampled_plane = run_observed(
        "algorithm-b", monitors=True, scheduler=FIFOScheduler(),
        replication_factor=3, quorum="majority",
        trace_mode=TraceMode.sampled(rate=0.1, seed=3),
    )
    assert sampled_plane.registry.snapshot() == full_plane.registry.snapshot()
    trace = handle.simulation.trace
    assert sampled_plane.registry.counter_total("kernel.events") == trace.total_appended
    assert sampled_plane.monitors.ok
    assert sampled_plane.monitors._seen == trace.total_appended > len(trace)


def test_ring_observers_are_exact_too():
    _, full_plane = run_observed("algorithm-b", scheduler=FIFOScheduler())
    handle, ring_plane = run_observed(
        "algorithm-b", scheduler=FIFOScheduler(), trace_mode=TraceMode.ring(16)
    )
    assert ring_plane.registry.snapshot() == full_plane.registry.snapshot()
    assert len(handle.simulation.trace) == 16


# ----------------------------------------------------------------------
# ring: the flight recorder
# ----------------------------------------------------------------------
def test_ring_keeps_the_newest_records_with_true_indices():
    handle = run_mode(TraceMode.ring(32))
    trace = handle.simulation.trace
    full = run_mode(TraceMode.full()).simulation.trace
    assert len(trace) == 32
    assert trace.total_appended == full.total_appended > 32
    expected = [a.index for a in full][-32:]
    assert [a.index for a in trace] == expected
    assert trace.last_index == full.last_index


def test_ring_larger_than_the_run_retains_everything():
    handle = run_mode(TraceMode.ring(100_000))
    full = run_mode(TraceMode.full())
    assert handle.trace().signature() == full.trace().signature()


# ----------------------------------------------------------------------
# Queries on partial records
# ----------------------------------------------------------------------
def test_prefix_refuses_on_non_full_modes():
    for mode in (TraceMode.sampled(0.5, seed=1), TraceMode.ring(8)):
        trace = Trace(mode=mode)
        action = trace.append(Action.make(ActionKind.INVOKE, "w1", info={"txn": "W1"}))
        with pytest.raises(TraceError, match="full-mode"):
            trace.prefix(action)


def test_windowed_queries_scan_by_stamped_index():
    handle = run_mode(TraceMode.sampled(rate=0.2, seed=11))
    trace = handle.simulation.trace
    window = trace.between(10, trace.last_index)
    assert all(10 < a.index < trace.last_index for a in window)
    anchor = trace[0]
    tail = trace.suffix_after(anchor)
    assert all(a.index > anchor.index for a in tail)
    assert len(tail) == len(trace) - 1


def test_check_snow_refuses_on_partial_records():
    """The SNOW N/O checkers walk per-message records — on a sampled trace
    they would return *wrong* verdicts (phantom blocking servers, zero
    replies seen), so the checker refuses like ``prefix()`` does."""
    from repro.core.snow import check_snow

    handle = run_mode(TraceMode.sampled(rate=0.1, seed=7))
    with pytest.raises(TraceError, match="full-mode"):
        check_snow(handle.simulation, handle.history())
    with pytest.raises(TraceError, match="full-mode"):
        handle.snow_report()


def test_run_experiment_refuses_property_checks_on_partial_records():
    """...and the runner refuses the combination up front, before spending
    a run on it; ``check_properties=False`` is the retention-mode spelling."""
    from repro.analysis import ExperimentConfig, WorkloadSpec, run_experiment

    config = ExperimentConfig(
        protocol="algorithm-b",
        replication_factor=3,
        quorum="majority",
        workload=WorkloadSpec(reads_per_reader=2, writes_per_writer=2, seed=3),
        trace_mode=TraceMode.sampled(rate=0.1, seed=7),
    )
    with pytest.raises(ValueError, match="check_properties=False"):
        run_experiment(config)

    from dataclasses import replace

    result = run_experiment(replace(config, check_properties=False, monitors=True))
    assert result.snow is None
    assert result.property_string() == "????"
    assert result.obs.monitors.ok  # observers stay exact; only verdicts opt out
    assert len(result.metrics.transactions) > 0


def test_consensus_block_under_a_ring_is_exact_or_refused():
    """Algorithm B at cf=3 under ``ring(64)``: with a plane the consensus
    block equals the full-trace run's; without one there is no exact source
    left (the ring forgot most ``apply`` actions — counting the retained ones
    used to report 5 applied entries of 54), so the runner refuses up front
    and the replay helper refuses on its own."""
    from dataclasses import replace

    from repro.analysis import ExperimentConfig, WorkloadSpec, run_experiment

    full = ExperimentConfig(
        protocol="algorithm-b",
        consensus_factor=3,
        scheduler="chaos",
        seed=11,
        workload=WorkloadSpec(reads_per_reader=6, writes_per_writer=3, read_size=2, write_size=2, seed=11),
        check_properties=False,
    )
    expected = run_experiment(full).metrics.consensus
    assert expected.entries_applied == expected.commit_latency.count == 54

    ring = replace(full, trace_mode=TraceMode.ring(64))
    assert run_experiment(replace(ring, observe=True)).metrics.consensus == expected
    with pytest.raises(ValueError, match="observe=True"):
        run_experiment(ring)

    from repro.analysis.metrics import collect_metrics
    from repro.obs import derive_registry

    handle = run_mode(TraceMode.ring(64), consensus_factor=3)
    with pytest.raises(TraceError, match="observe=True"):
        derive_registry(handle.simulation.trace)
    with pytest.raises(TraceError, match="full-mode"):
        collect_metrics(handle.simulation, protocol_name="algorithm-b")


def test_sampling_stats_partitions_total_appended():
    from repro.obs import sampling_stats

    sampled = sampling_stats(run_mode(TraceMode.sampled(0.1, seed=3)).simulation.trace)
    assert sampled["mode"] == "sampled(rate=0.1, seed=3)"
    assert sampled["retained"] + sampled["sampled_out"] == sampled["total_appended"]
    assert 0.0 < sampled["retention"] < 1.0

    ring = sampling_stats(run_mode(TraceMode.ring(16)).simulation.trace)
    assert ring["retained"] == 16 and ring["sampled_out"] == 0

    full = sampling_stats(run_mode(None).simulation.trace)
    assert full == {
        "mode": "full",
        "total_appended": full["total_appended"],
        "retained": full["total_appended"],
        "sampled_out": 0,
        "retention": 1.0,
    }
