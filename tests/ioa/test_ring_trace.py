"""The trace retention modes: full / ring(capacity).

The contract under test, end to end on real runs:

* ``full`` is the seed behaviour — explicit or defaulted, byte-identical
  (the per-protocol golden pin lives in ``test_golden_rf1.py``; here the
  two spellings are compared directly);
* ``ring`` keeps the newest ``capacity`` records with true global indices,
  while **observers stay exact**: metrics counters, registry snapshots and
  the streaming monitors see every appended action;
* the queries that would lie on a partial record (``prefix``, the SNOW
  checkers, ``run_experiment``'s property checks and trace-replayed metric
  blocks) refuse loudly.
"""

from __future__ import annotations

from dataclasses import replace

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
        lambda: TraceMode(kind="sampled"),
        lambda: TraceMode.ring(capacity=0),
    ],
)
def test_degenerate_modes_are_rejected(bad):
    with pytest.raises(ValueError):
        bad()


def test_mode_describe_strings():
    assert TraceMode.full().describe() == "full"
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


# ----------------------------------------------------------------------
# ring: the flight recorder
# ----------------------------------------------------------------------
def test_observers_stay_exact_under_a_ring():
    """Counters and monitors are computed from *every* appended action, so
    a ring changes no observed number."""
    _, full_plane = run_observed(
        "algorithm-b", monitors=True, scheduler=FIFOScheduler(),
        replication_factor=3, quorum="majority",
    )
    handle, ring_plane = run_observed(
        "algorithm-b", monitors=True, scheduler=FIFOScheduler(),
        replication_factor=3, quorum="majority",
        trace_mode=TraceMode.ring(16),
    )
    assert ring_plane.registry.snapshot() == full_plane.registry.snapshot()
    trace = handle.simulation.trace
    assert len(trace) == 16
    assert ring_plane.registry.counter_total("kernel.events") == trace.total_appended
    assert ring_plane.monitors.ok
    assert ring_plane.monitors._seen == trace.total_appended > len(trace)


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
def test_prefix_refuses_on_a_ring():
    trace = Trace(mode=TraceMode.ring(8))
    action = trace.append(Action.make(ActionKind.INVOKE, "w1", info={"txn": "W1"}))
    with pytest.raises(TraceError, match="full-mode"):
        trace.prefix(action)


def test_windowed_queries_scan_by_stamped_index():
    trace = run_mode(TraceMode.ring(32)).simulation.trace
    low = trace[0].index + 3
    window = trace.between(low, trace.last_index)
    assert window and all(low < a.index < trace.last_index for a in window)
    anchor = trace[0]
    tail = trace.suffix_after(anchor)
    assert all(a.index > anchor.index for a in tail)
    assert len(tail) == len(trace) - 1
    # ``find`` takes a global index; ``[i:j]`` slices by retained position
    assert trace.find(lambda a: True, start=low).index == low
    assert trace.find(lambda a: True, start=trace.last_index + 1) is None
    assert [a.index for a in trace[2:5]] == [a.index for a in list(trace)[2:5]]


def test_check_snow_refuses_on_partial_records():
    """The SNOW N/O checkers walk per-message records — on a ring they
    would return *wrong* verdicts (phantom blocking servers, zero replies
    seen), so the checker refuses like ``prefix()`` does."""
    from repro.core.snow import check_snow

    handle = run_mode(TraceMode.ring(32))
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
        trace_mode=TraceMode.ring(32),
    )
    with pytest.raises(ValueError, match="check_properties=False"):
        run_experiment(config)

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
