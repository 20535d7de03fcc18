"""Unit tests of the kernel metrics registry (no simulation involved)."""

from __future__ import annotations

import json
import math

from repro.obs import MetricsRegistry


def test_counter_labels_and_totals():
    registry = MetricsRegistry()
    registry.counter("kernel.events", kind="send").inc()
    registry.counter("kernel.events", kind="send").inc(2)
    registry.counter("kernel.events", kind="recv").inc()
    assert registry.counter_value("kernel.events", kind="send") == 3
    assert registry.counter_value("kernel.events", kind="recv") == 1
    assert registry.counter_total("kernel.events") == 4
    # label order never matters: one instrument per label *set*
    registry.counter("m", a=1, b=2).inc()
    assert registry.counter("m", b=2, a=1).value == 1


def test_counter_value_defaults_to_zero_when_never_touched():
    registry = MetricsRegistry()
    assert registry.counter_value("never", kind="x") == 0
    assert registry.counter_total("never") == 0


def test_gauge_set_inc_dec_and_max_watermark():
    registry = MetricsRegistry()
    gauge = registry.gauge("kernel.mailbox_depth", automaton="s1")
    gauge.inc()
    gauge.inc()
    gauge.inc()
    gauge.dec()
    assert gauge.value == 2
    assert gauge.max_value == 3  # the watermark survives the drain
    gauge.set(1)
    assert (gauge.value, gauge.max_value) == (1, 3)
    assert registry.gauge_value("kernel.mailbox_depth", automaton="s1") == 1
    assert registry.gauge_max("kernel.mailbox_depth", automaton="s1") == 3
    assert registry.gauge_value("kernel.mailbox_depth", automaton="s2") is None
    assert registry.gauge_max("other") is None


def test_histogram_summary_is_nearest_rank():
    registry = MetricsRegistry()
    histogram = registry.histogram("rtt")
    for value in (5, 1, 9, 3, 7):
        histogram.observe(value)
    assert registry.histogram_values("rtt") == (5.0, 1.0, 9.0, 3.0, 7.0)
    summary = histogram.summary()
    assert summary == {
        "count": 5,
        "sum": 25.0,
        "min": 1.0,
        "max": 9.0,
        "p50": 5.0,
        "p95": 9.0,
    }


def test_empty_histogram_summary_and_reads():
    registry = MetricsRegistry()
    assert registry.histogram("rtt").summary() == {"count": 0}
    assert registry.histogram_values("untouched") == ()
    assert "rtt: n=0" in registry.describe()


def test_snapshot_is_sorted_and_json_serialisable():
    registry = MetricsRegistry()
    registry.counter("z.last", kind="b").inc()
    registry.counter("a.first").inc(4)
    registry.counter("z.last", kind="a").inc(2)
    registry.gauge("depth", automaton="s1").set(7)
    registry.histogram("lat").observe(3)
    snapshot = registry.snapshot()
    assert list(snapshot) == ["counters", "gauges", "histograms"]
    assert list(snapshot["counters"]) == ["a.first", "z.last{kind=a}", "z.last{kind=b}"]
    assert snapshot["counters"]["z.last{kind=b}"] == 1
    assert snapshot["gauges"]["depth{automaton=s1}"] == {"value": 7, "max": 7}
    assert snapshot["histograms"]["lat"]["count"] == 1
    json.dumps(snapshot)  # plain data all the way down


def test_describe_renders_every_instrument():
    registry = MetricsRegistry()
    registry.counter("events", kind="send").inc(2)
    registry.gauge("depth").set(1)
    registry.histogram("lat").observe(4)
    text = registry.describe()
    assert "events{kind=send} = 2" in text
    assert "depth = 1 (max 1)" in text
    assert "lat: n=1 min=4 p50=4 p95=4 max=4" in text


def test_registry_percentile_handles_degenerate_inputs():
    from repro.obs.registry import _percentile

    assert math.isnan(_percentile([], 0.5))
    for fraction in (0.01, 0.5, 0.95, 1.0):
        assert _percentile([7.0], fraction) == 7.0


def test_held_instruments_are_the_registrys_own_and_fetched_lazily():
    from repro.obs.registry import HeldInstruments

    registry = MetricsRegistry()
    held = HeldInstruments(registry, "counter", "kernel.events", "kind")
    assert registry.snapshot()["counters"] == {}  # nothing exists until touched
    held["send"].inc()
    held["send"].inc()
    registry.counter("kernel.events", kind="send").inc()
    assert held["send"] is registry.counter("kernel.events", kind="send")
    assert registry.snapshot()["counters"] == {"kernel.events{kind=send}": 3}


def test_held_instruments_stop_holding_once_the_metric_overflows():
    """Every touch routed to the overflow instrument must still be counted,
    exactly as when each touch goes through the registry."""
    from repro.obs.registry import HeldInstruments

    def touch(get):
        for value in ("a", "b", "c", "c", "d", "a", "c"):
            get(value).inc()

    direct, through_held = MetricsRegistry(max_label_sets=2), MetricsRegistry(max_label_sets=2)
    touch(lambda value: direct.gauge("depth", automaton=value))
    held = HeldInstruments(through_held, "gauge", "depth", "automaton")
    touch(lambda value: held[value])
    assert through_held.snapshot() == direct.snapshot()
    assert direct.counter_value("obs.label_overflow", metric="depth") == 4
    assert set(held) == {"a", "b"}
