"""The kernel metrics registry: virtual-time counters, gauges and histograms.

Every value in the registry is derived from *simulation-visible* quantities —
trace actions, virtual-clock stamps, payload fields — never from wall-clock
time, so a registry snapshot is as deterministic as the trace it was fed
from: the same configuration run twice yields byte-identical snapshots.
(Wall-clock measurement lives in :mod:`repro.obs.profiler` and is kept
strictly out of snapshots and exports.)

Metrics are addressed by ``(name, labels)`` the way Prometheus-style
registries are, e.g. ``registry.counter("kernel.events", kind="send")``.
Instruments are created on first touch and iterate in sorted label order, so
rendering is stable regardless of the order in which a run touched them.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

MetricKey = Tuple[str, Tuple[Tuple[str, Any], ...]]


def _percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile over an already-sorted list (mirrors
    :func:`repro.analysis.metrics.percentile`; duplicated locally so the
    kernel-side registry never imports the analysis layer)."""
    if not values:
        return float("nan")
    rank = max(1, math.ceil(fraction * len(values)))
    return float(values[rank - 1])


def _key(name: str, labels: Dict[str, Any]) -> MetricKey:
    return (name, tuple(sorted(labels.items())))


def _label_string(key: MetricKey) -> str:
    name, items = key
    if not items:
        return name
    inner = ",".join(f"{k}={v}" for k, v in items)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A settable value that also remembers the maximum it ever held."""

    __slots__ = ("value", "max_value")

    def __init__(self) -> None:
        self.value = 0
        self.max_value = 0

    def set(self, value: Any) -> None:
        self.value = value
        if isinstance(value, (int, float)) and value > self.max_value:
            self.max_value = value

    def inc(self, amount: int = 1) -> None:
        self.set(self.value + amount)

    def dec(self, amount: int = 1) -> None:
        self.value -= amount


class Histogram:
    """A distribution: stores raw observations (runs are small enough that
    exact retention beats bucketing, and the analysis layer wants the raw
    values for its own aggregation)."""

    __slots__ = ("_values",)

    def __init__(self) -> None:
        self._values: List[float] = []

    def observe(self, value: float) -> None:
        self._values.append(float(value))

    @property
    def values(self) -> Tuple[float, ...]:
        return tuple(self._values)

    def summary(self) -> Dict[str, float]:
        ordered = sorted(self._values)
        if not ordered:
            return {"count": 0}
        return {
            "count": len(ordered),
            "sum": sum(ordered),
            "min": ordered[0],
            "max": ordered[-1],
            "p50": _percentile(ordered, 0.50),
            "p95": _percentile(ordered, 0.95),
        }


class HeldInstruments(dict):
    """One single-label metric's instruments, held by label value.

    ``held[value]`` is ``registry.<family>(name, **{label: value})`` for
    ``family`` one of ``"counter"`` / ``"gauge"`` / ``"histogram"``: looked
    up through the registry once per value and by a plain dict hit
    afterwards, for callers that touch the same few instruments on every
    kernel event (building and sorting a label dict per touch was the
    registry's whole cost there).  Holding is lazy, so a snapshot still lists
    exactly the label sets a run touched, and it stops once the metric name
    has overflowed its cardinality cap: from then on every new value goes
    through the registry, which must count each routed touch.
    """

    def __init__(self, registry: "MetricsRegistry", family: str, name: str, label: str) -> None:
        super().__init__()
        self._registry = registry
        self._fetch = getattr(registry, family)
        self._name = name
        self._label = label

    def __missing__(self, value: Any) -> Any:
        instrument = self._fetch(self._name, **{self._label: value})
        if not self._registry.counter_value("obs.label_overflow", metric=self._name):
            self[value] = instrument
        return instrument


#: the label set high-cardinality instruments overflow into (see below)
OVERFLOW_LABELS: Tuple[Tuple[str, Any], ...] = (("label_overflow", "true"),)


class MetricsRegistry:
    """Get-or-create store of named, labelled instruments.

    ``max_label_sets`` caps the distinct label sets **per metric name and
    instrument type** — a million-object workload labelling a histogram by
    object id must not blow up registry memory.  Once a metric name hits the
    cap, further *new* label sets all route to one shared overflow
    instrument (labelled ``label_overflow="true"``) and the
    ``obs.label_overflow{metric=<name>}`` counter counts every routed touch,
    so the overflow is loud in any snapshot instead of a silent memory lie.
    Existing label sets keep resolving to their own instruments.
    """

    def __init__(self, max_label_sets: int = 512) -> None:
        if max_label_sets < 1:
            raise ValueError("max_label_sets must be >= 1")
        self.max_label_sets = max_label_sets
        self._counters: Dict[MetricKey, Counter] = {}
        self._gauges: Dict[MetricKey, Gauge] = {}
        self._histograms: Dict[MetricKey, Histogram] = {}
        #: (instrument type, metric name) -> distinct label sets created
        self._cardinality: Dict[Tuple[str, str], int] = {}

    def _admit(self, family: str, name: str, key: MetricKey) -> MetricKey:
        """Key to actually store under: ``key`` while under the cap, the
        overflow key after.  Counts the admission and screams on overflow."""
        count = self._cardinality.get((family, name), 0)
        if count >= self.max_label_sets:
            # Bypass the capped path for the alarm counter itself (it has
            # one label set per overflowing metric name — bounded).
            alarm_key = _key("obs.label_overflow", {"metric": name})
            alarm = self._counters.get(alarm_key)
            if alarm is None:
                alarm = self._counters[alarm_key] = Counter()
            alarm.inc()
            return (name, OVERFLOW_LABELS)
        self._cardinality[(family, name)] = count + 1
        return key

    # -- instrument access ---------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        key = _key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            key = self._admit("counter", name, key)
            instrument = self._counters.get(key)
            if instrument is None:
                instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = _key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            key = self._admit("gauge", name, key)
            instrument = self._gauges.get(key)
            if instrument is None:
                instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(self, name: str, **labels: Any) -> Histogram:
        key = _key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            key = self._admit("histogram", name, key)
            instrument = self._histograms.get(key)
            if instrument is None:
                instrument = self._histograms[key] = Histogram()
        return instrument

    # -- read-side helpers (0 / empty when never touched) --------------
    def counter_value(self, name: str, **labels: Any) -> int:
        instrument = self._counters.get(_key(name, labels))
        return instrument.value if instrument is not None else 0

    def counter_total(self, name: str) -> int:
        """Sum of a counter over all label sets (e.g. events of any kind)."""
        return sum(c.value for (n, _), c in self._counters.items() if n == name)

    def gauge_value(self, name: str, **labels: Any) -> Optional[Any]:
        instrument = self._gauges.get(_key(name, labels))
        return instrument.value if instrument is not None else None

    def gauge_max(self, name: str, **labels: Any) -> Optional[Any]:
        instrument = self._gauges.get(_key(name, labels))
        return instrument.max_value if instrument is not None else None

    def histogram_values(self, name: str, **labels: Any) -> Tuple[float, ...]:
        instrument = self._histograms.get(_key(name, labels))
        return instrument.values if instrument is not None else ()

    # -- rendering ------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """A plain, JSON-able, deterministically ordered view of everything."""
        return {
            "counters": {
                _label_string(key): self._counters[key].value
                for key in sorted(self._counters)
            },
            "gauges": {
                _label_string(key): {
                    "value": self._gauges[key].value,
                    "max": self._gauges[key].max_value,
                }
                for key in sorted(self._gauges)
            },
            "histograms": {
                _label_string(key): self._histograms[key].summary()
                for key in sorted(self._histograms)
            },
        }

    def describe(self) -> str:
        """Multi-line human-readable rendering of the snapshot."""
        snap = self.snapshot()
        lines: List[str] = []
        for label, value in snap["counters"].items():
            lines.append(f"{label} = {value}")
        for label, gauge in snap["gauges"].items():
            lines.append(f"{label} = {gauge['value']} (max {gauge['max']})")
        for label, summary in snap["histograms"].items():
            if summary["count"] == 0:
                lines.append(f"{label}: n=0")
                continue
            lines.append(
                f"{label}: n={summary['count']} min={summary['min']:g} "
                f"p50={summary['p50']:g} p95={summary['p95']:g} max={summary['max']:g}"
            )
        return "\n".join(lines)
