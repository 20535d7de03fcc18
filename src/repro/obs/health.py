"""The health/SLO subsystem: latency SLOs, rolling rates, replica health.

Everything here is derived on the **virtual clock** — transaction latency
between INVOKE and RESPOND, rolling timeout/error-rate windows, per-replica
staleness — so a health report is as deterministic as the trace it was fed
from.  The plane is a pure listener fed by the same observer hook as the
metrics registry (:meth:`ObservabilityPlane.on_action`); it appends no
actions and never touches scheduler or RNG state.

Three faces:

* :class:`HealthPlane` — the observer-fed accumulator (enable with
  ``ObservabilityPlane(health=True)`` or a custom :class:`SLOPolicy`);
* :class:`HealthView` — the query API (``replica_health``, ``suspects``,
  SLO attainment, rolling rates) plus the deterministic end-of-run report
  exporter (dict → JSON, and a text rendering).  This is the detector input
  :class:`~repro.consensus.controller.ReconfigController` can optionally
  consume (``ControllerPolicy.use_health``, default-off and golden-pinned);
* :func:`derive_health` — the post-mortem form: replay a finished run's
  retained trace through a fresh plane.  Its clock is reconstructed from
  the vtime stamps internal actions carry (falling back to trace indices),
  so online and post-mortem numbers need not be equal — but each is
  individually deterministic.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..ioa.actions import Action, ActionKind
from .registry import Histogram


@dataclass(frozen=True)
class SLOPolicy:
    """The health plane's thresholds, all in virtual-time steps.

    ``read_latency``/``write_latency`` are the per-kind transaction latency
    SLOs; ``window`` is the rolling-rate bucket width and ``history`` how
    many buckets the rolling rates retain; ``stale_after`` is the staleness
    horizon at which a replica's health score reaches zero.
    """

    read_latency: int = 60
    write_latency: int = 90
    window: int = 64
    history: int = 8
    stale_after: int = 200

    def __post_init__(self) -> None:
        if self.read_latency < 1 or self.write_latency < 1:
            raise ValueError("latency SLOs must be >= 1 virtual-time step")
        if self.window < 1 or self.history < 1:
            raise ValueError("rolling window/history must be >= 1")
        if self.stale_after < 1:
            raise ValueError("stale_after must be >= 1")

    def latency_slo(self, txn_kind: str) -> int:
        return self.read_latency if txn_kind == "read" else self.write_latency

    def describe(self) -> str:
        return (
            f"slo(read<={self.read_latency}, write<={self.write_latency}, "
            f"window={self.window}x{self.history}, stale_after={self.stale_after})"
        )


class HealthPlane:
    """Observer-fed health accumulator for one run (or one trace replay)."""

    def __init__(self, slo: Optional[SLOPolicy] = None) -> None:
        self.slo = slo if slo is not None else SLOPolicy()
        self._simulation: Optional[weakref.ref] = None
        #: txn id -> (kind, invoke vtime) while in flight
        self._inflight: Dict[str, Tuple[str, int]] = {}
        #: per-kind latency distributions plus SLO verdict counts
        self._latency: Dict[str, Histogram] = {}
        self._slo_ok: Dict[str, int] = {}
        self._slo_breach: Dict[str, int] = {}
        #: actor -> vtime of its most recent observed action
        self._last_active: Dict[str, int] = {}
        #: replica -> ctl-probe round-trips (virtual-time steps)
        self._probe_rtt: Dict[str, Histogram] = {}
        #: rolling (bucket_id, counts) windows, newest last
        self._buckets: Deque[Tuple[int, Dict[str, int]]] = deque()
        self._totals: Dict[str, int] = {
            "events": 0,
            "timeouts": 0,
            "errors": 0,
            "stalls": 0,
        }
        #: the last clock read: the replay clock of detached (post-mortem)
        #: feeding, and what a report shows once the simulation is gone
        self._clock = 0

    # -- wiring ----------------------------------------------------------
    def on_attach(self, simulation: Any) -> None:
        self._simulation = weakref.ref(simulation)

    @property
    def simulation(self) -> Optional[Any]:
        """The simulation whose clock this plane reads, held weakly like
        :attr:`ObservabilityPlane.simulation`; ``None`` when detached."""
        return self._simulation() if self._simulation is not None else None

    def now(self) -> int:
        """The simulation's clock; detached (a replay, or the simulation has
        been dropped) the clock of the last observed action or query."""
        simulation = self.simulation
        if simulation is not None:
            self._clock = simulation.now()
        return self._clock

    # -- the per-event hook ---------------------------------------------
    def on_action(self, action: Action) -> None:
        if self._simulation is None:
            # Post-mortem replay: reconstruct the clock from the vtime
            # stamps internal actions carry, falling back to the stamped
            # trace index (monotone, deterministic).
            vtime = action.get("vtime")
            if isinstance(vtime, int) and vtime > self._clock:
                self._clock = vtime
            if action.index > self._clock:
                self._clock = action.index
        now = self.now()
        self._bump("events", now)
        self._last_active[action.actor] = now
        kind = action.kind
        if kind is ActionKind.INVOKE:
            txn = action.get("txn")
            if txn is not None:
                self._inflight[str(txn)] = (str(action.get("txn_kind", "txn")), now)
        elif kind is ActionKind.RESPOND:
            txn = action.get("txn")
            started = self._inflight.pop(str(txn), None) if txn is not None else None
            if started is not None:
                txn_kind, invoked_at = started
                latency = max(0, now - invoked_at)
                self._latency.setdefault(txn_kind, Histogram()).observe(latency)
                if latency <= self.slo.latency_slo(txn_kind):
                    self._slo_ok[txn_kind] = self._slo_ok.get(txn_kind, 0) + 1
                else:
                    self._slo_breach[txn_kind] = self._slo_breach.get(txn_kind, 0) + 1
        elif kind is ActionKind.RECV and action.message is not None:
            message = action.message
            if message.msg_type == "epoch-mismatch":
                self._bump("errors", now)
            elif message.msg_type == "ctl-ack":
                sent = message.get("sent")
                if isinstance(sent, int):
                    self._probe_rtt.setdefault(message.src, Histogram()).observe(
                        max(0, now - sent)
                    )
        elif kind is ActionKind.INTERNAL and action.get("timeout"):
            self._bump("timeouts", now)

    def note_stall(self, now: int) -> None:
        """A scheduler found no ripe event and had to fast-forward the clock
        (the chaos scheduler reports these) — a liveness health signal."""
        self._bump("stalls", now)

    # -- rolling windows --------------------------------------------------
    def _bump(self, what: str, now: int) -> None:
        self._totals[what] = self._totals.get(what, 0) + 1
        bucket_id = now // self.slo.window
        buckets = self._buckets
        if not buckets or buckets[-1][0] != bucket_id:
            buckets.append((bucket_id, {}))
            while len(buckets) > self.slo.history:
                buckets.popleft()
        counts = buckets[-1][1]
        counts[what] = counts.get(what, 0) + 1

    def _window_counts(self) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        for _bucket_id, counts in self._buckets:
            for what, count in counts.items():
                merged[what] = merged.get(what, 0) + count
        return merged

    # -- scores -----------------------------------------------------------
    def replica_health(self, name: str, now: Optional[int] = None) -> float:
        """Staleness-derived health in ``[0, 1]``: 1 = active this instant,
        0 = silent for ``stale_after`` or longer.  An actor never observed
        scores 1.0 — absence of evidence is not evidence of failure."""
        last = self._last_active.get(name)
        if last is None:
            return 1.0
        age = max(0, (self.now() if now is None else now) - last)
        return round(max(0.0, 1.0 - age / self.slo.stale_after), 4)


class HealthView:
    """Query API + deterministic report exporter over a :class:`HealthPlane`."""

    def __init__(self, plane: HealthPlane) -> None:
        self._plane = plane

    # -- detector inputs -------------------------------------------------
    def replica_health(self, name: str, now: Optional[int] = None) -> float:
        return self._plane.replica_health(name, now=now)

    def suspects(self, threshold: float = 0.25) -> Tuple[str, ...]:
        """Actors whose health score is at or below ``threshold``, sorted."""
        plane = self._plane
        now = plane.now()
        return tuple(
            sorted(
                name
                for name in plane._last_active
                if plane.replica_health(name, now=now) <= threshold
            )
        )

    def slo_attainment(self, txn_kind: str) -> Optional[float]:
        """Fraction of ``txn_kind`` transactions inside their SLO (``None``
        before any completed)."""
        ok = self._plane._slo_ok.get(txn_kind, 0)
        breach = self._plane._slo_breach.get(txn_kind, 0)
        total = ok + breach
        return round(ok / total, 4) if total else None

    def _window_rate(self, what: str) -> float:
        counts = self._plane._window_counts()
        events = counts.get("events", 0)
        return round(counts.get(what, 0) / events, 4) if events else 0.0

    def timeout_rate(self) -> float:
        """Timeouts per observed event over the rolling window."""
        return self._window_rate("timeouts")

    def error_rate(self) -> float:
        """Protocol errors (epoch-mismatch replies) per observed event over
        the rolling window."""
        return self._window_rate("errors")

    def probe_rtt(self, replica: str) -> Dict[str, float]:
        histogram = self._plane._probe_rtt.get(replica)
        return histogram.summary() if histogram is not None else {"count": 0}

    # -- the end-of-run report -------------------------------------------
    def report(self) -> Dict[str, Any]:
        """A plain, JSON-able, deterministically ordered health report."""
        plane = self._plane
        now = plane.now()
        kinds = sorted(
            set(plane._latency) | set(plane._slo_ok) | set(plane._slo_breach)
        )
        slo: Dict[str, Any] = {}
        for kind in kinds:
            histogram = plane._latency.get(kind)
            slo[kind] = {
                "slo": plane.slo.latency_slo(kind),
                "attainment": self.slo_attainment(kind),
                "ok": plane._slo_ok.get(kind, 0),
                "breach": plane._slo_breach.get(kind, 0),
                "latency": histogram.summary() if histogram is not None else {"count": 0},
            }
        replicas = {
            name: {
                "health": plane.replica_health(name, now=now),
                "last_active": plane._last_active[name],
                "probe_rtt": self.probe_rtt(name),
            }
            for name in sorted(plane._last_active)
        }
        return {
            "vtime": now,
            "policy": plane.slo.describe(),
            "slo": slo,
            "rolling": {
                "window": plane.slo.window,
                "history": plane.slo.history,
                "timeout_rate": self.timeout_rate(),
                "error_rate": self.error_rate(),
                "counts": dict(sorted(plane._window_counts().items())),
            },
            "totals": dict(sorted(plane._totals.items())),
            "suspects": list(self.suspects()),
            "incomplete_txns": sorted(plane._inflight),
        }

    def render(self) -> str:
        """Human-readable multi-line rendering of :meth:`report`."""
        report = self.report()
        lines = [f"health @ vtime {report['vtime']} [{report['policy']}]"]
        for kind, row in report["slo"].items():
            attainment = row["attainment"]
            shown = f"{attainment:.2%}" if attainment is not None else "n/a"
            latency = row["latency"]
            if latency["count"]:
                detail = (
                    f"p50={latency['p50']:g} p95={latency['p95']:g} "
                    f"max={latency['max']:g}"
                )
            else:
                detail = "no samples"
            lines.append(
                f"  {kind}: {shown} in SLO (<= {row['slo']}), "
                f"{row['ok']} ok / {row['breach']} breach, {detail}"
            )
        rolling = report["rolling"]
        lines.append(
            f"  rolling({rolling['window']}x{rolling['history']}): "
            f"timeout_rate={rolling['timeout_rate']:.4f} "
            f"error_rate={rolling['error_rate']:.4f}"
        )
        totals = report["totals"]
        lines.append(
            "  totals: "
            + " ".join(f"{k}={v}" for k, v in totals.items())
        )
        if report["suspects"]:
            lines.append(f"  suspects: {', '.join(report['suspects'])}")
        if report["incomplete_txns"]:
            lines.append(f"  incomplete: {', '.join(report['incomplete_txns'])}")
        return "\n".join(lines)


def derive_health(simulation: Any, slo: Optional[SLOPolicy] = None) -> HealthView:
    """Post-mortem health: replay a finished run's retained trace through a
    fresh detached plane (clock reconstructed from vtime stamps / indices)."""
    plane = HealthPlane(slo=slo)
    for action in simulation.trace:
        plane.on_action(action)
    return HealthView(plane)
