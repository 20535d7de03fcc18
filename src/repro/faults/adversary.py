"""The fault-aware adversary: adversarial ordering *under* network faults.

The repository has two adversary families: the rule-driven
:class:`~repro.ioa.scheduler.AdversarialScheduler` (the paper's impossibility
constructions — reorder, never lose) and the fault plane (lose, delay,
partition — but order at random).  ``ChaosScheduler(base=AdversarialScheduler)``
composes them, and this module actually *drives* the composition: S-violation
hunts that order events adversarially while the fault plan drops and delays
them — the strictly stronger adversary real systems face.

The canonical hunt target is the naive latest-value protocol: the classic
fracture schedule (deliver a READ's request to one shard after a concurrent
WRITE installed there, to the other before) breaks S on reliable channels
already; under drops the same rules keep working because retransmission makes
every delivery *eventually* orderable — which is exactly the composition
property these experiments pin down, and what the S-protocols (algorithms
A/B/C) must survive.

``make_scheduler("chaos+adversarial", seed)`` builds the neutral composition
(random base, no rules) for config-addressed experiments; the helpers here
add targeted rules on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..ioa.scheduler import (
    AdversarialScheduler,
    DelayRule,
    RandomScheduler,
    Scheduler,
    holds_message,
    until_message_delivered,
    until_transaction_done,
)
from .chaos import ChaosScheduler
from .plan import FaultPlan
from .scenarios import lossy_network


def chaos_adversarial_scheduler(
    seed: int = 0,
    rules: Sequence[DelayRule] = (),
    base: Optional[Scheduler] = None,
) -> ChaosScheduler:
    """A chaos scheduler whose base policy is a rule-driven adversary.

    The chaos layer honours the fault plan's virtual arrival times (so drops,
    retransmissions and latency happen as planned); among the ripe events the
    adversary's rules pick the most hostile ordering.
    """
    adversary = AdversarialScheduler(
        rules=list(rules), base=base or RandomScheduler(seed=seed)
    )
    return ChaosScheduler(base=adversary, seed=seed)


def fracture_rules(read_id: str, write_id: str, late_server: str, early_server: str) -> List[DelayRule]:
    """The fractured-read schedule, as reusable delay rules.

    Hold the READ's request at ``late_server`` until the concurrent WRITE
    installed there (the read sees the *new* value), and hold the WRITE's
    install at ``early_server`` until the READ finished (the read saw the
    *old* value there) — no serial order explains the pair.
    """
    return [
        DelayRule(
            name=f"read-at-{late_server}-after-write-installed",
            holds=holds_message(dst=late_server, predicate=lambda m, r=read_id: m.get("txn") == r),
            until=until_message_delivered("write-val", dst=late_server),
        ),
        DelayRule(
            name=f"write-at-{early_server}-after-read-done",
            holds=holds_message(dst=early_server, predicate=lambda m, w=write_id: m.get("txn") == w),
            until=until_transaction_done(read_id),
        ),
    ]


@dataclass
class HuntResult:
    """Outcome of one S-violation hunt run."""

    protocol: str
    seed: int
    consistent: bool
    property_string: str
    retransmissions: int = 0

    def describe(self) -> str:
        verdict = "consistent" if self.consistent else "S VIOLATED"
        return (
            f"{self.protocol} seed={self.seed}: {verdict} ({self.property_string}, "
            f"retransmissions={self.retransmissions})"
        )


@dataclass
class Hunt:
    """Aggregated results of an S-violation hunt across seeds."""

    results: List[HuntResult] = field(default_factory=list)

    def violations(self) -> Tuple[HuntResult, ...]:
        return tuple(r for r in self.results if not r.consistent)

    def describe(self) -> str:
        lines = [r.describe() for r in self.results]
        lines.append(f"total: {len(self.violations())}/{len(self.results)} runs violated S")
        return "\n".join(lines)


def hunt_s_violations(
    protocol_names: Sequence[str] = ("naive-snow", "algorithm-b"),
    plan: Optional[FaultPlan] = None,
    seeds: Sequence[int] = (0, 1, 2),
) -> Hunt:
    """Drive the fracture adversary under a fault plan, per protocol and seed.

    Each run issues one multi-object WRITE racing one multi-object READ and
    lets the composed ``chaos+adversarial`` scheduler order the (dropped,
    retransmitted, delayed) deliveries with the fracture rules active.  The
    naive latest-value candidate loses S on essentially every seed; the
    paper's algorithms must not, drops or no drops — that asymmetry is the
    experiment's point.
    """
    # the fault plane loads without the protocol layer; a hunt builds systems, so it loads it
    from ..protocols.registry import get_protocol

    plan = plan if plan is not None else lossy_network()
    hunt = Hunt()
    for protocol_name in protocol_names:
        for seed in seeds:
            protocol = get_protocol(protocol_name)
            scheduler = chaos_adversarial_scheduler(seed=seed)
            handle = protocol.build(
                num_readers=1,
                num_writers=1,
                num_objects=2,
                scheduler=scheduler,
                seed=seed,
                fault_plane=_injector(plan, seed),
            )
            write_id = handle.submit_write(
                {obj: f"new-{obj}" for obj in handle.objects}, writer=handle.writers[0]
            )
            read_id = handle.submit_read(handle.objects)
            late, early = handle.servers[0], handle.servers[-1]
            scheduler.base.rules.extend(fracture_rules(read_id, write_id, late, early))
            handle.run()
            report = handle.snow_report()
            faults = handle.simulation.fault_plane
            hunt.results.append(
                HuntResult(
                    protocol=protocol_name,
                    seed=seed,
                    consistent=report.satisfies_s,
                    property_string=report.property_string(),
                    retransmissions=faults.stats.retransmissions if faults is not None else 0,
                )
            )
    return hunt


def _injector(plan: FaultPlan, seed: int):
    # the rule builders above need no injector; it loads with the first hunt
    from .injector import FaultInjector

    return FaultInjector(plan.with_seed(seed), seed=seed)
