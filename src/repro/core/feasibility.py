"""Empirical reproduction of the result matrices of Figure 1.

Figure 1(a) — *Is SNOW possible?* — classifies settings by client population
(2 clients / MWSR / ≥3 clients) and by whether client-to-client communication
is allowed.  Impossibility cannot be established by running programs, so the
matrix is reproduced with a two-sided experiment that makes the boundary
visible:

* **possible cells** (MWSR or 2-client with C2C): algorithm A is executed
  under many randomized and adversarial schedules with concurrent conflicting
  WRITE transactions, and every execution is checked against *all four* SNOW
  properties — the checkers never find a violation;
* **impossible cells**: the natural SNOW candidate (one-round, one-version,
  non-blocking latest-value reads, :mod:`repro.protocols.naive_snow`) is
  subjected to the same schedules and a strict-serializability violation is
  found and reported (with the seed / schedule that produced it).  The
  accompanying mechanical proof replays in :mod:`repro.proofs` cover the
  actual impossibility argument (Theorems 1 and 2).

Figure 1(b) — *Bounded SNW algorithms* — is the filed ``paper`` suite
(:data:`repro.analysis.sweep.PAPER`, ``python -m repro.analysis paper``):
algorithms A, B and C plus the double-collect baseline, with rounds and
versions measured by the SNOW checkers and the paper's claims as its
``expect``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..ioa.network import SystemSetting, standard_settings
from ..ioa.scheduler import (
    AdversarialScheduler,
    DelayRule,
    FIFOScheduler,
    RandomScheduler,
    holds_message,
    until_message_delivered,
    until_transaction_done,
)
from ..txn.objects import server_for_object
from .snow import SnowReport


@dataclass
class FeasibilityVerdict:
    """One cell of the Figure 1(a) matrix."""

    setting: SystemSetting
    snow_possible: bool
    paper_reference: str
    method: str
    protocol: str
    schedules_checked: int
    violating_seed: Optional[int] = None
    violation_note: str = ""

    def cell(self) -> str:
        return "yes" if self.snow_possible else "no"

    def describe(self) -> str:
        base = f"{self.setting.describe()}: SNOW {'possible' if self.snow_possible else 'impossible'} ({self.paper_reference})"
        if self.snow_possible:
            return base + f"; {self.protocol} satisfied SNOW on {self.schedules_checked} schedules"
        return base + (
            f"; {self.protocol} violated S under seed {self.violating_seed}"
            if self.violating_seed is not None
            else f"; {self.violation_note}"
        )


def paper_expectation(setting: SystemSetting) -> Tuple[bool, str]:
    """The paper's verdict for a setting: (possible?, reference)."""
    if setting.num_clients < 2 or setting.num_servers < 2:
        return True, "trivial (single client or single server serializes everything)"
    if setting.num_readers >= 2:
        # At least two readers and one writer: impossible even with C2C (Theorem 1).
        return False, "Theorem 1 (three or more clients, even with C2C)"
    # Single reader (2-client or MWSR):
    if setting.c2c:
        return True, "Theorem 3 (algorithm A, MWSR with C2C)"
    return False, "Theorem 2 / Section 5.1 (MWSR without C2C)"


# ----------------------------------------------------------------------
# Workloads used by the empirical search
# ----------------------------------------------------------------------
def _submit_contending_workload(handle, rounds: int = 3) -> Tuple[List[str], List[str]]:
    """Concurrent conflicting reads and writes over every object.

    Each writer issues ``rounds`` WRITE transactions covering all objects
    (values encode writer and round); each reader issues ``rounds`` READ
    transactions over all objects.  Nothing is ordered across clients, so
    the scheduler is free to interleave everything (the W property's
    "conflicting writes" situation).
    """
    write_ids: List[str] = []
    read_ids: List[str] = []
    for round_index in range(1, rounds + 1):
        for writer_index, writer in enumerate(handle.writers, start=1):
            updates = {obj: f"{writer}-r{round_index}" for obj in handle.objects}
            write_ids.append(handle.submit_write(updates, writer=writer))
        for reader in handle.readers:
            read_ids.append(handle.submit_read(handle.objects, reader=reader))
    return read_ids, write_ids


def _fracture_scheduler(first_write_id: str, first_read_id: str, objects: Sequence[str]) -> AdversarialScheduler:
    """A targeted adversary that splits a read across a concurrent write.

    It holds the read request to the first object's server until the write's
    install message has been applied there, while holding the write's install
    message to the last object's server until the read has completed — a
    latest-value read then observes the write on one server and misses it on
    the other (a fractured read).
    """
    first_server = server_for_object(objects[0])
    last_server = server_for_object(objects[-1])
    rules = [
        DelayRule(
            name="hold-read-at-first-server-until-write-installed-there",
            holds=holds_message(dst=first_server, predicate=lambda m: m.get("txn") == first_read_id),
            until=until_message_delivered("write-val", dst=first_server),
        ),
        DelayRule(
            name="hold-write-at-last-server-until-read-done",
            holds=holds_message(dst=last_server, predicate=lambda m: m.get("txn") == first_write_id),
            until=until_transaction_done(first_read_id),
        ),
    ]
    return AdversarialScheduler(rules=rules)


# ----------------------------------------------------------------------
# Per-setting experiment
# ----------------------------------------------------------------------
def run_protocol_once(
    protocol_name: str,
    setting: SystemSetting,
    scheduler,
    workload_rounds: int = 3,
    seed: int = 0,
) -> SnowReport:
    """Run one protocol in one setting under one scheduler and report SNOW."""
    # the checkers and the Figure 1 tables load without the protocol layer; running a cell loads it
    from ..protocols.registry import get_protocol

    protocol = get_protocol(protocol_name)
    handle = protocol.build(
        num_readers=setting.num_readers,
        num_writers=setting.num_writers,
        num_objects=setting.num_servers,
        scheduler=scheduler,
        seed=seed,
        c2c=setting.c2c,
    )
    _submit_contending_workload(handle, rounds=workload_rounds)
    handle.run_to_completion()
    return handle.snow_report()


def verify_possible_cell(
    setting: SystemSetting,
    schedules: int = 20,
    workload_rounds: int = 3,
) -> FeasibilityVerdict:
    """Check algorithm A satisfies SNOW across many schedules in a possible cell."""
    checked = 0
    for seed in range(schedules):
        scheduler = FIFOScheduler() if seed == 0 else RandomScheduler(seed=seed)
        report = run_protocol_once("algorithm-a", setting, scheduler, workload_rounds, seed)
        checked += 1
        if not report.satisfies_snow:
            return FeasibilityVerdict(
                setting=setting,
                snow_possible=False,
                paper_reference=paper_expectation(setting)[1],
                method="verification-failed",
                protocol="algorithm-a",
                schedules_checked=checked,
                violating_seed=seed,
                violation_note=report.describe(),
            )
    return FeasibilityVerdict(
        setting=setting,
        snow_possible=True,
        paper_reference=paper_expectation(setting)[1],
        method="verified-protocol",
        protocol="algorithm-a",
        schedules_checked=checked,
    )


def find_violation_in_impossible_cell(
    setting: SystemSetting,
    schedules: int = 50,
    workload_rounds: int = 2,
) -> FeasibilityVerdict:
    """Find an S-violation of the natural NOW candidate in an impossible cell."""
    reference = paper_expectation(setting)[1]
    checked = 0

    # Targeted adversary first: deterministic and fast.
    # the checkers and the Figure 1 tables load without the protocol layer; running a cell loads it
    from ..protocols.registry import get_protocol

    protocol = get_protocol("naive-snow")
    handle = protocol.build(
        num_readers=setting.num_readers,
        num_writers=setting.num_writers,
        num_objects=setting.num_servers,
        scheduler=FIFOScheduler(),
        c2c=setting.c2c,
    )
    # Submit the workload first, then wire the adversary to the generated ids
    # (the scheduler is not consulted until the simulation runs).
    read_ids, write_ids = _submit_contending_workload(handle, rounds=workload_rounds)
    handle.simulation.scheduler = _fracture_scheduler(write_ids[0], read_ids[0], handle.objects)
    handle.run_to_completion()
    report = handle.snow_report()
    checked += 1
    if not report.satisfies_s and report.satisfies_n and report.satisfies_o and report.satisfies_w:
        return FeasibilityVerdict(
            setting=setting,
            snow_possible=False,
            paper_reference=reference,
            method="targeted-adversary",
            protocol="naive-snow",
            schedules_checked=checked,
            violating_seed=None,
            violation_note="targeted fracture schedule: "
            + (report.serializability.describe() if report.serializability else ""),
        )

    # Randomized search as a fallback.
    for seed in range(1, schedules + 1):
        report = run_protocol_once("naive-snow", setting, RandomScheduler(seed=seed), workload_rounds, seed)
        checked += 1
        if not report.satisfies_s:
            return FeasibilityVerdict(
                setting=setting,
                snow_possible=False,
                paper_reference=reference,
                method="randomized-search",
                protocol="naive-snow",
                schedules_checked=checked,
                violating_seed=seed,
                violation_note=report.serializability.describe() if report.serializability else "",
            )
    return FeasibilityVerdict(
        setting=setting,
        snow_possible=False,
        paper_reference=reference,
        method="proof-only",
        protocol="naive-snow",
        schedules_checked=checked,
        violation_note="no violation found empirically; impossibility rests on the mechanical proof replays",
    )


def check_setting(setting: SystemSetting, schedules: int = 20) -> FeasibilityVerdict:
    """Produce the Figure 1(a) verdict for one setting."""
    possible, _reference = paper_expectation(setting)
    if possible:
        return verify_possible_cell(setting, schedules=schedules)
    return find_violation_in_impossible_cell(setting, schedules=schedules)


def feasibility_matrix(schedules: int = 12) -> List[FeasibilityVerdict]:
    """The full Figure 1(a) matrix over the standard settings."""
    return [check_setting(setting, schedules=schedules) for setting in standard_settings()]


def format_feasibility_matrix(verdicts: Sequence[FeasibilityVerdict]) -> str:
    """Render the verdicts as the paper's Figure 1(a) table."""
    rows = {"two-clients": {}, "mwsr": {}, "three-clients": {}}
    for verdict in verdicts:
        for prefix in rows:
            if verdict.setting.name.startswith(prefix):
                rows[prefix][verdict.setting.c2c] = verdict
    lines = [
        "Is SNOW possible?          C2C: yes    C2C: no",
        "-" * 48,
    ]
    labels = {"two-clients": "2 clients", "mwsr": "MWSR", "three-clients": ">= 3 clients"}
    for prefix, label in labels.items():
        with_c2c = rows[prefix].get(True)
        without_c2c = rows[prefix].get(False)
        lines.append(
            f"{label:<26} {with_c2c.cell() if with_c2c else '?':<11} "
            f"{without_c2c.cell() if without_c2c else '?'}"
        )
    return "\n".join(lines)
