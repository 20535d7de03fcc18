"""Reproduction of the result matrices of Figure 1.

Figure 1(a) — *Is SNOW possible?* — classifies settings by client population
(2 clients / MWSR / ≥3 clients) and by whether client-to-client communication
is allowed.  Each cell is read off the exhaustive search of
:mod:`repro.proofs.exhaust`.  In a possible cell (MWSR or 2 clients, with
C2C) algorithm A runs every trace, each checked against all four SNOW
properties.  In an impossible one the natural candidate
(:mod:`repro.protocols.naive_snow`) runs until its first trace that is not
strictly serializable, the cell's witness; the proof replays in
:mod:`repro.proofs` show that every candidate must fail (Theorems 1 and 2).

Figure 1(b) — *Bounded SNW algorithms* — is the filed ``paper`` suite
(:data:`repro.analysis.sweep.PAPER`, ``python -m repro.analysis paper``):
algorithms A, B and C plus the double-collect baseline, with rounds and
versions measured by the SNOW checkers and the paper's claims as its
``expect``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, List, Optional, Sequence, Tuple

from ..ioa.network import SystemSetting, standard_settings


@dataclass
class FeasibilityVerdict:
    """One cell of the Figure 1(a) matrix, read off an exhaustive search."""

    setting: SystemSetting
    paper_reference: str
    protocol: str
    #: runs that ended (one per trace), and runs cut as reorderings
    finished: int
    pruned: int
    #: finished traces breaking SNOW (possible cell) or S (impossible cell)
    violating: int
    #: every trace was run: no budget cut, no stop at a violation
    complete: bool
    #: the first violating trace's event keys, in the order they ran
    witness: Optional[Tuple[Any, ...]] = None

    @property
    def snow_possible(self) -> bool:
        return not self.violating

    def cell(self) -> str:
        return "yes" if self.snow_possible else "no"

    def describe(self) -> str:
        base = f"{self.setting.describe()}: SNOW {'possible' if self.snow_possible else 'impossible'} ({self.paper_reference})"
        runs = self.finished + self.pruned
        if not paper_expectation(self.setting)[0]:
            found, scope = f"trace {self.finished} violates S", "stopped at the first violation"
        else:
            found = f"all {self.finished} traces satisfy SNOW"
            if self.violating:
                found = f"{self.violating} of {self.finished} traces violate SNOW"
            scope = "search complete" if self.complete else "search cut"
        return f"{base}; {self.protocol}: {found} ({runs} runs, {scope})"


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


def check_setting(setting: SystemSetting, max_runs: Optional[int] = None) -> FeasibilityVerdict:
    """Figure 1(a)'s verdict for one setting from at most ``max_runs`` runs
    (None: all).  A possible cell counts algorithm A's traces that break SNOW;
    an impossible one stops at ``naive-snow``'s first trace that is not
    strictly serializable, and raises if there is none: no witness, no verdict."""
    # the checkers and the Figure 1 tables load without the protocol layer; running a cell loads it
    from ..proofs.exhaust import Exploration, contending_system

    possible, reference = paper_expectation(setting)
    protocol = "algorithm-a" if possible else "naive-snow"
    search = Exploration(partial(contending_system, protocol, setting), max_runs)
    violating, witness = 0, None
    for handle in search:
        report = handle.snow_report()
        if report.satisfies_snow if possible else report.satisfies_s:
            continue
        violating += 1
        witness = witness or search.schedule()
        if not possible:
            break
    if not (possible or violating):
        scope = "every trace" if search.complete else "search cut"
        runs = search.finished + search.pruned
        raise RuntimeError(f"{setting.name}: no trace of {protocol} violates S in {runs} runs ({scope})")
    return FeasibilityVerdict(
        setting, reference, protocol, search.finished, search.pruned, violating, search.complete, witness
    )


def feasibility_matrix(max_runs: Optional[int] = None) -> List[FeasibilityVerdict]:
    """The full Figure 1(a) matrix over the standard settings."""
    return [check_setting(setting, max_runs) for setting in standard_settings()]


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
