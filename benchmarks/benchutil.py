"""Shared helper for the paper-figure benchmarks.

Each figure bench regenerates one of the paper's tables or figures.  Besides
timing the regeneration with pytest-benchmark, it *prints* the regenerated
table and also writes it to ``benchmarks/results/<name>.txt`` so the output
survives output capturing.  The filed suites' ``BENCH_<name>.json`` files are
written by ``python -m repro.analysis`` instead.
"""

from __future__ import annotations

from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


def emit(name: str, text: str) -> None:
    """Print a regenerated table and persist it under benchmarks/results/."""
    banner = f"\n{'=' * 78}\n{name}\n{'=' * 78}\n"
    print(banner + text + "\n")
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
