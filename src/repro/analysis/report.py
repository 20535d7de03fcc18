"""Plain-text table rendering for benchmark output.

The benchmarks print the same kinds of rows the paper reports: the Figure 1
matrices, a latency comparison across protocols (the paper's "READ
transactions should match simple reads" argument made quantitative), and a
filed suite's rows (``python -m repro.analysis``).  Everything is plain text
so it can be ``print``-ed and diffed.
"""

from __future__ import annotations

from typing import Any, List, Sequence

from .metrics import ExperimentMetrics
from .runner import ExperimentResult


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]], title: str = "") -> str:
    """Fixed-width table rendering."""
    columns = len(headers)
    widths = [len(str(h)) for h in headers]
    normalised_rows: List[List[str]] = []
    for row in rows:
        cells = [("" if cell is None else str(cell)) for cell in row]
        if len(cells) < columns:
            cells += [""] * (columns - len(cells))
        normalised_rows.append(cells)
        for index in range(columns):
            widths[index] = max(widths[index], len(cells[index]))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for cells in normalised_rows:
        lines.append("  ".join(cells[i].ljust(widths[i]) for i in range(columns)))
    return "\n".join(lines)


def format_markdown_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """GitHub-flavoured markdown table (used when writing EXPERIMENTS.md-style reports)."""
    lines = ["| " + " | ".join(str(h) for h in headers) + " |"]
    lines.append("|" + "|".join(["---"] * len(headers)) + "|")
    for row in rows:
        lines.append("| " + " | ".join("" if cell is None else str(cell) for cell in row) + " |")
    return "\n".join(lines)


def latency_comparison_rows(results: Sequence[ExperimentResult]) -> List[List[Any]]:
    """Rows of the protocol latency comparison table."""
    rows: List[List[Any]] = []
    for result in results:
        metrics = result.metrics
        rows.append(
            [
                result.protocol,
                result.property_string(),
                f"{metrics.read_rounds.mean:.2f}" if metrics.read_rounds.count else "-",
                int(metrics.read_rounds.maximum) if metrics.read_rounds.count else "-",
                f"{metrics.read_latency_steps.mean:.1f}" if metrics.read_latency_steps.count else "-",
                f"{metrics.read_messages.mean:.1f}" if metrics.read_messages.count else "-",
                int(metrics.read_versions.maximum) if metrics.read_versions.count else "-",
                f"{metrics.write_latency_steps.mean:.1f}" if metrics.write_latency_steps.count else "-",
                metrics.total_messages,
            ]
        )
    return rows


LATENCY_HEADERS = (
    "protocol",
    "props",
    "read rounds (mean)",
    "read rounds (max)",
    "read latency steps",
    "read msgs",
    "max versions",
    "write latency steps",
    "total msgs",
)


def format_latency_comparison(results: Sequence[ExperimentResult], title: str = "READ latency comparison") -> str:
    return format_table(LATENCY_HEADERS, latency_comparison_rows(results), title=title)
