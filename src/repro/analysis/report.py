"""Plain-text table rendering: a filed suite's rows (``python -m
repro.analysis``) and the examples' tables.  Everything is plain text so it
can be ``print``-ed and diffed.
"""

from __future__ import annotations

from typing import Any, List, Sequence


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
