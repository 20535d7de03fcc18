"""The README has a byte budget, and the budget only falls.

Per-change detail belongs in ``CHANGES.md`` and in module docstrings; the
README says what the project is, how to reproduce the paper, run a suite and
measure.  A change that must grow the README shrinks something else in it.
"""

from __future__ import annotations

from pathlib import Path

README = Path(__file__).resolve().parents[2] / "README.md"

#: ``README.md``'s size in bytes when the budget was set.  It may only be
#: lowered (the target is 20,000); never raise it to make room.
README_BUDGET = 56_475


def test_readme_stays_within_its_byte_budget():
    size = len(README.read_bytes())
    assert size <= README_BUDGET, f"README.md is {size} bytes, over its budget of {README_BUDGET}"
