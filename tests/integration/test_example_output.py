"""Every example prints exactly its committed output.

Each ``examples/<stem>.py`` runs in a fresh interpreter on this checkout's
``src`` and its stdout must equal ``examples/golden/<stem>.txt`` byte for
byte.  The examples are deterministic (seeded, virtual time), so a changed
number, verdict or table row in any of them fails here.  After changing an
example's output on purpose, regenerate its golden from the repo root with
``PYTHONPATH=src python examples/<stem>.py > examples/golden/<stem>.txt``
and read the diff.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = ROOT / "examples"
GOLDEN = EXAMPLES / "golden"
STEMS = sorted(path.stem for path in EXAMPLES.glob("*.py"))


def test_every_example_has_a_golden_and_every_golden_an_example():
    assert STEMS
    assert sorted(path.stem for path in GOLDEN.glob("*.txt")) == STEMS


@pytest.mark.parametrize("stem", STEMS)
def test_example_prints_its_golden(stem):
    done = subprocess.run(
        [sys.executable, str(EXAMPLES / f"{stem}.py")],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / f"{stem}.txt").read_text(encoding="utf-8")
