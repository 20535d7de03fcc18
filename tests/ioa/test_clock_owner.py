"""Virtual time has one owner: the kernel.

``Simulation.now()`` is the run's only clock and ``Simulation.advance_to`` the
only way to move it: the kernel's idle jump to a timer, a fault plane's
boundary walk and a clock-skipping scheduler all go through it.  The test
reads ``src/repro`` with :mod:`ast`: no fault plane keeps a clock, no other
class defines ``advance_to``, the second clocks' fields are gone, and
``EventFrontier.ripe`` is given one clock.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
NODES = [node for path in sorted(SRC.rglob("*.py")) for node in ast.walk(ast.parse(path.read_text("utf-8")))]
#: the fields the second clocks lived in
DELETED_FIELDS = {"_virtual_now", "_timeout_clock"}


def _classes() -> Dict[str, List[ast.ClassDef]]:
    found: Dict[str, List[ast.ClassDef]] = {}
    for node in NODES:
        if isinstance(node, ast.ClassDef):
            found.setdefault(node.name, []).append(node)
    return found


def _methods(cls: ast.ClassDef) -> Dict[str, ast.FunctionDef]:
    return {n.name: n for n in cls.body if isinstance(n, ast.FunctionDef)}


def _names_used() -> set:
    return {n.attr for n in NODES if isinstance(n, ast.Attribute)} | {
        n.id for n in NODES if isinstance(n, ast.Name)
    }


def test_a_fault_plane_keeps_no_clock():
    (plane,) = _classes()["FaultPlane"]
    assert not {"now", "advance_to"} & set(_methods(plane))


def test_only_the_kernel_moves_the_clock():
    movers = sorted(
        name for name, nodes in _classes().items() for cls in nodes if "advance_to" in _methods(cls)
    )
    assert movers == ["Simulation"], movers


def test_the_second_clocks_are_gone():
    assert not DELETED_FIELDS & _names_used()
    (chaos,) = _classes()["ChaosScheduler"]
    assert "_clock" not in _methods(chaos)
    assert "_clock" not in {a.attr for a in ast.walk(chaos) if isinstance(a, ast.Attribute)}


def test_ripe_is_given_one_clock():
    (frontier,) = _classes()["EventFrontier"]
    ripe = _methods(frontier)["ripe"]
    assert [a.arg for a in ripe.args.args] == ["self", "now"]
