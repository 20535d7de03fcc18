"""Virtual time has one owner, and ripeness one rule: the kernel's.

``Simulation.now()`` is the run's only clock and ``Simulation.advance_to`` the
only way to move it.  Whether an event is ripe (its stamp reached by the clock)
is decided by the frontier alone: ``EventFrontier.events`` is given one clock
and holds the ripe events only, and the kernel's idle loop is the one walk
that moves the clock when nothing is ripe.  The test reads ``src/repro`` with
:mod:`ast`: no fault plane keeps a clock or walks it, no other class defines
``advance_to``, the second clocks' fields are gone, no scheduler filters by
stamp, and nothing outside ``repro/ioa`` reads a ``ready_at`` back.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
TREES = {path: ast.parse(path.read_text("utf-8")) for path in sorted(SRC.rglob("*.py"))}
NODES = [node for tree in TREES.values() for node in ast.walk(tree)]
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


def test_events_is_given_one_clock():
    (frontier,) = _classes()["EventFrontier"]
    events = _methods(frontier)["events"]
    assert [a.arg for a in events.args.args] == ["self", "now_fn"]


def test_ripeness_is_decided_by_the_frontier_alone():
    classes = _classes()
    (frontier,) = classes["EventFrontier"]
    (chaos,) = classes["ChaosScheduler"]
    (injector,) = classes["FaultInjector"]
    (simulation,) = classes["Simulation"]
    assert "ripe" not in _methods(frontier)
    # the chaos pick counts what the frontier holds ripe and asks its base
    chaos_pick = _methods(chaos)["pick"]
    asked = {
        a.attr for a in ast.walk(chaos_pick)
        if isinstance(a, ast.Attribute) and isinstance(a.value, ast.Name) and a.value.id == "frontier"
    }
    assert asked == {"ripe_count"}, asked
    assert "_advance_through_boundaries" not in _methods(injector)
    assert not set(_methods(simulation)) & {
        "has_pending_invocations",
        "has_ripe_delivery",
        "has_ripe_timeout",
        "next_delivery_boundary",
        "next_timeout_boundary",
    }


def test_no_module_outside_the_kernel_reads_a_stamp():
    """Passing a stamp in (``enqueue_delivery(message, ready_at=...)``) is
    fine; reading one back to compare it (``.ready_at``, or ``getattr`` by
    name) is the kernel's business."""
    reading = sorted(
        str(path.relative_to(SRC))
        for path, tree in TREES.items()
        if path.parent.name != "ioa"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "ready_at")
        or (isinstance(node, ast.Constant) and node.value == "ready_at")
    )
    assert reading == [], reading
