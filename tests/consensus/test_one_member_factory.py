"""A consensus member is made in one place, and a spawned one like a founder.

``Protocol.make_consensus_member`` builds the founding group and every member
the reconfiguration driver spawns mid-run; leases, the stable store and
``compact_every`` are constructor arguments, never attributes written after
the build.  The structural test reads ``src/`` with :mod:`ast`; the behaviour
tests check that ``persistence=`` becomes one plane per build and grow a
leased, durable, compacting group mid-run.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Tuple

import pytest

from repro.consensus import ReconfigPlan, set_consensus_group
from repro.consensus.log import StableStore
from repro.faults import ChaosScheduler
from repro.ioa import FIFOScheduler
from repro.obs import ObservabilityPlane
from repro.persist import PersistencePlane, PersistencePolicy
from repro.protocols import get_protocol

SRC = Path(__file__).resolve().parents[2] / "src"
FOUNDERS = ("coor", "coor.2", "coor.3")
GROWN = FOUNDERS + ("coor.4", "coor.5")
#: the member settings a build decides; nothing may write them after it
MEMBER_SETTINGS = {"leases", "stable_store", "compact_every"}


def _scan_src() -> Tuple[List[str], List[str]]:
    """``(ReplicatedCoordinator(...) callers, writers of a member setting)``,
    each as ``"<file>:<enclosing scope>"``."""
    callers: List[str] = []
    writers: List[str] = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()

        def visit(node: ast.AST, scope: Tuple[str, ...]) -> None:
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = scope + (child.name,)
                elif isinstance(child, ast.Call):
                    func = child.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name == "ReplicatedCoordinator":
                        callers.append(f"{module}:{'.'.join(scope)}")
                elif isinstance(child, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                    for target in targets:
                        if isinstance(target, ast.Attribute) and target.attr in MEMBER_SETTINGS:
                            writers.append(f"{module}:{'.'.join(scope)}")
                visit(child, inner)

        visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return callers, writers


def test_a_member_is_constructed_in_exactly_one_function():
    callers, writers = _scan_src()
    assert callers == ["repro/protocols/base.py:Protocol.make_consensus_member"]
    assert set(writers) == {"repro/consensus/coordinator.py:ReplicatedCoordinator.__init__"}


def test_persistence_is_normalised_once_per_build(monkeypatch):
    """A policy becomes one plane, the handle's, and members take their
    stores from it; without one, each member holds a store that keeps
    nothing; a value that is neither policy nor plane is refused."""
    planes = []
    original = PersistencePlane.__init__

    def counted(self, *args, **kwargs):
        planes.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(PersistencePlane, "__init__", counted)
    handle = get_protocol("algorithm-b").build(consensus_factor=3, persistence=PersistencePolicy())
    assert planes == [handle.persistence]
    for name in FOUNDERS:
        assert handle.simulation.automaton(name).stable_store is handle.persistence.store_for(name)
    volatile = get_protocol("algorithm-b").build(consensus_factor=3)
    for name in FOUNDERS:
        store = volatile.simulation.automaton(name).stable_store
        assert type(store) is StableStore and not store.durable
    with pytest.raises(ValueError, match="PersistencePolicy or PersistencePlane"):
        get_protocol("algorithm-b").build(consensus_factor=3, persistence="sim")


def run_b(grow: bool):
    """B at cf=3 with leases and compact_every=2, optionally grown to five
    members mid-run; four chained write+read rounds keep it busy across the
    change."""
    plan = ReconfigPlan(name="grow", requests=(set_consensus_group(GROWN, at=20),)) if grow else None
    handle = get_protocol("algorithm-b").build(
        num_readers=2,
        num_writers=2,
        scheduler=ChaosScheduler(base=FIFOScheduler()),
        seed=3,
        consensus_factor=3,
        reconfig=plan,
        obs=ObservabilityPlane(monitors=True),
        persistence=PersistencePolicy(compact_every=2),
        leases=True,
    )
    previous = None
    for index in range(1, 5):
        previous = handle.submit_write(
            {obj: f"v{index}-{obj}" for obj in handle.objects},
            writer=handle.writers[(index - 1) % 2],
            txn_id=f"W{index}",
            after=[previous] if previous else (),
        )
        handle.submit_read(reader=handle.readers[(index - 1) % 2], txn_id=f"R{index}", after=[previous])
    handle.run_to_completion()
    return handle


def test_spawned_members_inherit_leases_and_durability():
    grown, fixed = run_b(grow=True), run_b(grow=False)
    assert grown.simulation.topology.consensus_group() == GROWN
    for name in GROWN[len(FOUNDERS):]:
        member = grown.simulation.automaton(name)
        assert member.leases is True
        assert member.stable_store is grown.persistence.store_for(name)
        assert member.compact_every == 2
    assert any(grown.simulation.automaton(name).checkpoints for name in GROWN)
    for handle in (grown, fixed):
        assert handle.simulation.obs.monitors.alerts == []
    assert grown.snow_report().property_string() == fixed.snow_report().property_string()
