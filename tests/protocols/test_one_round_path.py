"""Each protocol's client has one round path, whatever the membership.

A client round is driven from a membership view — the build's fixed groups
or the reconfiguration directory — through one ``quorum_round``; there is no
second, fixed-membership copy of a round behind ``directory is None``.  The
test reads ``src/repro/protocols`` with :mod:`ast`: no Reader/Writer automaton
compares ``self.directory`` with ``None`` except at the listed ``needs``
choices, and none of the deleted twin rounds or helpers is back.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path
from typing import List

from repro.ioa.automaton import ReaderAutomaton, WriterAutomaton

PROTOCOLS = Path(__file__).resolve().parents[2] / "src" / "repro" / "protocols"

#: the only membership-dependent choices left in a client, each with its reason
NEEDS_CHOICES = {
    "occ.py:OccWriter.run_transaction": (
        "write-all on fixed groups: timestamp-ordered last-writer-wins converges "
        "only when every replica sees every install; a write quorum per "
        "configuration under a directory"
    ),
    "occ.py:OccReader._collect": (
        "read-all on fixed groups: the double collect compares every replica's "
        "apply counter; a read quorum per configuration under a directory"
    ),
    "eiger.py:EigerWriter.run_transaction": (
        "write-all on fixed groups: validity intervals are per-replica state; a "
        "write quorum per configuration under a directory"
    ),
}
#: the per-protocol twin rounds and the helpers only they needed
DELETED = {
    "_fixed_membership_round", "_epoch_round", "_collect_epoch", "_run_epoch",
    "_epoch_install_round", "epoch_quorum_round", "_epoch_key_read_round",
    "per_object_reply_await", "key_read_await", "write_quorum_await", "_count_by_object",
}


def _is_self_directory(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "directory"
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _is_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _client_class(module_name: str, class_name: str) -> bool:
    cls = getattr(importlib.import_module(f"repro.protocols.{module_name}"), class_name)
    return issubclass(cls, (ReaderAutomaton, WriterAutomaton))


def _directory_checks_in_clients() -> List[str]:
    found: List[str] = []
    for path in sorted(PROTOCOLS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            if not _client_class(path.stem, cls.name):
                continue
            for method in (n for n in cls.body if isinstance(n, ast.FunctionDef)):
                for node in ast.walk(method):
                    if not isinstance(node, ast.Compare):
                        continue
                    sides = [node.left, *node.comparators]
                    if any(_is_self_directory(s) for s in sides) and any(_is_none(s) for s in sides):
                        found.append(f"{path.name}:{cls.name}.{method.name}")
    return found


def test_clients_compare_the_directory_only_at_the_needs_choices():
    found = _directory_checks_in_clients()
    assert sorted(found) == sorted(NEEDS_CHOICES), found


def test_the_twin_rounds_are_gone():
    defined = {
        node.name
        for path in PROTOCOLS.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert not defined & DELETED, sorted(defined & DELETED)
