"""``UNRUN.json`` agrees with the source it describes.

Compiling is all this needs, so it runs in tier-1; measuring which lines run
is ``tests/unrun/collect.py``'s job (a few minutes, so CI runs it in its own
job).  The line sets differ between Python minor versions, so on any version
but the one the file records these checks skip.
"""

from __future__ import annotations

import json

import pytest

from tests.unrun import collect

DOC = json.loads(collect.UNRUN.read_text(encoding="utf-8"))
PATHS = {collect.module_name(path): path for path in collect.module_paths()}

pytestmark = pytest.mark.skipif(
    DOC["python"] != collect.PYTHON,
    reason=f"UNRUN.json holds Python {DOC['python']}'s line sets; this is {collect.PYTHON}",
)


def test_the_file_lists_every_module_and_only_those():
    assert sorted(DOC["modules"]) == sorted(PATHS)
    assert DOC["total"] == sum(module["total"] for module in DOC["modules"].values())
    assert DOC["unrun"] == sum(module["unrun"] for module in DOC["modules"].values())


@pytest.mark.parametrize("name", sorted(PATHS))
def test_the_module_entry_matches_its_compiled_lines(name):
    """A ``src/`` edit changes the line numbers, so it needs ``collect.py
    --write`` in the same change; this fails until it has one."""
    module = DOC["modules"][name]
    owners = collect.line_owners(PATHS[name])
    lines = sorted(owners)
    assert module["total"] == len(lines), f"rerun `python tests/unrun/collect.py --write` ({name} changed)"
    previous_last = 0
    for first, last in module["ranges"]:
        assert first in owners and last in owners, (name, first, last)
        assert previous_last < first <= last, (name, first, last)
        previous_last = last
    unrun = collect.expand(module["ranges"], lines)
    assert module["unrun"] == len(unrun)
    assert sorted(module["kept"]) == sorted({owners[line] for line in unrun})
    missing = sorted(owner for owner, reason in module["kept"].items() if not reason.strip())
    assert missing == [], f"{name}: give each unrun function a reason to stay, or delete or test it"


def test_the_file_is_written_in_its_canonical_form():
    assert collect.UNRUN.read_text(encoding="utf-8") == collect.render(DOC)
