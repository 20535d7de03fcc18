"""Which of ``src/repro``'s bytecode lines tier-1 and the examples never run.

    python tests/unrun/collect.py           # measure, compare with UNRUN.json
    python tests/unrun/collect.py --write   # measure, rewrite UNRUN.json

Standard library only.  One process runs tier-1 in-process
(``pytest -q --hypothesis-seed=0``, no example database, no deadline, without
``tests/unrun``, whose checks only compile) and then
every ``examples/*.py`` through ``runpy`` with its stdout discarded, under a
``sys.settrace`` line tracer (``threading.settrace`` for other threads) that
records lines only for files under ``src/repro/``.  A module's bytecode lines
are the line numbers its compiled code objects report through ``co_lines()``;
a line is run when any frame of that module reported it.  A code object stops
being traced once every one of its lines has run, which keeps the run at a few
minutes.

``UNRUN.json`` holds, per module, the bytecode-line ``total``, the ``unrun``
count, the sorted unrun ``ranges`` (``[first, last]``, each a run of unrun
bytecode lines with no run line between them) and ``kept``: the qualified name
of each function holding an unrun line (``<module>`` for module-level code)
mapped to the reason the line stays.  The line sets differ between Python minor
versions, so the file records the one it was measured on and the comparison
refuses any other.

The default mode exits 1 naming every unrun line the file does not list (and
every module whose ``total`` no longer matches its source); lines the file
lists that now run are reported, and ``--write`` takes them off.  ``--write``
keeps every reason whose function still holds an unrun line and writes an empty
reason for a new one, which ``tests/unrun/test_unrun_file.py`` then rejects.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import runpy
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
UNRUN = Path(__file__).resolve().parent / "UNRUN.json"
PYTHON = f"{sys.version_info.major}.{sys.version_info.minor}"


def module_paths() -> list[Path]:
    return sorted(PACKAGE.rglob("*.py"))


def module_name(path: Path) -> str:
    return path.relative_to(SRC).as_posix()


def code_lines(code) -> set[int]:
    return {line for _, _, line in code.co_lines() if line is not None}


def compiled(path: Path):
    return compile(path.read_text(encoding="utf-8"), str(path), "exec", dont_inherit=True)


def line_owners(path: Path) -> dict[int, str]:
    """Each bytecode line of ``path`` -> the qualified name of the innermost
    code object holding it (``<module>`` for module-level code)."""
    owners: dict[int, tuple[int, str]] = {}

    def walk(code, depth):
        for line in code_lines(code):
            if line not in owners or owners[line][0] < depth:
                owners[line] = (depth, code.co_qualname)
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                walk(const, depth + 1)

    walk(compiled(path), 0)
    return {line: name for line, (_, name) in owners.items()}


def ranges(unrun: set[int], lines: list[int]) -> list[list[int]]:
    """Runs of consecutive entries of the sorted bytecode ``lines`` that are
    all in ``unrun``, as ``[first, last]`` pairs."""
    out: list[list[int]] = []
    previous_unrun = False
    for line in lines:
        if line in unrun:
            if previous_unrun:
                out[-1][1] = line
            else:
                out.append([line, line])
        previous_unrun = line in unrun
    return out


def expand(module_ranges: list[list[int]], lines: list[int]) -> set[int]:
    return {line for first, last in module_ranges for line in lines if first <= line <= last}


class LineTracer:
    """A ``sys.settrace`` tracer recording the lines run under ``PACKAGE``."""

    def __init__(self):
        self._prefix = str(PACKAGE) + os.sep
        self._pending: dict[object, set[int]] = {}  # code -> its lines not yet run
        self._ignored: set[object] = set()
        self.run: dict[str, set[int]] = {}  # filename -> lines run

    def _global(self, frame, event, arg):
        code = frame.f_code
        pending = self._pending.get(code)
        if pending is None:
            if code in self._ignored:
                return None
            if not code.co_filename.startswith(self._prefix):
                self._ignored.add(code)
                return None
            pending = self._pending[code] = code_lines(code)
        if not pending:
            return None
        self._record(code, frame.f_lineno)
        return self._local

    def _local(self, frame, event, arg):
        if event == "line":
            code = frame.f_code
            self._record(code, frame.f_lineno)
            if not self._pending[code]:
                return None
        return self._local

    def _record(self, code, line):
        self._pending[code].discard(line)
        self.run.setdefault(code.co_filename, set()).add(line)

    @contextlib.contextmanager
    def active(self):
        threading.settrace(self._global)
        sys.settrace(self._global)
        try:
            yield self
        finally:
            sys.settrace(None)
            threading.settrace(None)


def run_tier1() -> int:
    import pytest
    from hypothesis import settings

    settings.register_profile("unrun", database=None, deadline=None)
    settings.load_profile("unrun")
    # test_unrun_file.py checks the file this run is about to write (and runs
    # no src/ line: it only compiles), so a stale file must not stop the run
    unrun_tests = str(Path(__file__).resolve().parent)
    return pytest.main(
        ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", f"--ignore={unrun_tests}", str(ROOT / "tests")]
    )


def run_examples() -> list[str]:
    failed = []
    for path in sorted((ROOT / "examples").glob("*.py")):
        argv = sys.argv
        sys.argv = [str(path)]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(path), run_name="__main__")
        except SystemExit as exit_:
            if exit_.code not in (None, 0):
                failed.append(path.name)
        except Exception as exc:  # report, and keep measuring the rest
            failed.append(f"{path.name}: {exc!r}")
        finally:
            sys.argv = argv
    return failed


def measure() -> tuple[dict, list[str]]:
    tracer = LineTracer()
    with tracer.active():
        status = run_tier1()
        failed_examples = run_examples()
    problems = []
    if status != 0:
        problems.append(f"tier-1 exited {status} under the tracer")
    problems.extend(f"example failed: {name}" for name in failed_examples)
    measured = {}
    for path in module_paths():
        owners = line_owners(path)
        lines = sorted(owners)
        unrun = set(lines) - tracer.run.get(str(path), set())
        measured[module_name(path)] = {"lines": lines, "owners": owners, "unrun": unrun}
    return measured, problems


def load() -> dict:
    if not UNRUN.exists():
        return {"python": PYTHON, "modules": {}}
    return json.loads(UNRUN.read_text(encoding="utf-8"))


def document(measured: dict, previous: dict) -> dict:
    modules = {}
    for name, entry in measured.items():
        old_kept = previous.get("modules", {}).get(name, {}).get("kept", {})
        owners = sorted({entry["owners"][line] for line in entry["unrun"]})
        modules[name] = {
            "total": len(entry["lines"]),
            "unrun": len(entry["unrun"]),
            "ranges": ranges(entry["unrun"], entry["lines"]),
            "kept": {owner: old_kept.get(owner, "") for owner in owners},
        }
    return {
        "python": PYTHON,
        "total": sum(module["total"] for module in modules.values()),
        "unrun": sum(module["unrun"] for module in modules.values()),
        "modules": modules,
    }


def render(doc: dict) -> str:
    """The file's text: one block per module with its ranges on one line,
    so a change to one module is a short diff."""
    lines = ["{", f'  "python": {json.dumps(doc["python"])},', f'  "total": {doc["total"]},',
             f'  "unrun": {doc["unrun"]},', '  "modules": {']
    names = list(doc["modules"])
    for index, name in enumerate(names):
        module = doc["modules"][name]
        kept = json.dumps(module["kept"], indent=2, sort_keys=True).replace("\n", "\n      ")
        lines += [
            f"    {json.dumps(name)}: {{",
            f'      "total": {module["total"]},',
            f'      "unrun": {module["unrun"]},',
            f'      "ranges": {json.dumps(module["ranges"])},',
            f'      "kept": {kept}',
            "    }" + ("," if index < len(names) - 1 else ""),
        ]
    lines += ["  }", "}"]
    return "\n".join(lines) + "\n"


def compare(measured: dict, filed: dict) -> int:
    """Print the differences; 1 if a line runs nowhere the file says it may."""
    status = 0
    filed_modules = filed.get("modules", {})
    for name, entry in measured.items():
        module = filed_modules.get(name)
        where = f"src/{name}"
        if module is None or module["total"] != len(entry["lines"]):
            print(f"{where}: UNRUN.json is stale for this module (rerun with --write)")
            status = 1
            continue
        listed = expand(module["ranges"], entry["lines"])
        for line in sorted(entry["unrun"] - listed):
            print(f"{where}:{line}: unrun, not listed ({entry['owners'][line]})")
            status = 1
        now_run = sorted(listed - entry["unrun"])
        if now_run:
            print(f"{where}: {len(now_run)} listed line(s) now run: {now_run} (--write takes them off)")
    for name in sorted(set(filed_modules) - set(measured)):
        print(f"src/{name}: listed in UNRUN.json but gone (rerun with --write)")
        status = 1
    return status


def main(argv: list[str]) -> int:
    write = argv == ["--write"]
    if argv and not write:
        print(__doc__)
        return 2
    filed = load()
    if not write and filed.get("python") != PYTHON:
        print(f"UNRUN.json was measured on Python {filed.get('python')}; this is {PYTHON}")
        return 2
    os.chdir(ROOT)
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    measured, problems = measure()
    for problem in problems:
        print(problem)
    doc = document(measured, filed)
    print(f"src/: {doc['unrun']} of {doc['total']} bytecode lines unrun "
          f"({100 * (1 - doc['unrun'] / doc['total']):.2f} % run) on Python {PYTHON}")
    if problems:
        return 1
    if write:
        UNRUN.write_text(render(doc), encoding="utf-8")
        return 0
    return compare(measured, filed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
