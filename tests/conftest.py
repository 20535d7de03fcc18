"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.ioa import FIFOScheduler, RandomScheduler
from repro.protocols import get_protocol


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "invariants: safety-invariant gate tests (consensus + reconfiguration); "
        "run as a fast CI gate via `-m invariants`",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Dump the failing test's simulation traces when ``CHAOS_TRACE_DIR`` is
    set (the CI chaos-grid job uploads the directory as an artifact, so a
    red nightly cell arrives with its replayable schedule attached)."""
    outcome = yield
    report = outcome.get_result()
    trace_dir = os.environ.get("CHAOS_TRACE_DIR")
    # Both phases matter: in-body assertions fail in "call", the autouse
    # safety-invariant fixtures fail in "teardown" (check_registered keeps
    # the handles registered on a violation exactly so they land here).
    if not trace_dir or report.when not in ("call", "teardown") or not report.failed:
        return
    from tests import invariants

    out = Path(trace_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = re.sub(r"[^A-Za-z0-9._-]+", "_", item.nodeid)[:180]
    for index, handle in enumerate(invariants.REGISTERED):
        try:
            text = handle.describe() + "\n\n" + handle.trace().describe()
        except Exception as exc:  # a half-built handle must not mask the failure
            text = f"<trace unavailable: {exc!r}>"
        (out / f"{stem}.{report.when}.{index}.trace.txt").write_text(
            text, encoding="utf-8"
        )
        # The same execution as a Chrome trace-event timeline (open in
        # Perfetto), derived post-mortem — no observability plane needed.
        simulation = getattr(handle, "simulation", None)
        if simulation is None:
            continue
        try:
            from repro.obs import derive_spans, write_chrome_trace

            write_chrome_trace(
                derive_spans(simulation),
                out / f"{stem}.{report.when}.{index}.timeline.json",
            )
        except Exception:  # never let the renderer mask the real failure
            pass
        # The end-of-run health report (text + JSON): from the run's own
        # health plane when one was attached, otherwise derived post-mortem
        # from the retained trace — a red cell arrives with its SLO/error
        # picture next to the schedule.
        try:
            from repro.obs import HealthView, derive_health

            plane = getattr(getattr(handle, "obs", None), "health", None)
            view = HealthView(plane) if plane is not None else derive_health(simulation)
            base = f"{stem}.{report.when}.{index}"
            (out / f"{base}.health.txt").write_text(
                view.render() + "\n", encoding="utf-8"
            )
            (out / f"{base}.health.json").write_text(
                json.dumps(view.report(), indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
        except Exception:  # the health renderer must not mask the failure either
            pass


def build_system(
    protocol_name: str,
    num_readers: int = 1,
    num_writers: int = 1,
    num_objects: int = 2,
    scheduler=None,
    seed: int = 0,
    **kwargs,
):
    """Build a protocol system with sensible defaults for tests."""
    protocol = get_protocol(protocol_name)
    if not protocol.supports_multiple_readers:
        num_readers = 1
    return protocol.build(
        num_readers=num_readers,
        num_writers=num_writers,
        num_objects=num_objects,
        scheduler=scheduler or FIFOScheduler(),
        seed=seed,
        **kwargs,
    )


def run_simple_workload(handle, rounds: int = 2, sequential: bool = False):
    """Submit a small contending workload and run it to completion.

    Returns ``(read_ids, write_ids)``.  With ``sequential`` each read waits
    for the previous write (useful when asserting exact read results).
    """
    read_ids, write_ids = [], []
    previous_write = None
    for index in range(1, rounds + 1):
        for writer in handle.writers:
            updates = {obj: f"{writer}-{index}" for obj in handle.objects}
            after = [previous_write] if (sequential and previous_write) else ()
            previous_write = handle.submit_write(updates, writer=writer, after=after)
            write_ids.append(previous_write)
        for reader in handle.readers:
            after = [previous_write] if sequential and previous_write else ()
            read_ids.append(handle.submit_read(handle.objects, reader=reader, after=after))
    handle.run_to_completion()
    return read_ids, write_ids


@pytest.fixture(scope="session")
def fresh_python():
    """``fresh_python(code)``: run ``code`` in a new interpreter on this
    checkout's ``src`` and return the JSON document on its last output line.
    What a process imports can only be asked of a process that has imported
    nothing yet; the test session itself has loaded nearly everything."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def run(code: str):
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=root, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.splitlines()[-1])

    return run


@pytest.fixture
def fifo_scheduler():
    return FIFOScheduler()


@pytest.fixture
def random_scheduler():
    return RandomScheduler(seed=7)
