"""Shared helpers for the observability-plane tests.

``run_observed`` is :func:`tests.replication.conftest.run_fixed_workload`
with a fresh :class:`~repro.obs.ObservabilityPlane` attached — the fixed
explicit-id workload (W1/R1/W2/R2) keeps signatures, span trees and
registry snapshots comparable across runs (transaction ids come from a
process-global counter, so anything unpinned would differ run to run).

The autouse fixture applies the shared safety-invariant checker to every
run of this suite, same as the replication/consensus suites do.
"""

from __future__ import annotations

import pytest

from repro.obs import ObservabilityPlane

from tests import invariants
from tests.replication.conftest import run_fixed_workload


@pytest.fixture(autouse=True)
def invariant_autocheck():
    """Apply the shared safety-invariant checker to every run of this suite."""
    invariants.reset()
    yield
    invariants.check_registered()


def run_observed(protocol_name: str, monitors=None, health=None, **kwargs):
    """Run the fixed workload with a fresh plane; returns ``(handle, plane)``.

    ``monitors``/``health`` thread through to :class:`ObservabilityPlane`
    (``True`` for defaults, or a pre-built suite/policy/plane)."""
    plane = ObservabilityPlane(monitors=monitors, health=health)
    handle = run_fixed_workload(protocol_name, obs=plane, **kwargs)
    return handle, plane
