"""Shared helpers for the consensus-layer tests.

``run_consensus_workload`` mirrors ``tests/replication/conftest.py`` — the
same fixed explicit-id workload — at three consensus members, under the
chaos scheduler by default (leader-crash plans need the virtual clock
honoured).

Every helper-produced handle is registered with the shared invariant checker
(``tests/invariants.py``), and the autouse ``invariant_autocheck`` fixture
re-checks election safety, log matching, state-machine safety and the
reconfiguration invariants at the end of each test in this suite.
"""

from __future__ import annotations

import pytest

from repro.consensus.coordinator import ReplicatedCoordinator
from repro.consensus.machines import ListStateMachine
from repro.faults import ChaosScheduler, coordinator_failover
from repro.ioa import FIFOScheduler
from repro.ioa.actions import Message

from tests import invariants
from tests.invariants import consensus_internals  # noqa: F401  (re-exported)
from tests.replication.conftest import run_fixed_workload

COORDINATOR_PROTOCOLS = ("algorithm-b", "algorithm-c", "occ-double-collect")
GROUP = ("coor", "coor.2", "coor.3")


class FakeContext:
    """Captures a member's sends, internal actions and timers instead of
    going through the kernel."""

    def __init__(self, actor: str) -> None:
        self.actor = actor
        self.vtime = 0
        self.sent = []
        self.internals = []
        self.timers = []

    def send(self, dst, msg_type, payload=None, phase=""):
        self.sent.append(Message.make(msg_type, self.actor, dst, payload or {}))

    def internal(self, **info):
        self.internals.append(info)

    def set_timeout(self, delay, **info):
        self.timers.append(info)


def member(name: str, **settings) -> ReplicatedCoordinator:
    """One member of a hand-driven ``GROUP`` holding B's ``List``."""
    return ReplicatedCoordinator(name, GROUP, ListStateMachine(("ox", "oy")), **settings)


def msg(msg_type: str, src: str, dst: str, **payload) -> Message:
    return Message.make(msg_type, src, dst, payload)


@pytest.fixture(autouse=True)
def invariant_autocheck():
    """Apply the shared safety-invariant checker to every run of this suite."""
    invariants.reset()
    yield
    invariants.check_registered()


def run_consensus_workload(
    protocol_name: str,
    consensus_factor: int = 3,
    scheduler=None,
    run_to_completion: bool = False,
    **settings,
):
    """Build, submit the fixed explicit-id workload, run; returns the handle.

    ``settings`` go on to :func:`run_fixed_workload` (its seed 3, 2R/2W).
    """
    return run_fixed_workload(
        protocol_name,
        scheduler=scheduler or ChaosScheduler(base=FIFOScheduler()),
        consensus_factor=consensus_factor,
        run_to_completion=run_to_completion,
        **settings,
    )


def leader_crash_plan(at: int = 12, seed: int = 3):
    return coordinator_failover(leader="coor", at=at, seed=seed)


def members_of(handle):
    """The ReplicatedCoordinator automata of a built system."""
    return invariants.consensus_members(handle)
