"""The ratchet on the build's settings and the options nested inside them.

The settings that fix a system are declared once, on ``SystemSpec``;
``BuildConfig`` (what ``Protocol.build(**settings)`` takes) and
``ExperimentConfig`` each add their own fields after them.  This test pins
both classes' field lists, in that order, and one level down the fields of
the policy objects those settings take: adding, renaming or removing a
setting or an option means editing the pins here on purpose, in the same
change.  It also checks that ``run_experiment`` hands every shared setting
to the build.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.analysis import ExperimentConfig, run_experiment
from repro.consensus.reconfig import ReconfigPlan, set_replica_group
from repro.ioa import TraceMode
from repro.obs import MetricsRegistry, MonitorSuite, ObservabilityPlane, SLOPolicy
from repro.persist import PersistencePolicy
from repro.protocols import BuildConfig, Protocol, get_protocol
from repro.protocols.base import SystemSpec

#: the settings every system shares, declared on ``SystemSpec``
SHARED = (
    "num_readers",
    "num_writers",
    "num_objects",
    "initial_value",
    "seed",
    "c2c",
    "replication_factor",
    "quorum",
    "consensus_factor",
    "reconfig",
    "trace_mode",
    "persistence",
    "leases",
)

#: the shared settings, then the parts of one run
SETTINGS = SHARED + (
    "scheduler",
    "max_steps",
    "fault_plane",
    "election_timeout",
    "obs",
)


def test_system_spec_fields_are_the_pinned_shared_settings():
    assert tuple(field.name for field in dataclasses.fields(SystemSpec)) == SHARED


def test_build_config_fields_are_the_pinned_settings():
    assert tuple(field.name for field in dataclasses.fields(BuildConfig)) == SETTINGS


def test_build_refuses_a_setting_build_config_lacks():
    with pytest.raises(TypeError, match="bogus"):
        get_protocol("naive-snow").build(bogus=1)



def test_the_removed_controller_setting_is_refused():
    """The rebalancing controller is gone with its setting: the build and
    the experiment recipe refuse the keyword instead of ignoring it."""
    with pytest.raises(TypeError, match="controller"):
        get_protocol("algorithm-b").build(controller=None)
    with pytest.raises(TypeError, match="controller"):
        ExperimentConfig(protocol="algorithm-b", controller=None)

#: the declarative experiment: the shared settings it forwards, then the
#: workload and checks around them and the three listener switches of the
#: obs plane
EXPERIMENT_FIELDS = SHARED + (
    "protocol",
    "workload",
    "scheduler",
    "check_properties",
    "faults",
    "observe",
    "monitors",
    "health",
)


def test_experiment_config_fields_are_pinned():
    assert tuple(field.name for field in dataclasses.fields(ExperimentConfig)) == EXPERIMENT_FIELDS


#: a value other than ``ExperimentConfig``'s default for each shared setting
NON_DEFAULT = {
    "num_readers": 3,
    "num_writers": 3,
    "num_objects": 3,
    "initial_value": "v0",
    "seed": 7,
    "c2c": True,
    "replication_factor": 3,
    "quorum": "majority",
    "consensus_factor": 3,
    "reconfig": ReconfigPlan(requests=(set_replica_group("ox", ("sx", "sx.2"), at=5),)),
    "trace_mode": TraceMode.ring(8),
    "persistence": PersistencePolicy(),
    "leases": True,
}


class _Built(Exception):
    """Raised by the recording ``build`` once it has seen its settings."""


@pytest.mark.parametrize("setting", SHARED)
def test_run_experiment_hands_every_shared_setting_to_the_build(setting, monkeypatch):
    received = {}

    def build(self, **settings):
        received.update(settings)
        raise _Built

    monkeypatch.setattr(Protocol, "build", build)
    defaults = ExperimentConfig(protocol="algorithm-b")
    value = NON_DEFAULT[setting]
    assert value != getattr(defaults, setting)
    config = ExperimentConfig(protocol="algorithm-b", check_properties=False, **{setting: value})
    with pytest.raises(_Built):
        run_experiment(config)
    assert {name: received[name] for name in SHARED} == {
        **{name: getattr(defaults, name) for name in SHARED},
        setting: value,
    }


#: the fields of each policy object a setting takes
SUB_OPTIONS = {
    TraceMode: ("kind", "capacity"),
    PersistencePolicy: ("backend", "root", "compact_every", "fsync"),
    SLOPolicy: ("read_latency", "write_latency", "window", "history", "stale_after"),
}


@pytest.mark.parametrize("policy", list(SUB_OPTIONS), ids=lambda policy: policy.__name__)
def test_policy_fields_are_the_pinned_sub_options(policy):
    assert tuple(field.name for field in dataclasses.fields(policy)) == SUB_OPTIONS[policy]


#: the keywords of the plane pieces a setting builds
CONSTRUCTOR_KEYWORDS = {
    ObservabilityPlane: ("monitors", "health"),
    MonitorSuite: ("monitors", "halt_on_violation"),
    MetricsRegistry: (),
}


@pytest.mark.parametrize("cls", list(CONSTRUCTOR_KEYWORDS), ids=lambda cls: cls.__name__)
def test_constructor_keywords_are_pinned(cls):
    keywords = tuple(inspect.signature(cls.__init__).parameters)[1:]
    assert keywords == CONSTRUCTOR_KEYWORDS[cls]


def test_trace_mode_kinds_are_full_and_ring():
    accepted = set()
    for kind in ("full", "ring", "sampled", "hologram"):
        try:
            TraceMode(kind=kind, capacity=1)
        except ValueError:
            continue
        accepted.add(kind)
    assert accepted == {"full", "ring"}


def build_with_leases(leases):
    return get_protocol("algorithm-b").build(consensus_factor=3, leases=leases)


@pytest.mark.parametrize("leases", [None, True])
def test_leases_accept_on_and_off(leases):
    """Only on and off; ``tests/consensus/test_lease.py`` shows the refusals."""
    build_with_leases(leases)
