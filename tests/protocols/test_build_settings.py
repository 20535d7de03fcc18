"""The ratchet on the build's settings and the options nested inside them.

``BuildConfig`` and ``Protocol.build`` list the same settings, one field and
one keyword each.  This test pins that list, ``ExperimentConfig``'s fields,
and one level down the fields of the policy objects those settings take:
adding, renaming or removing a setting or an option means editing the pins
here on purpose, in the same change.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.analysis import ExperimentConfig
from repro.consensus import ControllerPolicy, ReconfigController
from repro.ioa import TraceMode
from repro.obs import MetricsRegistry, MonitorSuite, ObservabilityPlane, SLOPolicy
from repro.persist import PersistencePolicy
from repro.protocols import BuildConfig, Protocol, get_protocol

SETTINGS = (
    "num_readers",
    "num_writers",
    "num_objects",
    "initial_value",
    "seed",
    "c2c",
    "scheduler",
    "max_steps",
    "fault_plane",
    "replication_factor",
    "quorum",
    "consensus_factor",
    "election_timeout",
    "reconfig",
    "controller",
    "obs",
    "trace_mode",
    "persistence",
    "leases",
)


def test_build_config_fields_are_the_pinned_settings():
    assert tuple(field.name for field in dataclasses.fields(BuildConfig)) == SETTINGS


def test_build_keywords_are_the_build_config_fields():
    keywords = set(inspect.signature(Protocol.build).parameters) - {"self"}
    assert keywords == set(SETTINGS)


#: the declarative experiment: the build settings it forwards, the workload
#: and checks around them, and the three listener switches of the obs plane
EXPERIMENT_FIELDS = (
    "protocol",
    "num_readers",
    "num_writers",
    "num_objects",
    "workload",
    "scheduler",
    "seed",
    "c2c",
    "initial_value",
    "check_properties",
    "faults",
    "replication_factor",
    "quorum",
    "consensus_factor",
    "reconfig",
    "controller",
    "observe",
    "monitors",
    "health",
    "trace_mode",
    "persistence",
    "leases",
)


def test_experiment_config_fields_are_pinned():
    assert tuple(field.name for field in dataclasses.fields(ExperimentConfig)) == EXPERIMENT_FIELDS


#: the fields of each policy object a setting takes
SUB_OPTIONS = {
    TraceMode: ("kind", "capacity"),
    ControllerPolicy: ("fail_after", "latency_bound", "max_actions"),
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
    ReconfigController: ("policy", "directory", "name"),
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
