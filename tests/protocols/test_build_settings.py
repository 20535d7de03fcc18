"""The ratchet on the build's settings.

``BuildConfig`` and ``Protocol.build`` list the same settings, one field and
one keyword each.  This test pins that list: adding, renaming or removing a
setting means editing ``SETTINGS`` here on purpose, in the same change.
"""

from __future__ import annotations

import dataclasses
import inspect

from repro.protocols import BuildConfig, Protocol

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
