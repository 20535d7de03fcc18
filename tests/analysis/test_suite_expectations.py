"""Every filed suite's claims hold on its committed file, and say something.

A golden (``test_suite_golden.py``) shows that the numbers did not move; a
suite's ``expect`` claims show that they are still right.  Each claim is
checked against the committed ``BENCH_<name>.json``, must select part of it
(a ``where`` that matches nothing would pass forever), and one flipped cell
per suite must fail with exactly that claim's label.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

import repro.analysis.__main__ as cli
from repro.analysis.sweep import (
    GRID_SUITES,
    ROUNDS_VS_CONTENTION,
    check,
    col,
    equal_across,
    holds,
    non_decreasing,
    paired,
)

RESULTS = Path(__file__).resolve().parents[2] / "benchmarks" / "results"


def committed(suite):
    return json.loads((RESULTS / f"BENCH_{suite.name}.json").read_text(encoding="utf-8"))["grid"]


@pytest.mark.parametrize("suite", GRID_SUITES, ids=lambda suite: suite.name)
def test_the_committed_grid_meets_every_claim(suite):
    assert check(suite, committed(suite)) == []


@pytest.mark.parametrize("suite", GRID_SUITES, ids=lambda suite: suite.name)
def test_every_claim_selects_part_of_its_grid(suite):
    rows = committed(suite)
    identity = ("protocol", *suite.axes)
    assert suite.expect
    assert [e.label for e in suite.expect if not e.cases(rows, identity)] == []
    assert len({e.label for e in suite.expect}) == len(suite.expect)


#: per filed suite: one committed cell (its identity), the value it is
#: flipped to, and the one claim that flip must break
FLIPS = {
    "paper": (
        {"protocol": "algorithm-b"},
        ("max_read_rounds", 3),
        "B pays exactly one extra round (Theorem 4)",
    ),
    "faults": (
        {"protocol": "algorithm-b", "scenario": "lossy"},
        ("retransmissions", 0),
        "the lossy network needed the retry layer",
    ),
    "replication": (
        {"protocol": "algorithm-a", "replication_factor": 1, "scenario": "crash-replica"},
        ("availability", 1.0),
        "factor 1: the crashed replica was the only copy",
    ),
    "failover": (
        {"protocol": "algorithm-b", "consensus_factor": 3, "scenario": "none"},
        ("elections", 1),
        "factor 3 fault-free: the bootstrap leader just leads, no election",
    ),
    "persist": (
        {"protocol": "algorithm-b", "persistence": "durable+compact", "scenario": "none"},
        ("retained_entries", 10_000),
        "compaction bounds the retained log suffix",
    ),
    "lease": (
        {"protocol": "algorithm-b", "leases": "leased", "scenario": "steady"},
        ("lease_read_latency_mean", 1000.0),
        "a lease-served read skips the commit path: its latency is below the unleased commit latency",
    ),
    "reconfig": (
        {"protocol": "algorithm-a", "scenario": "replace-dead-replica"},
        ("epochs", 3),
        "a replacement is one joint entry plus one commit",
    ),
    "versions-vs-writers": (
        {"protocol": "algorithm-c", "writers": 2},
        ("max_versions", 1000),
        "more writers put more versions in flight",
    ),
    "rounds-vs-contention": (
        {"protocol": "algorithm-b", "writers": 4},
        ("max_read_rounds", 3),
        "B stays at its two rounds at every contention level",
    ),
}


@pytest.mark.parametrize("suite", GRID_SUITES, ids=lambda suite: suite.name)
def test_a_flipped_cell_fails_with_exactly_its_claims_label(suite):
    identity, (column, value), label = FLIPS[suite.name]
    rows = committed(suite)
    (row,) = [row for row in rows if all(row[key] == wanted for key, wanted in identity.items())]
    row[column] = value
    assert check(suite, rows) == [label]


# ----------------------------------------------------------------------
# The predicates themselves
# ----------------------------------------------------------------------
IDENTITY = ("protocol", "mode")
ROWS = [
    {"protocol": "p", "mode": "off", "x": 1, "y": 5},
    {"protocol": "p", "mode": "on", "x": 3, "y": 2},
    {"protocol": "q", "mode": "off", "x": 2},
]


def verdicts(expectation):
    return [expectation.passes(case) for case in expectation.cases(ROWS, IDENTITY)]


def test_holds_reads_a_missing_column_as_none():
    assert verdicts(holds("y", "==", None, where={"protocol": "q"}, label="")) == [True]
    # an ordering against a missing cell fails instead of raising
    assert verdicts(holds("y", ">", 0, label="")) == [True, True, False]
    assert verdicts(holds("x", "<", col("y"), label="")) == [True, False, False]


def test_where_takes_a_value_or_a_tuple_of_values():
    assert len(verdicts(holds("x", ">", 0, where={"mode": "on"}, label=""))) == 1
    assert len(verdicts(holds("x", ">", 0, where={"protocol": ("p", "q")}, label=""))) == 3
    assert verdicts(holds("x", "in", (1, 2), where={"mode": "off"}, label="")) == [True, True]


def test_paired_compares_twins_and_skips_a_row_without_one():
    on_vs_off = paired("x", ">", axis=("mode", "on", "off"), label="")
    assert on_vs_off.cases(ROWS, IDENTITY) == [(ROWS[1], ROWS[0])]
    assert verdicts(on_vs_off) == [True]
    assert verdicts(paired("x", "<", axis=("mode", "on", "off"), other="y", label="")) == [True]


def test_non_decreasing_and_equal_across_read_sequences_of_twins():
    assert non_decreasing("x", along="mode", label="").cases(ROWS, IDENTITY) == [[1, 3]]
    assert verdicts(non_decreasing("x", along="mode", label="")) == [True]
    assert verdicts(non_decreasing("y", along="mode", label="")) == [False]
    assert verdicts(equal_across("protocol", "mode", label="")) == [True]
    assert verdicts(equal_across("x", "mode", label="")) == [False]


# ----------------------------------------------------------------------
# python -m repro.analysis
# ----------------------------------------------------------------------
def test_the_cli_rewrites_every_filed_file_byte_for_byte(tmp_path, capsys):
    assert cli.main([], results=tmp_path) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(f"BENCH_{s.name}.json" for s in GRID_SUITES)
    for path in tmp_path.iterdir():
        assert path.read_bytes() == (RESULTS / path.name).read_bytes(), path.name
    assert str(tmp_path / "BENCH_lease.json") in capsys.readouterr().out


def test_the_cli_refuses_an_unknown_suite(tmp_path, capsys):
    assert cli.main(["lease", "leases"], results=tmp_path) == 2
    assert "unknown suite leases" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_the_cli_exits_1_naming_every_broken_claim(tmp_path, monkeypatch, capsys):
    broken = replace(
        ROUNDS_VS_CONTENTION,
        expect=(
            holds("max_read_rounds", "==", 1, label="everyone reads in one round"),
            holds("max_read_rounds", ">", 0, label="every READ takes a round"),
            holds("max_read_rounds", "<", 3, label="nobody needs three rounds"),
        ),
    )
    monkeypatch.setattr(cli, "GRID_SUITES", (broken,))
    assert cli.main(["rounds-vs-contention"], results=tmp_path) == 1
    err = capsys.readouterr().err
    assert "FAILED rounds-vs-contention: everyone reads in one round" in err
    assert "FAILED rounds-vs-contention: nobody needs three rounds" in err
    assert "every READ takes a round" not in err
