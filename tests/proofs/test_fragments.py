"""Tests for fragment extraction and the commuting/indistinguishability lemmas."""

from __future__ import annotations

import pytest

from repro.ioa import ActionKind
from repro.ioa.errors import TraceError
from repro.ioa.trace import Trace
from repro.proofs.fragments import (
    Dependency,
    can_commute,
    commute_adjacent,
    dependency,
    extract_read_fragments,
    indistinguishable_fragments,
    returned_value,
)
from tests.conftest import build_system, run_simple_workload


def algorithm_a_fragments(num_writers=1):
    handle = build_system("algorithm-a", num_writers=num_writers)
    w = handle.submit_write({"ox": "x1", "oy": "y1"})
    r = handle.submit_read(after=[w])
    handle.run_to_completion()
    fragments = extract_read_fragments(handle.trace(), r, handle.readers[0], handle.servers)
    return handle, r, fragments


class TestExtraction:
    def test_extracts_invocation_fragment_at_reader(self):
        handle, r, fragments = algorithm_a_fragments()
        assert fragments.invocation.single_actor() == handle.readers[0]
        assert fragments.invocation.actions[0].kind == ActionKind.INVOKE

    def test_extracts_non_blocking_fragments_per_server(self):
        handle, r, fragments = algorithm_a_fragments()
        assert set(fragments.servers()) == set(handle.servers)
        for server, fragment in fragments.non_blocking:
            assert fragment.single_actor() == server
            assert fragment.actions[0].kind == ActionKind.RECV
            assert fragment.actions[-1].kind == ActionKind.SEND

    def test_extracts_completion_fragment_ending_with_response(self):
        handle, r, fragments = algorithm_a_fragments()
        assert fragments.completion.single_actor() == handle.readers[0]
        assert fragments.completion.actions[-1].kind == ActionKind.RESPOND

    def test_non_blocking_fragments_carry_the_returned_values(self):
        handle, r, fragments = algorithm_a_fragments()
        values = {server: returned_value(fragment) for server, fragment in fragments.non_blocking}
        assert values["sx"] == "x1"
        assert values["sy"] == "y1"

    def test_describe_mentions_anatomy(self):
        _, r, fragments = algorithm_a_fragments()
        text = fragments.describe()
        assert "I(" in text and "E(" in text and "F_sx" in text

    def test_extraction_fails_for_incomplete_transaction(self):
        handle = build_system("algorithm-a", num_writers=1)
        r = handle.submit_read()
        handle.simulation.run(max_new_steps=2)
        with pytest.raises(TraceError):
            extract_read_fragments(handle.trace(), r, handle.readers[0], handle.servers)

    def test_extraction_fails_for_unknown_transaction(self):
        handle, _, _ = algorithm_a_fragments()
        with pytest.raises(TraceError):
            extract_read_fragments(handle.trace(), "nope", handle.readers[0], handle.servers)

    def test_fragment_for_server_lookup(self):
        _, _, fragments = algorithm_a_fragments()
        assert fragments.fragment_for_server("sx").single_actor() == "sx"
        with pytest.raises(KeyError):
            fragments.fragment_for_server("sz")


class TestCommuting:
    def test_the_independence_rule_checks_the_automaton_before_the_messages(self):
        assert dependency("sx", "sy", {1, 2}, {3}) is None
        assert dependency("sx", "sy", {"m1", "m2"}, {"m2"}) == Dependency(False, frozenset({"m2"}))
        assert dependency("sx", "sx", {1}, {1}) == Dependency(True, frozenset())

    def test_fragments_at_distinct_servers_commute(self):
        _, _, fragments = algorithm_a_fragments()
        fx = fragments.fragment_for_server("sx")
        fy = fragments.fragment_for_server("sy")
        check = can_commute(fx, fy)
        assert check.allowed

    def test_fragments_at_same_automaton_do_not_commute(self):
        _, _, fragments = algorithm_a_fragments()
        check = can_commute(fragments.invocation, fragments.completion)
        assert not check.allowed
        assert "distinct automata" in check.reason or "both fragments occur" in check.reason

    def test_commute_adjacent_swaps_and_preserves_channels(self):
        handle, r, fragments = algorithm_a_fragments()
        fx = fragments.fragment_for_server("sx")
        fy = fragments.fragment_for_server("sy")
        actions = list(handle.trace().actions)
        # Only attempt when they are adjacent in the trace (true under FIFO for
        # this sequential workload); otherwise build an adjacent sub-sequence.
        start = min(fx.start_index, fy.start_index)
        end = max(fx.end_index, fy.end_index)
        window = [a for a in actions if a.index < start or a.index > end]
        ordered = (
            [a for a in actions if a.index < start]
            + list(fx.actions)
            + list(fy.actions)
            + [a for a in actions if a.index > end]
        )
        swapped = commute_adjacent(ordered, fx, fy, validate=True)
        # After the swap, sy's fragment comes first.
        positions = [a.actor for a in swapped if a.kind == ActionKind.RECV and a.message is not None and a.message.get("txn") == r and a.actor in handle.servers]
        assert positions[0] == "sy"

    def test_commute_adjacent_rejects_non_adjacent_fragments(self):
        handle, _, fragments = algorithm_a_fragments()
        fx = fragments.fragment_for_server("sx")
        fy = fragments.fragment_for_server("sy")
        # Insert an unrelated action between them so the block is not contiguous.
        actions = list(fx.actions) + [fragments.completion.actions[0]] + list(fy.actions)
        with pytest.raises(TraceError):
            commute_adjacent(actions, fx, fy)

    def test_commute_adjacent_rejects_same_actor(self):
        _, _, fragments = algorithm_a_fragments()
        with pytest.raises(TraceError):
            commute_adjacent(
                list(fragments.invocation.actions) + list(fragments.completion.actions),
                fragments.invocation,
                fragments.completion,
            )


class TestIndistinguishability:
    def test_same_fragment_is_indistinguishable_from_itself(self):
        _, _, fragments = algorithm_a_fragments()
        fx = fragments.fragment_for_server("sx")
        assert indistinguishable_fragments(fx, fx)

    def test_fragments_from_identical_runs_are_indistinguishable(self):
        _, _, first = algorithm_a_fragments()
        _, _, second = algorithm_a_fragments()
        fx_first = first.fragment_for_server("sx")
        fx_second = second.fragment_for_server("sx")
        # Message ids differ across runs, so strict step equality does not hold,
        # but the returned value (Lemma 3's conclusion) is the same.
        assert returned_value(fx_first) == returned_value(fx_second) == "x1"

    def test_different_values_are_distinguishable(self):
        handle = build_system("algorithm-a", num_writers=1)
        w1 = handle.submit_write({"ox": "x1", "oy": "y1"})
        r1 = handle.submit_read(after=[w1])
        w2 = handle.submit_write({"ox": "x2", "oy": "y2"}, after=[r1])
        r2 = handle.submit_read(after=[w2])
        handle.run_to_completion()
        first = extract_read_fragments(handle.trace(), r1, handle.readers[0], handle.servers)
        second = extract_read_fragments(handle.trace(), r2, handle.readers[0], handle.servers)
        assert not indistinguishable_fragments(
            first.fragment_for_server("sx"), second.fragment_for_server("sx")
        )
        assert returned_value(second.fragment_for_server("sx")) == "x2"
