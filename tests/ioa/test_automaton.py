"""Unit tests for automaton base classes, effects and matchers."""

from __future__ import annotations

import pytest

from repro.ioa.actions import Message
from repro.ioa.automaton import (
    Automaton,
    Await,
    ClientAutomaton,
    ReaderAutomaton,
    Send,
    ServerAutomaton,
    SessionState,
    WriterAutomaton,
    expect_type,
    expect_types,
)
from repro.ioa.errors import SessionError


class TestKinds:
    def test_server_kind(self):
        server = ServerAutomaton("sx")
        assert server.is_server()
        assert not server.is_client()
        assert server.kind == "server"

    def test_reader_and_writer_kinds(self):
        assert ReaderAutomaton("r1").kind == "reader"
        assert WriterAutomaton("w1").kind == "writer"
        assert ReaderAutomaton("r1").is_client()
        assert WriterAutomaton("w1").is_client()

    def test_generic_process_is_neither(self):
        process = Automaton("p")
        assert not process.is_server()
        assert not process.is_client()

    def test_client_automaton_requires_run_transaction(self):
        client = ClientAutomaton("c")
        with pytest.raises(NotImplementedError):
            client.run_transaction("T", None)

    def test_unmatched_goes_to_handler_default(self):
        assert ClientAutomaton("c").unmatched_goes_to_handler() is True


class TestEffects:
    def test_send_defaults(self):
        effect = Send(dst="sx", msg_type="ping")
        assert effect.payload == {}
        assert effect.phase == ""

    def test_await_requires_positive_count(self):
        with pytest.raises(SessionError):
            Await(matcher=lambda m: True, count=0)

    def test_await_defaults(self):
        effect = Await(matcher=lambda m: True)
        assert effect.count == 1
        assert effect.counts_as_round is True


class TestMatchers:
    def test_expect_type_matches_type(self):
        matcher = expect_type("pong")
        assert matcher(Message.make("pong", "sx", "c", {}))
        assert not matcher(Message.make("ping", "sx", "c", {}))

    def test_expect_type_with_sender(self):
        matcher = expect_type("pong", frm="sx")
        assert matcher(Message.make("pong", "sx", "c", {}))
        assert not matcher(Message.make("pong", "sy", "c", {}))

    def test_expect_types(self):
        matcher = expect_types("a", "b")
        assert matcher(Message.make("a", "x", "y", {}))
        assert matcher(Message.make("b", "x", "y", {}))
        assert not matcher(Message.make("c", "x", "y", {}))


class TestSessionState:
    def test_matches_requires_pending_await(self):
        session = SessionState(txn="T", txn_id="T", client="c", generator=iter(()))
        assert not session.matches(Message.make("pong", "s", "c", {}))

    def test_ready_when_enough_collected(self):
        session = SessionState(txn="T", txn_id="T", client="c", generator=iter(()))
        session.pending_await = Await(matcher=expect_type("pong"), count=2)
        assert not session.ready()
        session.collected.append(Message.make("pong", "s", "c", {}))
        assert not session.ready()
        session.collected.append(Message.make("pong", "s", "c", {}))
        assert session.ready()

    def test_matches_uses_matcher(self):
        session = SessionState(txn="T", txn_id="T", client="c", generator=iter(()))
        session.pending_await = Await(matcher=expect_type("pong"), count=1)
        assert session.matches(Message.make("pong", "s", "c", {}))
        assert not session.matches(Message.make("ping", "s", "c", {}))
