"""Execution fragments and the commuting / indistinguishability lemmas.

Section 3 of the paper introduces the vocabulary its impossibility proofs are
written in:

* the **invocation fragment** ``I_i`` of READ transaction ``R_i`` — every
  action from ``INV(R_i)`` up to the later of the two read-request ``send``
  actions, all occurring at the reader;
* the **non-blocking fragments** ``F_{i,x}`` / ``F_{i,y}`` — at a server,
  from the receipt of the read request to the sending of the value, with no
  other input action in between (this is what N + O guarantee exists);
* the **completion fragment** ``E_i`` — at the reader, from the later of the
  two value receipts to ``RESP(R_i)``;
* **Lemma 2 (commuting fragments)** — two adjacent fragments at distinct
  automata can be swapped when either neither contains an input action or one
  of them has no external action, producing another valid execution;
* **Lemma 3 (indistinguishability)** — if a READ's non-blocking fragment at a
  server is identical in two executions, the READ returns the same value for
  that server's object in both.

This module makes those notions executable over concrete traces: fragments
are extracted from real executions (used by the Figure 2 benchmark and by
tests of algorithm A), the commuting transformation is implemented together
with its precondition checks, and the transformed action sequences are
re-validated against the channel semantics so that "is still an execution"
is checked rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from ..ioa.actions import Action, ActionKind
from ..ioa.errors import TraceError
from ..ioa.trace import Fragment, Trace, reindex


# ----------------------------------------------------------------------
# Fragment extraction from concrete traces
# ----------------------------------------------------------------------
@dataclass
class ReadFragments:
    """The ``I``, ``F`` (per server) and ``E`` fragments of one READ transaction."""

    txn_id: str
    reader: str
    invocation: Fragment
    non_blocking: Tuple[Tuple[str, Fragment], ...]  # (server, fragment)
    completion: Fragment

    def fragment_for_server(self, server: str) -> Fragment:
        for name, fragment in self.non_blocking:
            if name == server:
                return fragment
        raise KeyError(server)

    def servers(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.non_blocking)

    def describe(self) -> str:
        parts = [f"I({len(self.invocation)})"]
        for server, fragment in self.non_blocking:
            parts.append(f"F_{server}({len(fragment)})")
        parts.append(f"E({len(self.completion)})")
        return f"{self.txn_id}: " + " ∘ ".join(parts)


def _is_read_request(action: Action, txn_id: str, reader: str, server: str) -> bool:
    return (
        action.kind == ActionKind.SEND
        and action.actor == reader
        and action.message is not None
        and action.message.dst == server
        and action.message.get("txn") == txn_id
    )


def _is_read_reply(action: Action, txn_id: str, reader: str, server: str) -> bool:
    return (
        action.kind == ActionKind.SEND
        and action.actor == server
        and action.message is not None
        and action.message.dst == reader
        and action.message.get("txn") == txn_id
    )


def extract_read_fragments(
    trace: Trace,
    txn_id: str,
    reader: str,
    servers: Sequence[str],
) -> ReadFragments:
    """Extract ``I``, ``F_{·}`` and ``E`` for a completed one-round READ.

    Raises :class:`TraceError` if the transaction's shape does not match the
    paper's anatomy (e.g. the protocol used more than one round, or a server
    blocked) — which is itself useful: algorithm A executions always succeed,
    baseline executions may not.
    """
    invoke = trace.find(
        lambda a: a.kind == ActionKind.INVOKE and a.actor == reader and a.get("txn") == txn_id
    )
    respond = trace.find(
        lambda a: a.kind == ActionKind.RESPOND and a.actor == reader and a.get("txn") == txn_id
    )
    if invoke is None or respond is None:
        raise TraceError(f"transaction {txn_id} is not complete in this trace")

    # Request sends at the reader, one per server.
    request_sends = {}
    for server in servers:
        send = trace.find(lambda a, s=server: _is_read_request(a, txn_id, reader, s), start=invoke.index)
        if send is None:
            raise TraceError(f"no read request from {reader} to {server} for {txn_id}")
        request_sends[server] = send
    last_request = max(request_sends.values(), key=lambda a: a.index)

    invocation_actions = [invoke] + [
        a for a in trace.between(invoke.index, last_request.index) if a.actor == reader
    ] + [last_request]
    invocation = Fragment(actions=tuple(invocation_actions), label=f"I({txn_id})")

    # Non-blocking fragments at each server.
    non_blocking: List[Tuple[str, Fragment]] = []
    for server in servers:
        request_recv = trace.find(
            lambda a, s=server: a.kind == ActionKind.RECV
            and a.actor == s
            and a.message is not None
            and a.message.src == reader
            and a.message.get("txn") == txn_id,
            start=request_sends[server].index,
        )
        if request_recv is None:
            raise TraceError(f"read request for {txn_id} never delivered at {server}")
        reply_send = trace.find(
            lambda a, s=server: _is_read_reply(a, txn_id, reader, s), start=request_recv.index
        )
        if reply_send is None:
            raise TraceError(f"server {server} never replied to {txn_id}")
        inner = [a for a in trace.between(request_recv.index, reply_send.index) if a.actor == server]
        foreign_inputs = [
            a
            for a in trace.between(request_recv.index, reply_send.index)
            if a.actor == server and a.is_input()
        ]
        if foreign_inputs:
            raise TraceError(
                f"server {server} received other input while serving {txn_id}: not a non-blocking fragment"
            )
        fragment = Fragment(
            actions=tuple([request_recv] + inner + [reply_send]), label=f"F({txn_id},{server})"
        )
        non_blocking.append((server, fragment))

    # Completion fragment at the reader.
    reply_recvs = []
    for server in servers:
        recv = trace.find(
            lambda a, s=server: a.kind == ActionKind.RECV
            and a.actor == reader
            and a.message is not None
            and a.message.src == s
            and a.message.get("txn") == txn_id,
        )
        if recv is None:
            raise TraceError(f"reply from {server} for {txn_id} never delivered at {reader}")
        reply_recvs.append(recv)
    last_reply = max(reply_recvs, key=lambda a: a.index)
    completion_actions = [last_reply] + [
        a for a in trace.between(last_reply.index, respond.index) if a.actor == reader
    ] + [respond]
    completion = Fragment(actions=tuple(completion_actions), label=f"E({txn_id})")

    return ReadFragments(
        txn_id=txn_id,
        reader=reader,
        invocation=invocation,
        non_blocking=tuple(non_blocking),
        completion=completion,
    )


# ----------------------------------------------------------------------
# Lemma 2: commuting fragments
# ----------------------------------------------------------------------
@dataclass
class CommuteCheck:
    """Why two fragments may (or may not) be commuted."""

    allowed: bool
    reason: str


class Dependency(NamedTuple):
    """Why the second of two adjacent fragments cannot move before the first."""

    #: both fragments occur at one automaton
    same_automaton: bool
    #: the messages the first fragment sends and the second receives
    carried: FrozenSet


def dependency(
    first_actor: str,
    second_actor: str,
    sent_by_first: AbstractSet,
    received_by_second: AbstractSet,
) -> Optional[Dependency]:
    """The independence rule for two adjacent single-automaton fragments.

    They are independent — ``second ∘ first`` is an execution whenever
    ``first ∘ second`` is — when they occur at distinct automata and the
    second receives no message the first sent (the dependency-preserving
    reordering of Appendix B).  Returns ``None`` then, else what breaks the
    rule; messages may be named by any hashable (ids, symbolic names).
    """
    if first_actor == second_actor:
        return Dependency(True, frozenset())
    carried = sent_by_first & received_by_second
    if carried:
        return Dependency(False, frozenset(carried))
    return None


def can_commute(first: Fragment, second: Fragment) -> CommuteCheck:
    """Check whether two adjacent fragments may be commuted.

    Conditions: each fragment's actions occur at a single automaton and the
    two automata are distinct, plus any one of:

    * (a) neither fragment contains an input action, or
    * (b) at least one of them contains no external action

    (the two cases of Lemma 2), or

    * (c) no message sent inside ``first`` is received inside ``second``

    — the dependency-preserving reordering of the Claim in Appendix B, which
    is what the paper actually leans on when it commutes two non-blocking
    fragments that each begin with a message receipt (e.g. ``F_{2,x}`` and
    ``F_{2,y}`` in Lemma 8).  Distinct automata and (c) together are
    :func:`dependency`.
    """
    first_actor = first.single_actor()
    second_actor = second.single_actor()
    if first_actor is None or second_actor is None:
        return CommuteCheck(False, "each fragment must occur at a single automaton")
    depends = dependency(
        first_actor,
        second_actor,
        {a.message.msg_id for a in first.actions if a.kind == ActionKind.SEND and a.message is not None},
        {a.message.msg_id for a in second.actions if a.kind == ActionKind.RECV and a.message is not None},
    )
    if depends is not None and depends.same_automaton:
        return CommuteCheck(False, f"both fragments occur at {first_actor}; commuting needs distinct automata")
    no_inputs = not first.has_input_actions() and not second.has_input_actions()
    one_silent = not first.has_external_actions() or not second.has_external_actions()
    if no_inputs or one_silent:
        justification = "no input actions in either fragment" if no_inputs else "one fragment has no external actions"
        return CommuteCheck(True, justification)
    if depends is None:
        return CommuteCheck(True, "no message sent in the first fragment is received in the second (Appendix B)")
    return CommuteCheck(False, "the second fragment receives a message sent by the first")


def commute_adjacent(
    actions: Sequence[Action],
    first: Fragment,
    second: Fragment,
    validate: bool = True,
) -> Tuple[Action, ...]:
    """Produce the action sequence with ``first ∘ second`` replaced by ``second ∘ first``.

    ``first`` and ``second`` must appear consecutively (as action subsequences)
    in ``actions``.  The Lemma 2 preconditions are checked; when ``validate``
    is set, the resulting sequence is additionally checked against the channel
    semantics (no receive before its send), so the caller gets an *execution*,
    not just a permutation.
    """
    check = can_commute(first, second)
    if not check.allowed:
        raise TraceError(f"cannot commute {first.label!r} and {second.label!r}: {check.reason}")

    combined = list(first.actions) + list(second.actions)
    sequence = list(actions)
    # Locate the contiguous occurrence of the combined block.
    block_len = len(combined)
    start = None
    for index in range(len(sequence) - block_len + 1):
        window = sequence[index : index + block_len]
        if all(w.same_step(c) for w, c in zip(window, combined)):
            start = index
            break
    if start is None:
        raise TraceError(
            f"fragments {first.label!r} and {second.label!r} are not adjacent in the given action sequence"
        )
    swapped = list(second.actions) + list(first.actions)
    new_sequence = sequence[:start] + swapped + sequence[start + block_len :]
    result = reindex(new_sequence)
    if validate:
        Trace(result).validate_channels()
    return result


# ----------------------------------------------------------------------
# Lemma 3: indistinguishability
# ----------------------------------------------------------------------
def indistinguishable_fragments(a: Fragment, b: Fragment) -> bool:
    """Whether two fragments are the same automaton-local computation.

    This is the hypothesis of Lemma 3: identical non-blocking fragments at a
    server imply the READ returns the same value for that server's object.
    """
    return a.same_steps(b)


def returned_value(fragment: Fragment) -> Optional[object]:
    """The value a non-blocking fragment sends back to the reader (if any)."""
    for action in reversed(fragment.actions):
        if action.kind == ActionKind.SEND and action.message is not None:
            value = action.message.get("value")
            if value is not None:
                return value
    return None
