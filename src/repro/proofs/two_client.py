"""Mechanical replay of Theorem 2: no SNOW with two clients and no C2C.

Section 5.1 closes the two-client open question: with a single reader, a
single writer and two servers, SNOW is impossible *unless* the clients may
message each other.  The proof again assumes an algorithm with all SNOW
properties and constructs, through the executions ``α, β, γ, η, δ^{(ℓ)} …``
of Figure 4, an execution in which the READ transaction returns the written
values ``(x₁, y₁)`` although it completes before the WRITE transaction is
even invoked — contradicting strict serializability.

The replay mirrors the proof's structure over symbolic fragments:

* ``β`` (Lemmas 15-16): after ``W`` completes, the reader's two request
  ``send`` actions happen back-to-back and both servers serve them in
  non-blocking fragments ``F₁ₓ ∘ F₁ᵧ``; by S the READ returns ``(x₁, y₁)``.
* ``γ/η`` (Lemmas 17-19): the two request sends commute to *before*
  ``INV(W)`` — they are output actions of the reader with no dependency on
  the WRITE — mechanically checked swaps.
* the induction of Theorem 2 peels the WRITE's actions past the read's
  non-blocking fragments one automaton at a time:

  - actions at the **writer** (``INV(W)``, ``RESP(W)``) commute past the
    read fragments (checked swaps — the paper's cases (i)/(ii));
  - the WRITE's **install at a server** shares that server with the read's
    fragment there, so it cannot simply commute (the replay asserts this);
    the paper's cases (iii)/(iv) instead *reconstruct* the read fragment
    earlier — the server must still answer (N), with one version (O), and by
    indistinguishability of the other server's fragment plus S the READ still
    returns ``(x₁, y₁)``.  These are recorded as justified steps.

* finally the induced transaction-level history (READ completes before
  ``INV(W)`` yet returns the written values) is rejected by the semantic
  strict-serializability checker, re-computing the contradiction.

The same replay run with client-to-client communication *enabled* would not
go through: algorithm A's writer messages the reader directly, so the
reader-side fragments carry a dependency on the WRITE and the very first
commuting step (Lemma 17) is refused.  :func:`c2c_breaks_the_chain`
demonstrates exactly that, which is the mechanised version of "why the proof
needs the no-C2C assumption".
"""

from __future__ import annotations

from typing import Tuple

from ..core.serializability import check_strict_serializability
from ..txn.history import History, HistoryEntry
from ..txn.transactions import ReadResult, read, write, WRITE_OK
from ..ioa.errors import TraceError
from .symbolic import ProofReplay, SymbolicExecution, fragment


def build_beta(c2c_info_message: bool = False) -> SymbolicExecution:
    """The execution β of Lemma 16 (reader starts after the WRITE completes).

    When ``c2c_info_message`` is set, the writer additionally sends an
    ``info`` message to the reader before responding (exactly what algorithm
    A does); the reader's request sends then *receive* that message first,
    which is what blocks the impossibility chain in the C2C setting.
    """
    reader_receives = {"info"} if c2c_info_message else set()
    writer_sends = {"w_x", "w_y"} | ({"info"} if c2c_info_message else set())
    return SymbolicExecution(
        [
            fragment("P0", "*", movable=False, note="initial prefix (objects hold x0, y0)"),
            fragment("INV_W", "w", sends=writer_sends, txn="W", note="WRITE invoked; installs sent"),
            fragment("Wx", "sx", receives={"w_x"}, sends={"ack_x"}, txn="W", note="x1 installed at sx"),
            fragment("Wy", "sy", receives={"w_y"}, sends={"ack_y"}, txn="W", note="y1 installed at sy"),
            fragment("RESP_W", "w", receives={"ack_x", "ack_y"}, txn="W", note="WRITE responds ok"),
            fragment(
                "send_reqs",
                "r1",
                receives=frozenset(reader_receives),
                sends={"m_x", "m_y"},
                txn="R1",
                note="INV(R1); both request sends back-to-back (Lemma 15/16)",
            ),
            fragment("F1x", "sx", receives={"m_x"}, sends={"v_x"}, txn="R1", note="returns x1"),
            fragment("F1y", "sy", receives={"m_y"}, sends={"v_y"}, txn="R1", note="returns y1"),
            fragment("E1", "r1", receives={"v_x", "v_y"}, txn="R1", note="R1 responds (x1,y1)"),
            fragment("S", "*", movable=False, note="suffix"),
        ],
        name="beta",
    )


def _induced_history() -> History:
    """READ completes before the WRITE is invoked, yet returns the written values."""
    r1 = read("ox", "oy", txn_id="R1")
    w = write(ox=1, oy=1, txn_id="W")
    entries = [
        HistoryEntry(
            txn=r1,
            client="r1",
            invoke_index=0,
            respond_index=1,
            result=ReadResult.from_mapping({"ox": 1, "oy": 1}),
        ),
        HistoryEntry(txn=w, client="w", invoke_index=2, respond_index=3, result=WRITE_OK),
    ]
    return History(entries, objects=("ox", "oy"), initial_value=0)


def replay_theorem2() -> ProofReplay:
    """Replay the Figure 4 chain and recompute the final contradiction."""
    replay = ProofReplay(
        theorem="Theorem 2: SNOW is impossible with two clients and two servers without C2C communication"
    )

    execution = build_beta(c2c_info_message=False)
    replay.record(
        "Lemmas 15-16 (α, β)",
        "Assume an algorithm A with all SNOW properties and no client-to-client channel.  After W completes, "
        "the reader's two request sends occur consecutively (O), and each server serves its request in a "
        "non-blocking fragment (N, O).  By S the READ returns (x1, y1).",
        execution,
        mechanically_checked=False,
    )

    # ------------------------------------------------------------------
    # Lemma 17/19 (γ, η): the request sends move before INV(W).
    # ------------------------------------------------------------------
    reasons = execution.move_before("send_reqs", "INV_W")
    execution.name = "gamma"
    replay.record(
        "Lemmas 17-19 (γ, η)",
        f"The reader's request sends commute to before INV(W) ({len(reasons)} checked swaps): without C2C the "
        "reader fragment neither receives anything from the WRITE nor shares an automaton with it.  The servers' "
        "fragments are untouched, so by Lemma 18 the READ still returns (x1, y1).",
        execution,
    )

    # ------------------------------------------------------------------
    # Induction, case (i): actions at the writer commute past the read fragments.
    # ------------------------------------------------------------------
    reasons = execution.move_after("RESP_W", "E1")
    execution.name = "delta-resp-w"
    replay.record(
        "Theorem 2, case (i) — prefix action at w",
        f"RESP(W) commutes past F1x, F1y and E1 ({len(reasons)} checked swaps): it occurs at the writer and the "
        "read fragments neither occur at w nor receive the write acks.  F1x and F1y are unchanged, so the READ "
        "still returns (x1, y1).",
        execution,
    )

    # ------------------------------------------------------------------
    # Case (iv): the install at sy conflicts with F1y — reconstructed, not commuted.
    # ------------------------------------------------------------------
    allowed, reason = execution.can_swap(execution.get("Wy"), execution.get("F1y"))
    if allowed:  # pragma: no cover - would indicate the model lost the conflict
        raise TraceError("the install at sy must conflict with F1y; the model is wrong")
    reasons = execution.move_before("F1x", "Wy")
    wy_index = execution.index_of("Wy")
    f1y_index = execution.index_of("F1y")
    execution._fragments[wy_index], execution._fragments[f1y_index] = (
        execution._fragments[f1y_index],
        execution._fragments[wy_index],
    )
    reasons_after = execution.move_after("Wy", "E1")
    execution.name = "delta-wy"
    replay.record(
        "Theorem 2, case (iv) — prefix action at sy",
        "The WRITE's install at sy cannot be commuted past F1y (" + reason + ").  Following the paper, F1x first "
        f"commutes before the install ({len(reasons)} checked swaps); the network then delivers the read request "
        "at sy immediately, and by N and O the server must answer with one value; F1x is unchanged, so by "
        "Lemma 3 and S the READ still returns (x1, y1), i.e. the reconstructed F1y returns y1.  The install then "
        f"commutes after the read ({len(reasons_after)} checked swaps).",
        execution,
        mechanically_checked=False,
    )

    # ------------------------------------------------------------------
    # Case (iii): the install at sx conflicts with F1x — reconstructed, not commuted.
    # ------------------------------------------------------------------
    allowed, reason = execution.can_swap(execution.get("Wx"), execution.get("F1x"))
    if allowed:  # pragma: no cover
        raise TraceError("the install at sx must conflict with F1x; the model is wrong")
    wx_index = execution.index_of("Wx")
    f1x_index = execution.index_of("F1x")
    execution._fragments[wx_index], execution._fragments[f1x_index] = (
        execution._fragments[f1x_index],
        execution._fragments[wx_index],
    )
    reasons_after = execution.move_after("Wx", "E1")
    execution.name = "delta-wx"
    replay.record(
        "Theorem 2, case (iii) — prefix action at sx",
        "Symmetrically, the install at sx cannot be commuted past F1x (" + reason + "); the read request is "
        "delivered at sx first, N and O force an immediate one-version answer, and by Lemma 3 applied to the "
        "unchanged F1y plus the S property the READ still returns (x1, y1).  The install then commutes after "
        f"the read ({len(reasons_after)} checked swaps).",
        execution,
        mechanically_checked=False,
    )

    # ------------------------------------------------------------------
    # Case (i) again: INV(W) commutes past the read fragments (stays before its installs).
    # ------------------------------------------------------------------
    reasons = execution.move_before("INV_W", "Wx")
    execution.name = "delta-final"
    replay.record(
        "Theorem 2, case (i) — INV(W)",
        f"INV(W) commutes past the read fragments ({len(reasons)} checked swaps) but must stay before its own "
        "install messages (the dependency check would refuse anything else).  The READ now completes before "
        "the WRITE is invoked.",
        execution,
    )

    # ------------------------------------------------------------------
    # The contradiction, recomputed semantically.
    # ------------------------------------------------------------------
    order = execution.transaction_order(("R1", "W"))
    replay.final_execution = execution
    if order != ("R1", "W"):
        replay.contradiction_found = False
        replay.contradiction_note = f"unexpected transaction order {order}"
        return replay
    verdict = check_strict_serializability(_induced_history())
    if not verdict.ok:
        replay.contradiction_found = True
        replay.contradiction_note = (
            "the READ completes before INV(W) yet returns (x1, y1); the semantic checker confirms no strict "
            "serialization exists: " + "; ".join(verdict.violations)
        )
    else:  # pragma: no cover
        replay.contradiction_found = False
        replay.contradiction_note = "semantic checker unexpectedly accepted the final history"
    return replay


def c2c_breaks_the_chain() -> Tuple[bool, str]:
    """Show that with client-to-client communication the chain's first step fails.

    With algorithm A's ``info-reader`` message in place, the reader's request
    fragment *receives* a message sent by the WRITE, so moving the request
    sends before ``INV(W)`` is not a legal reordering — exactly the reason
    SNOW becomes possible in the MWSR + C2C setting (Theorem 3).

    Returns ``(blocked, reason)``.
    """
    execution = build_beta(c2c_info_message=True)
    try:
        execution.move_before("send_reqs", "INV_W")
    except TraceError as exc:
        return True, str(exc)
    return False, "the commuting chain unexpectedly went through despite the C2C dependency"
