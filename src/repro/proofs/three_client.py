"""Mechanical replay of Theorem 1: no SNOW with three clients, even with C2C.

Section 4 of the paper proves the (strengthened) SNOW theorem: with two
readers, one writer and two servers, no algorithm can satisfy all four SNOW
properties, *even if* clients may message each other.  The proof assumes such
an algorithm exists and constructs, through the chain of executions
``α₀ … α₁₀`` of Figure 3 (Lemmas 5-14), an execution in which READ
transaction ``R₂`` finishes before ``R₁`` starts yet ``R₂`` returns the new
values ``(x₁, y₁)`` while ``R₁`` returns the old values ``(x₀, y₀)`` —
contradicting strict serializability.

This module replays that chain over :class:`~repro.proofs.symbolic`
executions.  Each lemma becomes a scripted step:

* the steps that are pure **commuting** arguments (Lemmas 7, 8, 11, 12, 14)
  are executed as checked adjacent swaps — the dependency rule of
  Appendix B / Lemma 2 is verified for every swap, so an illegal reordering
  would make the replay fail loudly;
* the steps that rest on **indistinguishability** (Lemma 5's minimal-``k``
  construction and Lemmas 9, 10, 13, which rebuild a fragment at the same
  server) are recorded as *justified* steps carrying the paper's argument,
  and the invariants they claim (which transaction returns which values)
  are tracked explicitly;
* the final contradiction is not asserted but **recomputed**: the
  transaction-level history induced by ``α₁₀`` is handed to the semantic
  strict-serializability checker, which rejects it.
"""

from __future__ import annotations

from typing import Tuple

from ..core.serializability import check_strict_serializability
from ..txn.history import History, HistoryEntry
from ..txn.transactions import ReadResult, read, write, WRITE_OK
from .symbolic import ProofReplay, SymbolicExecution, fragment


OLD = ("x0", "y0")
NEW = ("x1", "y1")


def build_alpha2() -> SymbolicExecution:
    """The execution α₂ of Lemma 6.

    ``P_k`` is the (pinned) prefix of Lemma 5, ``a_{k+1}`` the single extra
    action — shown by Lemma 5(iii) to occur at reader ``r1`` — after which
    ``R₁`` returns the new values; ``R₁`` and ``R₂`` then run back to back
    (each in the canonical ``I ∘ F_x ∘ F_y ∘ E`` shape guaranteed by
    Lemma 4), and by strict serializability both return ``(x₁, y₁)``.
    """
    return SymbolicExecution(
        [
            fragment("P_k", "*", movable=False, note="prefix of Lemma 5 (contains W)"),
            fragment("a_k+1", "r1", note="critical action at r1 (Lemma 5 iii)"),
            fragment("I1", "r1", sends={"m1x", "m1y"}, txn="R1", note="INV(R1) and request sends"),
            fragment("F1x", "sx", receives={"m1x"}, sends={"v1x"}, txn="R1", note="returns x1"),
            fragment("F1y", "sy", receives={"m1y"}, sends={"v1y"}, txn="R1", note="returns y1"),
            fragment("E1", "r1", receives={"v1x", "v1y"}, txn="R1", note="R1 responds (x1,y1)"),
            fragment("I2", "r2", sends={"m2x", "m2y"}, txn="R2", note="INV(R2) and request sends"),
            fragment("F2x", "sx", receives={"m2x"}, sends={"v2x"}, txn="R2", note="returns x1"),
            fragment("F2y", "sy", receives={"m2y"}, sends={"v2y"}, txn="R2", note="returns y1"),
            fragment("E2", "r2", receives={"v2x", "v2y"}, txn="R2", note="R2 responds (x1,y1)"),
            fragment("S", "*", movable=False, note="suffix"),
        ],
        name="alpha2",
    )


def _induced_history(r1_values: Tuple[str, str], r2_values: Tuple[str, str]) -> History:
    """The transaction-level history induced by α₁₀.

    The WRITE completes inside the prefix; ``R₂`` then completes strictly
    before ``R₁`` is invoked (that is what α₁₀ looks like), with the recorded
    return values.
    """
    # Version 0 is the initial value, version 1 is what W writes; the symbolic
    # value labels ("x0", "x1", ...) map onto 0 and 1 per object.
    def version_of(label: str) -> int:
        return 1 if label.endswith("1") else 0

    w = write(ox=1, oy=1, txn_id="W")
    r2 = read("ox", "oy", txn_id="R2")
    r1 = read("ox", "oy", txn_id="R1")
    entries = [
        HistoryEntry(txn=w, client="w", invoke_index=0, respond_index=1, result=WRITE_OK),
        HistoryEntry(
            txn=r2,
            client="r2",
            invoke_index=2,
            respond_index=3,
            result=ReadResult.from_mapping({"ox": version_of(r2_values[0]), "oy": version_of(r2_values[1])}),
        ),
        HistoryEntry(
            txn=r1,
            client="r1",
            invoke_index=4,
            respond_index=5,
            result=ReadResult.from_mapping({"ox": version_of(r1_values[0]), "oy": version_of(r1_values[1])}),
        ),
    ]
    return History(entries, objects=("ox", "oy"), initial_value=0)


def replay_theorem1() -> ProofReplay:
    """Replay the α₀ … α₁₀ chain and recompute the final contradiction."""
    replay = ProofReplay(theorem="Theorem 1: SNOW is impossible with two readers and one writer (even with C2C)")

    execution = build_alpha2()
    replay.record(
        "Lemmas 4-6 (α₀, α₁, α₂)",
        "Assume an algorithm A with all SNOW properties.  Lemma 5 yields a minimal prefix P_k and a "
        "critical action a_{k+1} at r1 separating executions where R1 returns (x0,y0) from ones where it "
        "returns (x1,y1); Lemma 4 shapes R1 as I∘F_x∘F_y∘E; Lemma 6 appends R2, which by S returns (x1,y1).",
        execution,
        mechanically_checked=False,
    )

    # ------------------------------------------------------------------
    # Lemma 7 (α₃): I2 moves before a_{k+1}.
    # ------------------------------------------------------------------
    reasons = execution.move_before("I2", "a_k+1")
    execution.name = "alpha3"
    replay.record(
        "Lemma 7 (α₃)",
        f"I2 commutes leftwards past E1, F1y, F1x, I1 and a_k+1 ({len(reasons)} checked swaps): "
        "all of R1's fragments and the critical action occur at automata other than r2.",
        execution,
    )

    # ------------------------------------------------------------------
    # Lemma 8 (α₄): F2y moves before E1 (after swapping F2x and F2y).
    # ------------------------------------------------------------------
    reasons = execution.move_before("F2y", "F2x")
    reasons += execution.move_before("F2y", "E1")
    execution.name = "alpha4"
    replay.record(
        "Lemma 8 (α₄)",
        f"F2y commutes past F2x and E1 ({len(reasons)} checked swaps): the fragments occur at sy, sx and r1 "
        "respectively and exchange no messages.",
        execution,
    )

    # ------------------------------------------------------------------
    # Lemma 9 (α₅): F2y moves before F1y — same server, so this is a
    # construction (prefix extension) rather than a commute.
    # ------------------------------------------------------------------
    allowed, reason = execution.can_swap(execution.get("F1y"), execution.get("F2y"))
    assert not allowed, "F1y/F2y share server sy; the proof must not treat this as a plain commute"
    index_f1y = execution.index_of("F1y")
    index_f2y = execution.index_of("F2y")
    execution._fragments[index_f1y], execution._fragments[index_f2y] = (
        execution._fragments[index_f2y],
        execution._fragments[index_f1y],
    )
    execution.name = "alpha5"
    replay.record(
        "Lemma 9 (α₅)",
        "F2y is re-constructed to occur before F1y at server sy (the adversary delivers m2y first).  This is "
        f"not a commute ({reason}); the paper extends the prefix ending at F1x and re-derives the values: "
        "F1x is unchanged so by Lemma 3 and S, R1 still returns (x1,y1); F2x is unchanged so R2 still returns (x1,y1).",
        execution,
        mechanically_checked=False,
    )

    # ------------------------------------------------------------------
    # Lemma 10 (α₆): drop a_{k+1}; R1's values flip to (x0,y0).
    # ------------------------------------------------------------------
    index = execution.index_of("a_k+1")
    del execution._fragments[index]
    execution.annotate("F1x", "returns x0")
    execution.annotate("F1y", "returns y0")
    execution.annotate("E1", "R1 responds (x0,y0)")
    execution.name = "alpha6"
    replay.record(
        "Lemma 10 (α₆)",
        "R1 is re-invoked immediately after I2 (without the critical action a_{k+1}).  Ignoring I2's actions, "
        "the prefix is exactly the prefix of α₀ from Lemma 5, so F1x is indistinguishable from F1x(α₀) and "
        "returns x0; by Lemma 3 and S, R1 returns (x0,y0).  F2y is unchanged, so R2 still returns (x1,y1).",
        execution,
        mechanically_checked=False,
    )
    r1_values, r2_values = OLD, NEW

    # ------------------------------------------------------------------
    # Lemma 11 (α₇): F2x moves before F1y and E1.
    # ------------------------------------------------------------------
    reasons = execution.move_before("F2x", "F1y")
    execution.name = "alpha7"
    replay.record(
        "Lemma 11 (α₇)",
        f"F2x commutes past E1 and F1y ({len(reasons)} checked swaps): it occurs at sx while they occur at r1 and sy.",
        execution,
    )

    # ------------------------------------------------------------------
    # Lemma 12 (α₈): F2y moves before I1 (and hence before F1x).
    # ------------------------------------------------------------------
    reasons = execution.move_before("F2y", "I1")
    execution.name = "alpha8"
    replay.record(
        "Lemma 12 (α₈)",
        f"F2y commutes past F1x and I1 ({len(reasons)} checked swaps): it occurs at sy while they occur at sx and r1.",
        execution,
    )

    # ------------------------------------------------------------------
    # Lemma 13 (α₉): F2x moves before F1x — same server, constructed.
    # ------------------------------------------------------------------
    allowed, reason = execution.can_swap(execution.get("F1x"), execution.get("F2x"))
    assert not allowed, "F1x/F2x share server sx; the proof must not treat this as a plain commute"
    index_f1x = execution.index_of("F1x")
    index_f2x = execution.index_of("F2x")
    execution._fragments[index_f1x], execution._fragments[index_f2x] = (
        execution._fragments[index_f2x],
        execution._fragments[index_f1x],
    )
    execution.name = "alpha9"
    replay.record(
        "Lemma 13 (α₉)",
        "F2x is re-constructed to occur before F1x at server sx (the adversary delivers m2x first).  This is "
        f"not a commute ({reason}); by Lemma 3 applied to F2y, R2 still returns (x1,y1), and by Lemma 3 applied "
        "to F1y, R1 still returns (x0,y0).",
        execution,
        mechanically_checked=False,
    )

    # ------------------------------------------------------------------
    # Lemma 14 (α₁₀): F2x moves before I1; E2 moves before I1: R2 wholly precedes R1.
    # ------------------------------------------------------------------
    reasons = execution.move_before("F2x", "I1")
    reasons += execution.move_before("E2", "I1")
    execution.name = "alpha10"
    replay.record(
        "Lemma 14 (α₁₀)",
        f"F2x and then E2 commute leftwards past R1's fragments ({len(reasons)} checked swaps): none of R1's "
        "fragments occur at r2 and none of them send the messages E2 receives.  R2 now completes before R1 begins.",
        execution,
    )

    # ------------------------------------------------------------------
    # The contradiction, recomputed semantically.
    # ------------------------------------------------------------------
    order = execution.transaction_order(("R1", "R2"))
    if order != ("R2", "R1"):
        replay.contradiction_found = False
        replay.contradiction_note = f"unexpected transaction order {order}"
        replay.final_execution = execution
        return replay

    history = _induced_history(r1_values, r2_values)
    verdict = check_strict_serializability(history)
    replay.final_execution = execution
    if not verdict.ok:
        replay.contradiction_found = True
        replay.contradiction_note = (
            "in α₁₀, R2 precedes R1 in real time yet R2 returns (x1,y1) while R1 returns (x0,y0); the semantic "
            "checker confirms no strict serialization exists: " + "; ".join(verdict.violations)
        )
    else:  # pragma: no cover - would indicate a checker bug
        replay.contradiction_found = False
        replay.contradiction_note = "semantic checker unexpectedly accepted the final history"
    return replay
