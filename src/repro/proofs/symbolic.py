"""Symbolic executions: the vehicle for replaying the impossibility proofs.

The impossibility arguments of Sections 4 and 5.1 reason about executions of
a *hypothetical* algorithm assumed to satisfy all SNOW properties, so they
cannot be replayed on a concrete protocol.  What *can* be mechanised is the
structure the proofs actually manipulate: sequences of execution fragments,
each occurring at one automaton and sending/receiving known messages, which
are repeatedly **commuted** (Lemma 2 / the dependency-preserving reordering
Claim of Appendix B) until an execution is reached whose transaction-level
outcome contradicts strict serializability.

A :class:`SymbolicFragment` records exactly the attributes those arguments
use — the automaton it occurs at, the messages it receives and sends, and
the transaction values it is known to carry.  A :class:`SymbolicExecution`
is an ordered sequence of fragments; its :meth:`swap_adjacent` refuses any
swap whose preconditions do not hold, so every commuting step of the replay
is machine-checked, and the per-lemma constructions in
:mod:`repro.proofs.three_client` and :mod:`repro.proofs.two_client` are
scripts of such checked steps.  Steps that rest on the paper's
*indistinguishability* arguments (Lemma 3 / Lemma 5's minimal-``k``
construction) are recorded as explicit :class:`ProofStep` justifications and
re-validated at the end by running the induced transaction history through
the semantic strict-serializability checker.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..ioa.errors import TraceError
from .fragments import dependency


@dataclass(frozen=True)
class SymbolicFragment:
    """One fragment of a symbolic execution.

    Attributes
    ----------
    name:
        Unique label, e.g. ``"F1x"`` or ``"a_k+1"``.
    actor:
        The automaton at which every action of the fragment occurs
        (``"*"`` marks opaque prefix/suffix blocks that are never moved).
    receives / sends:
        Labels of the channel messages the fragment consumes / produces;
        used for the dependency check when commuting.
    txn:
        The transaction the fragment belongs to (``"R1"``, ``"R2"``, ``"W"``)
        or ``None``.
    note:
        Free-form annotation, e.g. the value a non-blocking fragment returns.
    movable:
        Opaque blocks (prefix ``P_k``, suffix ``S``) are pinned.
    """

    name: str
    actor: str
    receives: FrozenSet[str] = frozenset()
    sends: FrozenSet[str] = frozenset()
    txn: Optional[str] = None
    note: str = ""
    movable: bool = True

    def describe(self) -> str:
        extra = f" [{self.note}]" if self.note else ""
        return f"{self.name}@{self.actor}{extra}"


def fragment(
    name: str,
    actor: str,
    receives: Iterable[str] = (),
    sends: Iterable[str] = (),
    txn: Optional[str] = None,
    note: str = "",
    movable: bool = True,
) -> SymbolicFragment:
    """Convenience constructor."""
    return SymbolicFragment(
        name=name,
        actor=actor,
        receives=frozenset(receives),
        sends=frozenset(sends),
        txn=txn,
        note=note,
        movable=movable,
    )


@dataclass
class ProofStep:
    """One recorded step of a proof replay."""

    lemma: str
    description: str
    mechanically_checked: bool
    execution_after: Tuple[str, ...]

    def describe(self) -> str:
        flag = "checked" if self.mechanically_checked else "justified"
        return f"[{flag}] {self.lemma}: {self.description}\n    -> {' ∘ '.join(self.execution_after)}"


class SymbolicExecution:
    """An ordered sequence of symbolic fragments with checked transformations."""

    def __init__(self, fragments: Sequence[SymbolicFragment], name: str = "") -> None:
        self._fragments: List[SymbolicFragment] = list(fragments)
        self.name = name
        names = [f.name for f in self._fragments]
        if len(set(names)) != len(names):
            raise TraceError(f"duplicate fragment names in symbolic execution: {names}")

    # ------------------------------------------------------------------
    def names(self) -> Tuple[str, ...]:
        return tuple(f.name for f in self._fragments)

    def index_of(self, name: str) -> int:
        for index, frag in enumerate(self._fragments):
            if frag.name == name:
                return index
        raise TraceError(f"no fragment named {name!r} in execution {self.name!r}")

    def get(self, name: str) -> SymbolicFragment:
        return self._fragments[self.index_of(name)]

    def copy(self, name: str = "") -> "SymbolicExecution":
        return SymbolicExecution(self._fragments, name=name or self.name)

    # ------------------------------------------------------------------
    # Checked transformations
    # ------------------------------------------------------------------
    def can_swap(self, left: SymbolicFragment, right: SymbolicFragment) -> Tuple[bool, str]:
        """Whether ``left ∘ right`` may become ``right ∘ left``.

        The rule is the dependency-preserving reordering of Appendix B
        (which subsumes the two cases of Lemma 2): the fragments must occur
        at distinct automata, both must be movable, and no message sent by
        ``left`` may be received by ``right`` (otherwise the reorder would
        deliver a message before it was sent).  The automaton and message
        clauses are :func:`~repro.proofs.fragments.dependency`.
        """
        if not left.movable or not right.movable:
            return False, "prefix/suffix blocks are pinned"
        if left.actor == "*" or right.actor == "*":
            return False, "opaque blocks cannot be commuted"
        depends = dependency(left.actor, right.actor, left.sends, right.receives)
        if depends is None:
            return True, "distinct automata, no message dependency"
        if depends.same_automaton:
            return False, f"both fragments occur at {left.actor}"
        clash = ", ".join(sorted(depends.carried))
        return False, f"{right.name} receives message(s) {clash} sent by {left.name}"

    def swap_adjacent(self, index: int) -> str:
        """Swap the fragments at ``index`` and ``index + 1`` (checked)."""
        if index < 0 or index + 1 >= len(self._fragments):
            raise TraceError(f"swap index {index} out of range")
        left, right = self._fragments[index], self._fragments[index + 1]
        allowed, reason = self.can_swap(left, right)
        if not allowed:
            raise TraceError(f"cannot swap {left.name!r} and {right.name!r}: {reason}")
        self._fragments[index], self._fragments[index + 1] = right, left
        return reason

    def move_before(self, mover: str, target: str) -> List[str]:
        """Move fragment ``mover`` to just before ``target`` via adjacent swaps.

        Every intermediate swap is checked; the list of justifications is
        returned so proof replays can record them.
        """
        reasons: List[str] = []
        mover_index = self.index_of(mover)
        target_index = self.index_of(target)
        if mover_index < target_index:
            # moving right: swap forward until just before target
            while self.index_of(mover) < self.index_of(target) - 1:
                reasons.append(self.swap_adjacent(self.index_of(mover)))
        else:
            while self.index_of(mover) > self.index_of(target):
                reasons.append(self.swap_adjacent(self.index_of(mover) - 1))
        return reasons

    def move_after(self, mover: str, target: str) -> List[str]:
        """Move fragment ``mover`` to just after ``target`` via adjacent swaps."""
        reasons: List[str] = []
        if self.index_of(mover) < self.index_of(target):
            while self.index_of(mover) < self.index_of(target):
                reasons.append(self.swap_adjacent(self.index_of(mover)))
        else:
            while self.index_of(mover) > self.index_of(target) + 1:
                reasons.append(self.swap_adjacent(self.index_of(mover) - 1))
        return reasons

    def annotate(self, name: str, note: str) -> None:
        """Replace a fragment's note (e.g. when a value binding is re-derived)."""
        index = self.index_of(name)
        self._fragments[index] = replace(self._fragments[index], note=note)

    # ------------------------------------------------------------------
    def transaction_order(self, txns: Sequence[str]) -> Tuple[str, ...]:
        """Order of transactions by the position of their last fragment."""
        last_position: Dict[str, int] = {}
        for index, frag in enumerate(self._fragments):
            if frag.txn in txns:
                last_position[frag.txn] = index
        return tuple(sorted(last_position, key=lambda t: last_position[t]))

    def describe(self) -> str:
        return f"{self.name or 'execution'}: " + " ∘ ".join(f.describe() for f in self._fragments)


@dataclass
class ProofReplay:
    """The outcome of replaying one impossibility argument."""

    theorem: str
    steps: List[ProofStep] = field(default_factory=list)
    contradiction_found: bool = False
    contradiction_note: str = ""
    final_execution: Optional[SymbolicExecution] = None

    def record(
        self,
        lemma: str,
        description: str,
        execution: SymbolicExecution,
        mechanically_checked: bool = True,
    ) -> None:
        self.steps.append(
            ProofStep(
                lemma=lemma,
                description=description,
                mechanically_checked=mechanically_checked,
                execution_after=execution.names(),
            )
        )

    @property
    def ok(self) -> bool:
        return self.contradiction_found

    def checked_steps(self) -> int:
        return sum(1 for step in self.steps if step.mechanically_checked)

    def describe(self) -> str:
        lines = [f"Proof replay: {self.theorem}"]
        for step in self.steps:
            lines.append("  " + step.describe().replace("\n", "\n  "))
        if self.contradiction_found:
            lines.append(f"  CONTRADICTION: {self.contradiction_note}")
        else:
            lines.append("  (no contradiction reached)")
        return "\n".join(lines)
