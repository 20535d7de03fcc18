"""The seed's exhaustive strict-serializability search and Lemma 20 loops,
kept verbatim as the test oracle.

Until PR 12 these were :mod:`repro.core.serializability`'s implementation:
an n² predecessor table with a scan over every transaction per search state,
and all-pairs loops for P2-P4.  ``src/`` now ranks, sorts and bisects; these
loops define what the results (verdict, witness order, explored states,
violation text and order) must be.  Do not optimise this file.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from repro.core.serializability import (
    Lemma20Result,
    SerializabilityResult,
    _diagnose,
    _observed_read_map,
    tag_precedes,
)
from repro.txn.datatype import OTState, apply_transaction
from repro.txn.history import History, HistoryEntry
from repro.txn.transactions import ReadTransaction, WriteTransaction


def check_strict_serializability(
    history: History,
    max_states: int = 2_000_000,
) -> SerializabilityResult:
    """Search for a legal strict serialization of ``history``.

    The search walks the DAG of "sets of already-serialized transactions":
    from a frontier state it may serialize next any transaction all of whose
    real-time predecessors are already serialized, provided a READ's observed
    values match the current abstract state.  Memoisation is on the pair
    ``(frozenset of placed txn ids, abstract state)`` — two different orders
    of the same writes that produce the same state are explored once.

    The worst case is exponential in the number of *concurrent* transactions,
    which is small in all experiments (the checkers are applied to bounded
    histories); ``max_states`` bounds the work defensively.
    """
    entries = list(history.complete_entries())
    if not entries:
        return SerializabilityResult(ok=True, witness_order=(), explored_states=0)

    by_id: Dict[str, HistoryEntry] = {e.txn_id: e for e in entries}
    ids: List[str] = [e.txn_id for e in entries]

    # Pre-compute real-time predecessors for each transaction.
    predecessors: Dict[str, FrozenSet[str]] = {}
    for entry in entries:
        preds = frozenset(other.txn_id for other in entries if other is not entry and other.precedes(entry))
        predecessors[entry.txn_id] = preds

    observed: Dict[str, Optional[Dict[str, Any]]] = {
        e.txn_id: _observed_read_map(e) if isinstance(e.txn, ReadTransaction) else None for e in entries
    }

    initial_state = OTState.initial(history.objects, history.initial_value)
    visited: Set[Tuple[FrozenSet[str], OTState]] = set()
    explored = 0

    # Iterative depth-first search with an explicit stack so deep histories
    # cannot blow the Python recursion limit.
    # Stack holds (placed_frozenset, state, order_list, candidate_iterator).
    def candidates(placed: FrozenSet[str], state: OTState) -> List[str]:
        out = []
        for txn_id in ids:
            if txn_id in placed:
                continue
            if not predecessors[txn_id] <= placed:
                continue
            entry = by_id[txn_id]
            if isinstance(entry.txn, ReadTransaction):
                expected, _ = apply_transaction(state, entry.txn)
                seen = observed[txn_id]
                if seen is not None and seen != expected.as_dict:
                    continue
            out.append(txn_id)
        return out

    stack: List[Tuple[FrozenSet[str], OTState, Tuple[str, ...], List[str]]] = []
    placed0: FrozenSet[str] = frozenset()
    stack.append((placed0, initial_state, (), candidates(placed0, initial_state)))
    visited.add((placed0, initial_state))

    while stack:
        placed, state, order, cands = stack[-1]
        if len(placed) == len(ids):
            return SerializabilityResult(ok=True, witness_order=order, explored_states=explored)
        if not cands:
            stack.pop()
            continue
        txn_id = cands.pop()
        entry = by_id[txn_id]
        _, next_state = apply_transaction(state, entry.txn)
        next_placed = placed | {txn_id}
        key = (next_placed, next_state)
        if key in visited:
            continue
        visited.add(key)
        explored += 1
        if explored > max_states:
            return SerializabilityResult(
                ok=False,
                violations=(f"search aborted after exploring {max_states} states",),
                explored_states=explored,
            )
        stack.append((next_placed, next_state, order + (txn_id,), candidates(next_placed, next_state)))

    # Exhausted without serializing everything: diagnose why.
    violations = _diagnose(history)
    return SerializabilityResult(ok=False, violations=violations, explored_states=explored)


def check_lemma20(
    history: History,
    tags: Mapping[str, Any],
    cross_check: bool = True,
) -> Lemma20Result:
    """Verify the conditions ``P1``–``P4`` of Lemma 20 for a tagged history.

    ``tags`` maps each complete transaction id to the tag assigned by the
    protocol (for algorithms A/B/C this is the index derived from the
    reader's/coordinator's ``List``).  The induced relation is::

        φ ≺ π  iff  tag(φ) < tag(π), or tag(φ) == tag(π) and φ is a WRITE and π is a READ

    Checks performed:

    * **P1** (finite past) — trivially true for finite histories, but we also
      reject non-numeric tags that would break well-foundedness.
    * **P2** (real-time consistency) — if π responds before φ is invoked then
      not ``φ ≺ π``.
    * **P3** (writes totally ordered) — any WRITE is ordered against every
      other transaction; with numeric tags this amounts to write tags being
      unique and comparable.
    * **P4** (reads see the latest preceding write) — for every READ and every
      object it returns, the value equals the one written by the ≺-latest
      WRITE to that object that precedes the READ, or the initial value if
      there is none.
    """
    entries = list(history.complete_entries())
    violations: List[str] = []

    missing = [e.txn_id for e in entries if e.txn_id not in tags]
    if missing:
        violations.append(f"missing tags for: {', '.join(missing)}")
        return Lemma20Result(ok=False, violations=tuple(violations))

    def is_write(entry: HistoryEntry) -> bool:
        return isinstance(entry.txn, WriteTransaction)

    def precedes(a: HistoryEntry, b: HistoryEntry) -> bool:
        return tag_precedes(tags[a.txn_id], is_write(a), tags[b.txn_id], is_write(b))

    # P1 -----------------------------------------------------------------
    for entry in entries:
        tag = tags[entry.txn_id]
        if not isinstance(tag, (int, float)) or isinstance(tag, bool):
            violations.append(f"P1: tag of {entry.txn_id} is not numeric ({tag!r})")
    if violations:
        # Non-numeric tags make the ≺ relation ill-defined; stop before P2-P4.
        return Lemma20Result(ok=False, violations=tuple(violations))

    # P2 -----------------------------------------------------------------
    for a in entries:
        for b in entries:
            if a is b:
                continue
            if a.precedes(b) and precedes(b, a):
                violations.append(
                    f"P2: {a.txn_id} responds before {b.txn_id} is invoked, yet {b.txn_id} ≺ {a.txn_id} "
                    f"(tags {tags[b.txn_id]!r} vs {tags[a.txn_id]!r})"
                )

    # P3 -----------------------------------------------------------------
    for a in entries:
        if not is_write(a):
            continue
        for b in entries:
            if a is b:
                continue
            if not precedes(a, b) and not precedes(b, a):
                violations.append(
                    f"P3: WRITE {a.txn_id} is not ordered against {b.txn_id} "
                    f"(tags {tags[a.txn_id]!r} vs {tags[b.txn_id]!r})"
                )

    # P4 -----------------------------------------------------------------
    for read_entry in entries:
        if is_write(read_entry):
            continue
        observed = _observed_read_map(read_entry)
        if observed is None:
            continue
        for obj, value in observed.items():
            prior_writes = [
                w
                for w in entries
                if is_write(w) and obj in w.txn.objects and precedes(w, read_entry)
            ]
            if prior_writes:
                latest = max(prior_writes, key=lambda w: tags[w.txn_id])
                expected = dict(latest.txn.updates)[obj]
                if value != expected:
                    violations.append(
                        f"P4: {read_entry.txn_id} returned {obj}={value!r} but the ≺-latest preceding "
                        f"write {latest.txn_id} wrote {obj}={expected!r}"
                    )
            else:
                if value != history.initial_value:
                    violations.append(
                        f"P4: {read_entry.txn_id} returned {obj}={value!r} with no preceding write "
                        f"(expected initial value {history.initial_value!r})"
                    )

    ok = not violations
    order: Tuple[str, ...] = ()
    if ok:
        order = tuple(
            e.txn_id
            for e in sorted(entries, key=lambda e: (tags[e.txn_id], 0 if is_write(e) else 1, e.invoke_index))
        )

    result = Lemma20Result(ok=ok, violations=tuple(violations), order=order)
    if ok and cross_check:
        result.cross_check = check_strict_serializability(history)
        if not result.cross_check.ok:
            result.ok = False
            result.violations = (
                "internal inconsistency: P1-P4 hold but the semantic checker rejects the history",
            ) + result.cross_check.violations
    return result
