"""Strict-serializability checkers.

Two complementary checkers are provided:

* :func:`check_strict_serializability` — the *semantic* checker.  Given a
  :class:`~repro.txn.history.History` it searches for a total order of the
  complete transactions that (a) respects real-time precedence and (b) makes
  every READ transaction's observed result equal to what the sequential data
  type ``OT`` would return at that point.  It returns a witness serial order
  when one exists and a diagnosis when none does.  This is the checker used
  to *verify* protocol executions and to *expose* the Eiger anomaly of
  Figure 5.

* :func:`check_lemma20` — the *proof-technique* checker.  Lemma 20 of the
  paper gives four conditions ``P1–P4`` on an irreflexive partial order ``≺``
  (derived from per-transaction tags) that together imply strict
  serializability; this is exactly how Theorems 3, 4 and 5 prove algorithms
  A, B and C correct.  The checker takes the tags reported by a protocol and
  verifies ``P1–P4`` mechanically, then (as a sanity cross-check) confirms
  that the tag order is accepted by the semantic checker.

Both checkers operate only on complete transactions, matching the paper's
reduction (via Lynch's Lemma 13.10) from arbitrary well-formed executions to
transaction-complete ones.

Cost, for ``n`` complete transactions: Lemma 20's ``P1–P4`` take
O(n log n) — each condition is a sort plus one probe per transaction — and
the semantic search, run once per ``History`` object however many checkers
ask, takes O(n log n) plus O(w log w) per explored state, ``w`` being the
transactions concurrent with one transaction (about ``n`` states when the
protocol really serialized the history, exponential in ``w`` at worst).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

from ..txn.history import History, HistoryEntry
from ..txn.transactions import ReadResult, ReadTransaction, WriteTransaction


@dataclass(frozen=True)
class SerializabilityResult:
    """Outcome of a strict-serializability check (immutable: callers share it)."""

    ok: bool
    witness_order: Tuple[str, ...] = ()
    violations: Tuple[str, ...] = ()
    explored_states: int = 0

    def describe(self) -> str:
        if self.ok:
            order = " < ".join(self.witness_order)
            return f"strictly serializable (witness order: {order}; {self.explored_states} states explored)"
        return "NOT strictly serializable: " + "; ".join(self.violations)


def _observed_read_map(entry: HistoryEntry) -> Optional[Dict[str, Any]]:
    """Normalise the observed result of a READ into an object→value dict."""
    result = entry.result
    if result is None:
        return None
    if isinstance(result, ReadResult):
        return result.as_dict
    if isinstance(result, Mapping):
        return dict(result)
    if isinstance(result, (list, tuple)):
        # positional: align with the transaction's object list
        return dict(zip(entry.txn.objects, result))
    return None


def check_strict_serializability(history: History, max_states: int = 2_000_000) -> SerializabilityResult:
    """The verdict of :func:`_search`, run once per history: a history is
    immutable and the search deterministic, so the finished result is kept in
    ``history.views`` and answers every later call (``check_snow``'s S, a
    direct call and :func:`check_lemma20`'s cross-check are one search).  The
    search aborts iff it explores more than ``max_states`` states, so a kept
    verdict answers exactly the bounds it fits; an aborted one is not kept."""
    kept = history.views.get(check_strict_serializability)
    if kept is not None and kept.explored_states <= max_states:
        return kept
    result = _search(history, max_states)
    if result.explored_states <= max_states:  # ran to its end
        history.views[check_strict_serializability] = result
    return result


def _pairs(entry: HistoryEntry, position: Mapping[str, int]) -> Any:
    """``(position in the state tuple, value)`` pairs: what a READ observed
    (``()`` for no report, ``None`` when its keys are not the READ's objects:
    no state matches) or what a WRITE stores.  An error the sequential
    specification (:mod:`repro.txn.datatype`) would raise is returned instead,
    and raised only if the search gets as far as this transaction."""
    txn = entry.txn
    is_read = isinstance(txn, ReadTransaction)
    if not is_read and not isinstance(txn, WriteTransaction):
        return TypeError(f"not a transaction: {txn!r}")
    for obj in txn.objects:
        if obj not in position:
            return KeyError(f"READ of unknown object {obj!r}" if is_read else f"unknown object {obj!r}")
    if not is_read:
        return tuple((position[obj], value) for obj, value in txn.updates)
    observed = _observed_read_map(entry)
    if observed is not None and observed.keys() != set(txn.objects):
        return None
    return tuple((position[obj], value) for obj, value in (observed or {}).items())


def _search(history: History, max_states: int) -> SerializabilityResult:
    """Search for a legal strict serialization of ``history``.

    The search walks the DAG of "sets of already-serialized transactions":
    from a frontier state it may serialize next any transaction all of whose
    real-time predecessors are already serialized, provided a READ's observed
    values match the current abstract state.  Memoisation is on the pair
    ``(set of placed transactions, abstract state)`` — two different orders
    of the same writes that produce the same state are explored once.  The
    state is the tuple of values in ``history.objects`` order and every
    transaction is precomputed against it (:func:`_pairs`): a candidate test
    is an index compare per observed value, placing a WRITE one list copy.

    Real-time order is an interval order, so "every predecessor is placed"
    is a window test: a transaction is eligible iff it was invoked no later
    than the earliest response among the *other* unplaced transactions.  With
    the transactions ranked by invocation, a state is therefore the first
    unplaced rank plus a bitmask of the few placed ranks beyond it, and its
    eligible transactions lie in the short run of ranks invoked before that
    earliest response — no predecessor sets, no scan over all transactions.

    Cost: O(n log n) to rank, then O(w log w) per explored state where ``w``
    is the window (bounded by how many transactions overlap one transaction).
    A history a protocol serialized correctly is explored in about ``n``
    states; the worst case is exponential in the number of *concurrent*
    transactions, and ``max_states`` bounds the work defensively.
    """
    entries = history.complete_entries()
    if not entries:
        return SerializabilityResult(ok=True, witness_order=(), explored_states=0)

    # Rank space: positions in ``entries`` (history order) sorted by
    # invocation; the stable sort lets history order break ties.
    n = len(entries)
    ranked = sorted(range(n), key=lambda position: entries[position].invoke_index)
    ids = [entries[position].txn_id for position in ranked]
    invoke = [entries[position].invoke_index for position in ranked]
    respond = [entries[position].respond_index for position in ranked]
    is_read = [isinstance(entries[position].txn, ReadTransaction) for position in ranked]
    position_of = {obj: position for position, obj in enumerate(history.objects)}
    pairs = [_pairs(entries[position], position_of) for position in ranked]
    expects = [found if read else () for found, read in zip(pairs, is_read)]
    # earliest response among ranks >= r; it can undercut a window member's
    # invocation only in a hand-written history whose entries respond before
    # they are invoked, but then it must, to keep the predecessor test exact
    respond_from = [float("inf")] * (n + 1)
    for rank in range(n - 1, -1, -1):
        respond_from[rank] = min(respond[rank], respond_from[rank + 1])

    def candidates(lo: int, beyond: int, state: Tuple[Any, ...]) -> List[int]:
        """Eligible ranks whose observed values match ``state``, in history
        order.  ``lo`` is the first unplaced rank; bit ``i`` of ``beyond``
        says rank ``lo + 1 + i`` is placed."""
        window: List[int] = []
        first = second = float("inf")  # two earliest responses in the window
        rank, placed = lo, beyond << 1
        while rank < n and invoke[rank] <= first:
            if not placed & 1:
                window.append(rank)
                if respond[rank] < first:
                    first, second = respond[rank], first
                elif respond[rank] < second:
                    second = respond[rank]
            rank += 1
            placed >>= 1
        rest = respond_from[rank]
        out = []
        for rank in window:
            others = second if respond[rank] == first else first
            if invoke[rank] > others or invoke[rank] > rest:
                continue
            expected = expects[rank]
            if expected is None:
                continue
            if expected.__class__ is not tuple:
                raise expected
            for position, value in expected:
                if state[position] is not value and state[position] != value:  # as dicts compare
                    break
            else:
                out.append(rank)
        out.sort(key=ranked.__getitem__)
        return out

    initial_state = (history.initial_value,) * len(history.objects)
    visited: Set[Tuple[int, int, Tuple[Any, ...]]] = {(0, 0, initial_state)}
    explored = 0

    # Iterative depth-first search with an explicit stack so deep histories
    # cannot blow the Python recursion limit.  A frame is (first unplaced
    # rank, placed ranks beyond it, state, rank placed to get here, untried
    # candidates); the ranks placed along the stack are the serial order.
    stack: List[Tuple[int, int, Tuple[Any, ...], int, List[int]]] = [
        (0, 0, initial_state, -1, candidates(0, 0, initial_state))
    ]
    while stack:
        lo, beyond, state, _, cands = stack[-1]
        if lo == n:
            order = tuple(ids[frame[3]] for frame in stack[1:])
            return SerializabilityResult(ok=True, witness_order=order, explored_states=explored)
        if not cands:
            stack.pop()
            continue
        rank = cands.pop()
        next_state = state
        if not is_read[rank]:
            if pairs[rank].__class__ is not tuple:
                raise pairs[rank]
            cells = list(state)
            for position, value in pairs[rank]:
                cells[position] = value
            next_state = tuple(cells)
        if rank != lo:
            next_lo, next_beyond = lo, beyond | 1 << (rank - lo - 1)
        else:
            # the first unplaced rank moves up to the first clear bit
            next_lo, next_beyond = lo + 1, beyond
            while next_beyond & 1:
                next_lo += 1
                next_beyond >>= 1
            next_beyond >>= 1
        key = (next_lo, next_beyond, next_state)
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
        stack.append((next_lo, next_beyond, next_state, rank, candidates(next_lo, next_beyond, next_state)))

    # Exhausted without serializing everything: diagnose why.
    violations = _diagnose(history)
    return SerializabilityResult(ok=False, violations=violations, explored_states=explored)


def _diagnose(history: History) -> Tuple[str, ...]:
    """Produce human-readable hints about why no serialization exists."""
    notes: List[str] = []
    reads = [e for e in history.complete_entries() if isinstance(e.txn, ReadTransaction)]
    writes = [e for e in history.complete_entries() if isinstance(e.txn, WriteTransaction)]
    for read_entry in reads:
        seen = _observed_read_map(read_entry)
        if seen is None:
            continue
        # Which write wrote each observed value?
        for obj, value in seen.items():
            sources = [w for w in writes if obj in w.txn.objects and dict(w.txn.updates).get(obj) == value]
            if not sources and value != history.initial_value:
                notes.append(
                    f"{read_entry.txn_id} observed {obj}={value!r} which no WRITE transaction produced"
                )
        # Mixed-version detection: values from writes that are real-time ordered
        # while an intermediate write to another read object is skipped.
        source_writes: List[HistoryEntry] = []
        for obj, value in seen.items():
            for w in writes:
                if obj in w.txn.objects and dict(w.txn.updates).get(obj) == value:
                    source_writes.append(w)
        for earlier in source_writes:
            for later in source_writes:
                if earlier is later:
                    continue
                if earlier.precedes(later):
                    # read saw `earlier`'s value for some object although it also
                    # saw a later write; check whether `later` (or something after
                    # `earlier`) overwrote that object.
                    for obj, value in seen.items():
                        if obj in earlier.txn.objects and dict(earlier.txn.updates).get(obj) == value:
                            overwriters = [
                                w
                                for w in writes
                                if w is not earlier
                                and obj in w.txn.objects
                                and (earlier.precedes(w) or w is later)
                                and (w.precedes(later) or w is later)
                            ]
                            if overwriters:
                                notes.append(
                                    f"{read_entry.txn_id} mixes versions: it saw {later.txn_id} "
                                    f"(which real-time follows {earlier.txn_id}) but still returned "
                                    f"{obj}={value!r} from {earlier.txn_id}, skipping "
                                    f"{', '.join(w.txn_id for w in overwriters)}"
                                )
    if not notes:
        notes.append("no total order consistent with real-time precedence reproduces the observed read values")
    return tuple(dict.fromkeys(notes))


# ----------------------------------------------------------------------
# Lemma 20: tag-based sufficient condition
# ----------------------------------------------------------------------
@dataclass
class Lemma20Result:
    """Outcome of the Lemma 20 (P1–P4) check."""

    ok: bool
    violations: Tuple[str, ...] = ()
    order: Tuple[str, ...] = ()
    cross_check: Optional[SerializabilityResult] = None

    def describe(self) -> str:
        if self.ok:
            return f"P1-P4 hold; induced order: {' < '.join(self.order)}"
        return "Lemma 20 violated: " + "; ".join(self.violations)


def tag_precedes(
    tag_a: Any, is_write_a: bool, tag_b: Any, is_write_b: bool
) -> bool:
    """The ``≺`` order used by Theorems 3-5: tag order, writes before reads on ties."""
    if tag_a < tag_b:
        return True
    if tag_a == tag_b and is_write_a and not is_write_b:
        return True
    return False


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

    Cost: O(n log n) when the conditions hold.  ``≺`` is a lexicographic key,
    so P2 is a running maximum over the response order probed by bisection,
    P3 a grouping of the WRITEs by tag, and P4 a bisection into each object's
    tag-sorted writes; only a P2 violation costs more (O(n) per transaction
    that was overtaken), to list every offending pair in history order.
    """
    entries = list(history.complete_entries())
    violations: List[str] = []

    missing = [e.txn_id for e in entries if e.txn_id not in tags]
    if missing:
        violations.append(f"missing tags for: {', '.join(missing)}")
        return Lemma20Result(ok=False, violations=tuple(violations))

    def is_write(entry: HistoryEntry) -> bool:
        return isinstance(entry.txn, WriteTransaction)

    # P1 -----------------------------------------------------------------
    for entry in entries:
        tag = tags[entry.txn_id]
        if not isinstance(tag, (int, float)) or isinstance(tag, bool):
            violations.append(f"P1: tag of {entry.txn_id} is not numeric ({tag!r})")
    if violations:
        # Non-numeric tags make the ≺ relation ill-defined; stop before P2-P4.
        return Lemma20Result(ok=False, violations=tuple(violations))

    # ``φ ≺ π`` (:func:`tag_precedes`) is exactly ``key[φ] < key[π]``.
    key = {e.txn_id: (tags[e.txn_id], 0 if is_write(e) else 1) for e in entries}

    # P2 -----------------------------------------------------------------
    # π can be ≺-preceded by something that responded before it was invoked
    # only if the ≺-largest such transaction is: probe a running maximum over
    # the entries in response order at each invocation index.
    by_respond = sorted(entries, key=lambda e: e.respond_index)
    respond_indices = [e.respond_index for e in by_respond]
    largest_key_so_far = list(accumulate((key[e.txn_id] for e in by_respond), max))
    overtaken = []  # in history order
    for b in entries:
        responded_before = bisect_left(respond_indices, b.invoke_index)
        if responded_before and largest_key_so_far[responded_before - 1] > key[b.txn_id]:
            overtaken.append(b)
    if overtaken:
        for a in entries:
            for b in overtaken:
                if a is not b and a.precedes(b) and key[b.txn_id] < key[a.txn_id]:
                    violations.append(
                        f"P2: {a.txn_id} responds before {b.txn_id} is invoked, yet {b.txn_id} ≺ {a.txn_id} "
                        f"(tags {tags[b.txn_id]!r} vs {tags[a.txn_id]!r})"
                    )

    # P3 -----------------------------------------------------------------
    # A WRITE is unordered against exactly the WRITEs that share its tag.
    writes = [e for e in entries if is_write(e)]
    writes_by_tag: Dict[Any, List[HistoryEntry]] = {}
    for entry in writes:
        writes_by_tag.setdefault(tags[entry.txn_id], []).append(entry)
    for a in writes:
        for b in writes_by_tag[tags[a.txn_id]]:
            if a is not b:
                violations.append(
                    f"P3: WRITE {a.txn_id} is not ordered against {b.txn_id} "
                    f"(tags {tags[a.txn_id]!r} vs {tags[b.txn_id]!r})"
                )

    # P4 -----------------------------------------------------------------
    # Per object, the writes sorted by tag (stable: history order within a
    # tag); the ≺-latest write preceding a READ tagged ``t`` is the first of
    # the run sharing the largest tag <= t.
    writes_to: Dict[str, List[HistoryEntry]] = {}
    for entry in writes:
        for obj in entry.txn.objects:
            writes_to.setdefault(obj, []).append(entry)
    write_tags_to: Dict[str, List[Any]] = {}
    for obj, object_writes in writes_to.items():
        object_writes.sort(key=lambda w: tags[w.txn_id])
        write_tags_to[obj] = [tags[w.txn_id] for w in object_writes]
    for read_entry in entries:
        if is_write(read_entry):
            continue
        observed = _observed_read_map(read_entry)
        if observed is None:
            continue
        for obj, value in observed.items():
            write_tags = write_tags_to.get(obj, ())
            preceding = bisect_right(write_tags, tags[read_entry.txn_id])
            if preceding:
                latest = writes_to[obj][bisect_left(write_tags, write_tags[preceding - 1])]
                expected = latest.txn.value_for(obj)
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
