"""Causal span trees derived from kernel traces.

The paper's arguments are conducted over *executions*; this module gives an
execution the shape observability tooling expects: a forest of **spans**
(intervals of trace indices attributed to one activity) plus **causal
edges** (one per delivered message, stitched from the matching send→recv
``msg_id`` pair).

Span derivation is a pure function of a finished simulation:

* one ``txn`` span per submitted transaction, from its invocation to its
  response (reusing the kernel's :class:`TransactionRecord` stamps);
* one ``round`` child span per client quorum round, grouped by the
  ``phase`` info the protocols stamp on their SEND actions (and carrying
  the ``epoch``/``attempt`` payload stamps of the reconfiguration layer);
* zero-length ``consensus`` spans for each applied coordinator-log entry
  (parented onto the transaction named by its request id);
* ``election`` spans from a member's ``candidacy`` to its
  ``became-leader`` internal action (same member and term);
* ``reconfig`` spans from a membership change's ``joint-begin`` to its
  ``commit`` (and likewise for the consensus-group variant).

Everything is keyed on trace indices and payload fields — never ``msg_id``
values (numbered per simulation since PR 16, but negative and process-wide
for a message built outside a kernel) and never wall-clock time — so the
:meth:`SpanTree.signature` of two runs of the same configuration is
identical.  That is the determinism contract the tests pin.

Cost: one walk over the trace, then a pass over the transaction records and
one over the sent messages; the transaction, round and edge records are built
by plain stores on their writable twins (see
:class:`~repro.ioa.actions.FrozenRecord`), without a constructor frame.  About
6 ms for algorithm B's 400-transaction ``verify`` cell (5,607 actions) on a
2-core host.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Dict, List, Optional, Tuple

from ..ioa.actions import Action, ActionKind, FrozenRecord
from ..ioa.simulation import Simulation


class Span(FrozenRecord):
    """One interval of trace indices attributed to a single activity."""

    __slots__ = ("span_id", "name", "kind", "actor", "start", "end", "parent", "attrs")

    def _fill(
        self,
        span_id: str,
        name: str,
        kind: str,  # "txn" | "round" | "consensus" | "election" | "reconfig"
        actor: str,
        start: int,  # trace index of the first action of the span
        end: int,  # trace index of the last action (== start for point spans)
        parent: Optional[str] = None,
        attrs: Tuple[Tuple[str, Any], ...] = (),
    ) -> None:
        self.span_id = span_id
        self.name = name
        self.kind = kind
        self.actor = actor
        self.start = start
        self.end = end
        self.parent = parent
        self.attrs = attrs

    @property
    def duration(self) -> int:
        return self.end - self.start

    def get(self, key: str, default: Any = None) -> Any:
        return dict(self.attrs).get(key, default)

    def describe(self) -> str:
        extra = ", ".join(f"{k}={v}" for k, v in self.attrs)
        suffix = f" [{extra}]" if extra else ""
        return f"[{self.start:5d} → {self.end:5d}] {self.kind}:{self.name} @ {self.actor}{suffix}"



class CausalEdge(FrozenRecord):
    """One delivered message: the happens-before edge send → recv."""

    __slots__ = ("src", "dst", "send_index", "recv_index", "msg_type")

    def _fill(self, src: str, dst: str, send_index: int, recv_index: int, msg_type: str) -> None:
        self.src = src
        self.dst = dst
        self.send_index = send_index
        self.recv_index = recv_index
        self.msg_type = msg_type




@dataclass
class SpanTree:
    """A forest of spans plus the causal edges of the underlying trace."""

    spans: Tuple[Span, ...] = ()
    edges: Tuple[CausalEdge, ...] = ()
    #: messages sent but never received (drops, crash-held, end-of-run)
    undelivered: int = 0
    _children: Dict[Optional[str], List[Span]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        for span in self.spans:
            self._children.setdefault(span.parent, []).append(span)

    def __len__(self) -> int:
        return len(self.spans)

    def roots(self) -> Tuple[Span, ...]:
        return tuple(self._children.get(None, ()))

    def children(self, span: Span) -> Tuple[Span, ...]:
        return tuple(self._children.get(span.span_id, ()))

    def span(self, span_id: str) -> Optional[Span]:
        for candidate in self.spans:
            if candidate.span_id == span_id:
                return candidate
        return None

    def of_kind(self, kind: str) -> Tuple[Span, ...]:
        return tuple(s for s in self.spans if s.kind == kind)

    def signature(self) -> Tuple[Any, ...]:
        """Canonical cross-run-comparable projection (no msg ids inside)."""
        return (tuple(map(Span._fields, self.spans)), tuple(map(CausalEdge._fields, self.edges)), self.undelivered)

    def describe(self) -> str:
        lines = [
            f"SpanTree: {len(self.spans)} spans, {len(self.edges)} causal edges, "
            f"{self.undelivered} undelivered messages"
        ]

        def walk(span: Span, depth: int) -> None:
            lines.append("  " * (depth + 1) + span.describe())
            for child in self.children(span):
                walk(child, depth + 1)

        for root in self.roots():
            walk(root, 0)
        return "\n".join(lines)


def _txn_round_spans(
    spans: List[Span], txn_span_id: str, actor: str, close: int, sends: List[Action], recvs: List[int]
) -> None:
    """Append the child round spans of one transaction to ``spans``.

    A round starts at a client send whose ``(phase, attempt)`` differs from
    the previous send's and extends to the last client receive before the
    next round's first send (the replies a quorum round collected); ``close``
    bounds the last round's window.  This is exactly the shape of the session
    protocol: a burst of sends stamped with one phase, then an Await
    collecting the replies.  ``recvs`` are the client's receive indices, in
    trace order.
    """
    groups: List[List[Any]] = []  # [phase, first send, last send index, sends]
    previous = None
    for send in sends:
        message = send.message
        keys, values = send.info_keys, send.info_values
        phase = values[keys.index("phase")] if "phase" in keys else message.get("phase")
        keys = message.keys
        key = (phase or message.msg_type, message.values[keys.index("attempt")] if "attempt" in keys else None)
        if key == previous:
            group[2] = send.index
            group[3] += 1
        else:
            group = [key[0], send, send.index, 1]
            groups.append(group)
            previous = key
    for number, (phase, first, last, count) in enumerate(groups, start=1):
        start = first.index
        low = bisect_right(recvs, start)
        high = bisect_left(recvs, groups[number][1].index if number < len(groups) else close + 1, low)
        attrs = (("sends", count), ("replies", high - low))
        keys, values = first.message.keys, first.message.values
        for key in ("epoch", "attempt"):  # the reconfiguration layer's stamps
            if key in keys and values[keys.index(key)] is not None:
                attrs += ((key, values[keys.index(key)]),)
        span = object.__new__(Span._writable)
        span.span_id = f"{txn_span_id}/round{number}"
        span.name = str(phase)
        span.kind = "round"
        span.actor = actor
        span.start = start
        span.end = recvs[high - 1] if high > low else last
        span.parent = txn_span_id
        span.attrs = attrs
        span.__class__ = Span
        spans.append(span)


def derive_spans(simulation: Simulation) -> SpanTree:
    """Derive the causal span tree of a (finished) simulation."""
    trace = simulation.trace
    records = simulation.transaction_records()

    # One linear pass collects everything the builders below need.
    send, recv, internal = ActionKind.SEND, ActionKind.RECV, ActionKind.INTERNAL
    #: msg_id → its last send (a repeated id is re-filed, so sends stay in trace order)
    sent: Dict[int, Action] = {}
    #: msg_id → index of its last receive
    received: Dict[int, int] = {}
    client_sends: Dict[str, List[Action]] = {}
    client_recvs: Dict[str, List[int]] = {}
    consensus_actions: List[Action] = []
    reconfig_actions: List[Action] = []
    clients = {record.client for record in records}
    for action in trace:
        kind = action.kind
        if kind is send or kind is recv:
            message = action.message
            if message is None:
                continue
            if kind is send:
                sent.pop(message.msg_id, None)
                sent[message.msg_id] = action
            else:
                received[message.msg_id] = action.index
            if action.actor in clients:
                keys = message.keys
                txn = message.values[keys.index("txn")] if "txn" in keys else None
                if txn is not None:
                    if kind is send:
                        client_sends.setdefault(str(txn), []).append(action)
                    else:
                        client_recvs.setdefault(str(txn), []).append(action.index)
        elif kind is internal:
            if "consensus" in action.info_keys:
                consensus_actions.append(action)
            elif "reconfig" in action.info_keys:
                reconfig_actions.append(action)

    spans: List[Span] = []
    txn_span_ids: Dict[str, str] = {}

    # -- transaction spans + their quorum-round children ----------------
    # The newest *global* index, not len()-1: under a ring trace retained
    # indices are windowed, and len() would undershoot.
    last_index = getattr(trace, "last_index", len(trace) - 1)
    for record in records:
        if record.invoke_index is None:
            continue  # never invoked: nothing of it is in the trace
        txn_id = str(record.txn_id)
        span_id = txn_span_ids[txn_id] = f"txn:{txn_id}"
        complete = record.respond_index is not None  # and invoked, as checked above
        end = record.respond_index if complete else last_index
        span = object.__new__(Span._writable)
        span.span_id = span_id
        span.name = f"{getattr(record.txn, 'kind', 'txn')} {txn_id}"
        span.kind = "txn"
        span.actor = record.client
        span.start = record.invoke_index
        span.end = end
        span.parent = None
        span.attrs = (("complete", complete), ("rounds", record.rounds), ("messages_sent", record.messages_sent))
        span.__class__ = Span
        spans.append(span)
        _txn_round_spans(spans, span_id, record.client, end, client_sends.get(txn_id, []), client_recvs.get(txn_id, []))

    # -- consensus spans: applied entries and elections ------------------
    candidacies: Dict[Tuple[str, Any], Action] = {}
    for action in consensus_actions:
        info = action.info_map
        what = info.get("consensus")
        if what == "apply":
            request = str(info.get("request", ""))
            txn = request.rsplit("/", 1)[-1] if "/" in request else None
            spans.append(
                Span(
                    span_id=f"cns:{request}@{action.index}",
                    name=f"apply {request}",
                    kind="consensus",
                    actor=action.actor,
                    start=action.index,
                    end=action.index,
                    parent=txn_span_ids.get(txn) if txn else None,
                    attrs=(
                        ("term", info.get("term")),
                        ("commit_latency", info.get("commit_latency")),
                    ),
                )
            )
        elif what == "candidacy":
            candidacies[(action.actor, info.get("term"))] = action
        elif what == "became-leader":
            started = candidacies.pop((action.actor, info.get("term")), None)
            spans.append(
                Span(
                    span_id=f"election:{action.actor}@{action.index}",
                    name=f"election term {info.get('term')}",
                    kind="election",
                    actor=action.actor,
                    start=started.index if started is not None else action.index,
                    end=action.index,
                    attrs=(("term", info.get("term")), ("won", True)),
                )
            )
    for (member, term), action in candidacies.items():
        spans.append(
            Span(
                span_id=f"election:{member}@{action.index}",
                name=f"election term {term}",
                kind="election",
                actor=member,
                start=action.index,
                end=action.index,
                attrs=(("term", term), ("won", False)),
            )
        )

    # -- reconfiguration spans: joint window → commit --------------------
    open_joint: Dict[Tuple[str, Any], Action] = {}
    for action in reconfig_actions:
        info = action.info_map
        what = info.get("reconfig")
        if what in ("joint-begin", "cns-joint-begin"):
            scope = "cns" if what.startswith("cns-") else "replica"
            # Storage changes are keyed by object; the driver serializes
            # consensus-group changes, so scope alone identifies those.
            open_joint[(scope, info.get("object"))] = action
        elif what in ("commit", "cns-commit"):
            scope = "cns" if what.startswith("cns-") else "replica"
            begin = open_joint.pop((scope, info.get("object")), None)
            start = begin.index if begin is not None else action.index
            spans.append(
                Span(
                    span_id=f"reconfig:{scope}@{start}",
                    name=f"{scope}-change epoch {info.get('epoch')}",
                    kind="reconfig",
                    actor=action.actor,
                    start=start,
                    end=action.index,
                    attrs=(("epoch", info.get("epoch")),),
                )
            )
    for (scope, _object_id), action in open_joint.items():
        info = action.info_map
        spans.append(
            Span(
                span_id=f"reconfig:{scope}@{action.index}",
                name=f"{scope}-change (uncommitted)",
                kind="reconfig",
                actor=action.actor,
                start=action.index,
                end=last_index if last_index >= action.index else action.index,
                attrs=(("epoch", info.get("epoch")), ("committed", False)),
            )
        )

    # -- causal edges: one per delivered message, in send order ----------
    edges: List[CausalEdge] = []
    for msg_id, action in sent.items():
        recv_index = received.get(msg_id)
        if recv_index is not None:
            message = action.message
            edge = object.__new__(CausalEdge._writable)
            edge.src = message.src
            edge.dst = message.dst
            edge.send_index = action.index
            edge.recv_index = recv_index
            edge.msg_type = message.msg_type
            edge.__class__ = CausalEdge
            edges.append(edge)

    spans.sort(key=attrgetter("start", "end", "span_id"))
    return SpanTree(spans=tuple(spans), edges=tuple(edges), undelivered=len(sent) - len(edges))
