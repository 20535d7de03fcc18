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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..ioa.actions import Action, ActionKind
from ..ioa.simulation import Simulation


@dataclass(frozen=True)
class Span:
    """One interval of trace indices attributed to a single activity."""

    span_id: str
    name: str
    kind: str  # "txn" | "round" | "consensus" | "election" | "reconfig"
    actor: str
    start: int  # trace index of the first action of the span
    end: int  # trace index of the last action (== start for point spans)
    parent: Optional[str] = None
    attrs: Tuple[Tuple[str, Any], ...] = ()

    @property
    def duration(self) -> int:
        return self.end - self.start

    def get(self, key: str, default: Any = None) -> Any:
        return dict(self.attrs).get(key, default)

    def describe(self) -> str:
        extra = ", ".join(f"{k}={v}" for k, v in self.attrs)
        suffix = f" [{extra}]" if extra else ""
        return f"[{self.start:5d} → {self.end:5d}] {self.kind}:{self.name} @ {self.actor}{suffix}"


@dataclass(frozen=True)
class CausalEdge:
    """One delivered message: the happens-before edge send → recv."""

    src: str
    dst: str
    send_index: int
    recv_index: int
    msg_type: str


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
        span_rows = tuple(
            (s.span_id, s.name, s.kind, s.actor, s.start, s.end, s.parent, s.attrs)
            for s in self.spans
        )
        edge_rows = tuple(
            (e.src, e.dst, e.send_index, e.recv_index, e.msg_type) for e in self.edges
        )
        return (span_rows, edge_rows, self.undelivered)

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


def _round_attrs(send: Action) -> Tuple[Tuple[str, Any], ...]:
    """Epoch/attempt stamps the reconfiguration layer puts on round sends."""
    attrs: List[Tuple[str, Any]] = []
    message = send.message
    if message is None:
        return ()
    for key in ("epoch", "attempt"):
        value = message.get(key)
        if value is not None:
            attrs.append((key, value))
    return tuple(attrs)


def _txn_round_spans(
    txn_span: Span,
    sends: List[Action],
    recvs: List[Action],
) -> List[Span]:
    """Child round spans of one transaction.

    A round starts at a client send whose ``(phase, attempt)`` differs from
    the previous send's and extends to the last client receive before the
    next round's first send (the replies a quorum round collected).  This is
    exactly the shape of the session protocol: a burst of sends stamped with
    one phase, then an Await collecting the replies.
    """
    groups: List[Tuple[Tuple[Any, Any], List[Action]]] = []
    for send in sends:
        phase = send.get("phase") or (send.message.msg_type if send.message else "send")
        attempt = send.message.get("attempt") if send.message is not None else None
        key = (phase, attempt)
        if groups and groups[-1][0] == key:
            groups[-1][1].append(send)
        else:
            groups.append((key, [send]))
    spans: List[Span] = []
    for number, ((phase, _attempt), group_sends) in enumerate(groups, start=1):
        start = group_sends[0].index
        window_end = (
            groups[number][1][0].index if number < len(groups) else txn_span.end + 1
        )
        replies = [r.index for r in recvs if start < r.index < window_end]
        end = max(replies) if replies else group_sends[-1].index
        spans.append(
            Span(
                span_id=f"{txn_span.span_id}/round{number}",
                name=str(phase),
                kind="round",
                actor=txn_span.actor,
                start=start,
                end=end,
                parent=txn_span.span_id,
                attrs=(("sends", len(group_sends)), ("replies", len(replies)))
                + _round_attrs(group_sends[0]),
            )
        )
    return spans


def derive_spans(simulation: Simulation) -> SpanTree:
    """Derive the causal span tree of a (finished) simulation."""
    trace = simulation.trace
    records = simulation.transaction_records()

    # One linear pass collects everything the builders below need.
    send_index: Dict[int, Action] = {}
    recv_index: Dict[int, Action] = {}
    client_sends: Dict[str, List[Action]] = {}
    client_recvs: Dict[str, List[Action]] = {}
    consensus_actions: List[Action] = []
    reconfig_actions: List[Action] = []
    clients = {record.client for record in records}
    for action in trace:
        message = action.message
        if action.kind is ActionKind.SEND and message is not None:
            send_index[message.msg_id] = action
            if action.actor in clients:
                txn = message.get("txn")
                if txn is not None:
                    client_sends.setdefault(str(txn), []).append(action)
        elif action.kind is ActionKind.RECV and message is not None:
            recv_index[message.msg_id] = action
            if action.actor in clients:
                txn = message.get("txn")
                if txn is not None:
                    client_recvs.setdefault(str(txn), []).append(action)
        elif action.kind is ActionKind.INTERNAL and action.info:
            info = dict(action.info)
            if "consensus" in info:
                consensus_actions.append(action)
            elif "reconfig" in info:
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
        end = record.respond_index if record.respond_index is not None else last_index
        kind = getattr(record.txn, "kind", "txn")
        txn_span = Span(
            span_id=f"txn:{txn_id}",
            name=f"{kind} {txn_id}",
            kind="txn",
            actor=record.client,
            start=record.invoke_index,
            end=end,
            attrs=(
                ("complete", record.complete),
                ("rounds", record.rounds),
                ("messages_sent", record.messages_sent),
            ),
        )
        txn_span_ids[txn_id] = txn_span.span_id
        spans.append(txn_span)
        spans.extend(
            _txn_round_spans(
                txn_span,
                client_sends.get(txn_id, []),
                client_recvs.get(txn_id, []),
            )
        )

    # -- consensus spans: applied entries and elections ------------------
    candidacies: Dict[Tuple[str, Any], Action] = {}
    for action in consensus_actions:
        info = dict(action.info)
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
        info = dict(action.info)
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
        info = dict(action.info)
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

    # -- causal edges: one per delivered message --------------------------
    edges: List[CausalEdge] = []
    for msg_id, send in send_index.items():
        recv = recv_index.get(msg_id)
        if recv is None or send.message is None:
            continue
        edges.append(
            CausalEdge(
                src=send.message.src,
                dst=send.message.dst,
                send_index=send.index,
                recv_index=recv.index,
                msg_type=send.message.msg_type,
            )
        )
    edges.sort(key=lambda e: (e.send_index, e.recv_index))

    spans.sort(key=lambda s: (s.start, s.end, s.span_id))
    return SpanTree(
        spans=tuple(spans),
        edges=tuple(edges),
        undelivered=len(send_index) - len(edges),
    )
