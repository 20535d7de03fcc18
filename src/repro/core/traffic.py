"""Per-transaction message traffic of a trace, indexed in one pass.

The N and O checkers of :mod:`repro.core.snow` (and ``collect_metrics``) ask
the same three questions about every READ transaction: which servers took
input between receiving its request and answering it, how many requests the
reader sent to each server, and how many versions the replies carried.  Each
answer depends only on the ``SEND``/``RECV`` records tagged with the
transaction's id, so one walk over the trace files every tagged record under
its ``(endpoint, txn)`` key and every later question is a dictionary lookup.

The index takes no parameters — which automata count as *servers* is the
caller's business and is applied at lookup time — so a single cached instance
per trace (:meth:`Trace.derived <repro.ioa.trace.Trace.derived>`) serves every
caller.  Building it is O(|trace|); a lookup is O(records of that
transaction).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Tuple

from ..ioa.actions import ActionKind
from ..ioa.trace import Trace


class TrafficIndex:
    """What each transaction's messages did, keyed for lookup.

    The non-blocking test needs, for a request received at a server, the
    server's next reply and whether any input arrived in between.  Both follow
    from one number per record: the count of ``RECV`` actions at that automaton
    up to and including the record (its *input clock*).  A reply sent at input
    clock ``c`` comes after a request received at clock ``k`` iff ``c >= k``,
    and ``c - k`` inputs separate the two — so neither trace positions nor the
    projection itself have to be kept.
    """

    def __init__(self, trace: Trace) -> None:
        #: ``(server, client, txn)`` → input clocks at which ``server``
        #: got a non-repair message of ``txn`` from ``client``
        self.requests: Dict[Tuple[str, str, Any], List[int]] = {}
        #: ``(server, client, txn)`` → input clocks (non-decreasing) at which
        #: ``server`` sent a message of ``txn`` to ``client``
        self.replies: Dict[Tuple[str, str, Any], List[int]] = {}
        #: ``(src, txn)`` → ``dst`` → non-repair messages of ``txn`` sent
        self.sent: Dict[Tuple[str, Any], Dict[str, int]] = {}
        #: ``(dst, txn)`` → ``src`` → ``[messages of txn sent, max num_versions]``
        self.answered: Dict[Tuple[str, Any], Dict[str, List[int]]] = {}

        send, recv = ActionKind.SEND, ActionKind.RECV
        input_clock: Dict[str, int] = {}
        for action in trace:
            kind = action.kind
            if kind is recv:
                actor = action.actor
                clock = input_clock[actor] = input_clock.get(actor, 0) + 1
            elif kind is not send:
                continue
            message = action.message
            if message is None:
                continue
            txn = message.get("txn")
            if txn is None:
                continue
            repair = message.get("repair")
            if kind is recv:
                if not repair:
                    self.requests.setdefault((actor, message.src, txn), []).append(clock)
                continue
            actor = action.actor
            self.replies.setdefault((actor, message.dst, txn), []).append(input_clock.get(actor, 0))
            if not repair:
                per_dst = self.sent.setdefault((message.src, txn), {})
                per_dst[message.dst] = per_dst.get(message.dst, 0) + 1
            versions = message.get("num_versions", 1)
            per_src = self.answered.setdefault((message.dst, txn), {})
            stats = per_src.get(message.src)
            if stats is None:
                per_src[message.src] = [1, max(0, int(versions))]
            else:
                stats[0] += 1
                stats[1] = max(stats[1], int(versions))

    def blocked(self, server: str, client: str, txn: Any) -> bool:
        """Did ``server`` leave a request of ``txn`` from ``client`` unanswered,
        or take input between receiving it and its next reply to ``client``?"""
        requests = self.requests.get((server, client, txn))
        if not requests:
            return False
        replies = self.replies.get((server, client, txn), ())
        for clock in requests:
            position = bisect_left(replies, clock)
            if position == len(replies) or replies[position] != clock:
                return True
        return False


def traffic_index(trace: Trace) -> TrafficIndex:
    """The trace's :class:`TrafficIndex`, built on first request and cached on
    the trace until the next append."""
    return trace.derived(TrafficIndex)
