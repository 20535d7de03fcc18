"""The seed's payload freeze and frozen-dataclass records, kept as oracles.

PR 16 replaced ``repro.ioa.actions._freeze_payload`` (sort, then a per-item
``isinstance`` loop on every call) by one C-level sort with the loop behind a
type probe, and the per-event records (frozen dataclasses, later
``PendingInvocation`` too, the span tree's ``Span`` and ``CausalEdge``, and
the kernel's ``PendingTimeout``) by slotted immutable classes.
``tests/ioa/test_record_contract.py`` pins the new code to these definitions;
they go when the equivalence has held for a round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional, Tuple


def reference_freeze_payload(payload: Mapping[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    if not payload:
        return ()
    items = sorted(payload.items())
    for i, (key, value) in enumerate(items):
        if isinstance(value, (list, set, dict)):
            if isinstance(value, list):
                value = tuple(value)
            elif isinstance(value, set):
                value = frozenset(value)
            else:
                value = tuple(sorted(value.items()))
            items[i] = (key, value)
    return tuple(items)


@dataclass(frozen=True)
class Message:
    msg_type: str
    src: str
    dst: str
    items: Tuple[Tuple[str, Any], ...] = ()
    msg_id: int = 0


@dataclass(frozen=True)
class Action:
    kind: Any
    actor: str
    message: Optional[Any] = None
    info: Tuple[Tuple[str, Any], ...] = ()
    index: int = -1


@dataclass(frozen=True)
class PendingDelivery:
    message: Any
    enqueued_at: int
    ready_at: int = 0


@dataclass(frozen=True)
class PendingInvocation:
    client: str
    txn: Any
    txn_id: Any
    enqueued_at: int


@dataclass(frozen=True)
class PendingTimeout:
    owner: str
    info: Mapping[str, Any]
    enqueued_at: int
    ready_at: int


@dataclass(frozen=True)
class Span:
    span_id: str
    name: str
    kind: str
    actor: str
    start: int
    end: int
    parent: Optional[str] = None
    attrs: Tuple[Tuple[str, Any], ...] = ()


@dataclass(frozen=True)
class CausalEdge:
    src: str
    dst: str
    send_index: int
    recv_index: int
    msg_type: str
