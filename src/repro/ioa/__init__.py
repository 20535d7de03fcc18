"""I/O-automata style deterministic simulation substrate.

This subpackage provides everything needed to *execute* the paper's model:
messages and actions, traces and fragments, automata (reactive servers and
generator-session clients), a communication topology with the client-to-client
switch, schedulers (including a rule-driven adversary) and the simulation
kernel itself.
"""

from .actions import (
    Action,
    ActionKind,
    Message,
    actions_at,
    internal_action,
    invoke_action,
    recv_action,
    respond_action,
    send_action,
)
from .automaton import (
    Automaton,
    Await,
    ClientAutomaton,
    Context,
    ReaderAutomaton,
    Send,
    ServerAutomaton,
    SessionState,
    WriterAutomaton,
    expect_type,
    expect_types,
)
from .frontier import EventFrontier
from .errors import (
    CommunicationNotAllowedError,
    DuplicateProcessError,
    LivenessError,
    SchedulerError,
    SessionError,
    SimulationError,
    TraceError,
    UnknownProcessError,
    WellFormednessError,
)
from .network import FaultPlane, SystemSetting, Topology, standard_settings
from .scheduler import (
    AdversarialScheduler,
    DelayRule,
    FIFOScheduler,
    LIFOScheduler,
    PendingDelivery,
    PendingInvocation,
    PendingTimeout,
    PriorityScheduler,
    RandomScheduler,
    Scheduler,
    holds_message,
    until_message_delivered,
    until_transaction_done,
)
from .simulation import Simulation, TransactionRecord
from .trace import Fragment, Trace, TraceMode, concat_fragments, reindex

__all__ = [
    "Action",
    "ActionKind",
    "Message",
    "actions_at",
    "internal_action",
    "invoke_action",
    "recv_action",
    "respond_action",
    "send_action",
    "Automaton",
    "Await",
    "ClientAutomaton",
    "Context",
    "ReaderAutomaton",
    "Send",
    "EventFrontier",
    "ServerAutomaton",
    "SessionState",
    "WriterAutomaton",
    "expect_type",
    "expect_types",
    "CommunicationNotAllowedError",
    "DuplicateProcessError",
    "LivenessError",
    "SchedulerError",
    "SessionError",
    "SimulationError",
    "TraceError",
    "UnknownProcessError",
    "WellFormednessError",
    "FaultPlane",
    "SystemSetting",
    "Topology",
    "standard_settings",
    "AdversarialScheduler",
    "DelayRule",
    "FIFOScheduler",
    "LIFOScheduler",
    "PendingDelivery",
    "PendingInvocation",
    "PendingTimeout",
    "PriorityScheduler",
    "RandomScheduler",
    "Scheduler",
    "holds_message",
    "until_message_delivered",
    "until_transaction_done",
    "Simulation",
    "TransactionRecord",
    "Fragment",
    "Trace",
    "TraceMode",
    "concat_fragments",
    "reindex",
]
