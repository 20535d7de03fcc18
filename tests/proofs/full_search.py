"""What the explorer's cells pin, and the search it is checked against.

:func:`survey` runs :class:`repro.proofs.exhaust.Exploration` over one cell
(a build: :func:`contending` for Figure 1(a)'s, :func:`figure5` for Figure
5's, :func:`twice` and :func:`read_after_write` for two WRITEs per writer)
and sums up every finished trace.  :func:`full_search_classes` is the
plain depth-first search with no reduction: every schedule of the same
system, each run to the end.  Under a sound independence relation the
explorer reaches every (values read, S verdict) class the full search
reaches.  The mutants at the end are what the cells must kill, each
monkeypatched in over one method.
"""

from __future__ import annotations

from functools import partial
from typing import FrozenSet, List, NamedTuple, Set, Tuple

from repro.ioa.network import SystemSetting
from repro.ioa.scheduler import Scheduler
from repro.proofs.exhaust import Build, Exploration, contending_system, figure5_system
from repro.protocols.base import SystemHandle
from repro.protocols.registry import get_protocol
from repro.protocols.replication import write_value_round
from repro.txn.objects import Key
from repro.txn.transactions import WRITE_OK


def contending(protocol: str, readers: int, writers: int, c2c: bool) -> Build:
    """Figure 1(a)'s system at a two-server setting (the scope of its cells)."""
    return partial(contending_system, protocol, SystemSetting(f"{readers}R/{writers}W/2S", readers, writers, 2, c2c))


def figure5(protocol: str) -> Build:
    """Figure 5's system under ``protocol``."""
    return partial(figure5_system, protocol)


def twice(protocol: str, readers: int, writers: int, reads: int = 1) -> Build:
    """Figure 1(a)'s system at two servers without client-to-client channels,
    with two WRITEs queued at each writer (of every object, ``<writer>.1``
    then ``<writer>.2``) and ``reads`` READs at each reader."""
    return partial(_twice, protocol, readers, writers, reads)


def _twice(
    protocol: str, readers: int, writers: int, reads: int, scheduler: Scheduler, after_first: bool = False
) -> SystemHandle:
    handle = get_protocol(protocol).build(
        num_readers=readers, num_writers=writers, num_objects=2, c2c=False, scheduler=scheduler
    )
    first = []
    for writer in handle.writers:
        first.append(handle.submit_write(dict.fromkeys(handle.objects, f"{writer}.1"), writer=writer))
        handle.submit_write(dict.fromkeys(handle.objects, f"{writer}.2"), writer=writer)
    for reader in handle.readers:
        for _ in range(reads):
            handle.submit_read(handle.objects, reader=reader, after=first if after_first else ())
    return handle


def read_after_write(protocol: str) -> Build:
    """1R/1W with the writer's two WRITEs and a READ queued after the first
    responds: every trace orders W1 before the READ by real time, which the
    explorer's relation does not otherwise see (no message links them)."""
    return partial(_twice, protocol, 1, 1, 1, after_first=True)


class Survey(NamedTuple):
    """Every finished trace of one cell, summed up."""

    finished: int
    pruned: int
    #: traces whose history is not strictly serializable
    violating: int
    #: the ``SNOW``-style property strings the traces show
    properties: FrozenSet[str]
    #: the most rounds any READ of a trace took, over the traces
    rounds: FrozenSet[int]
    #: the most versions any reply of a trace carried, over the traces
    versions: FrozenSet[int]
    #: traces whose tags break Lemma 20 (traces without tags are not asked)
    lemma20_failures: int


def survey(build: Build) -> Survey:
    search = Exploration(build)
    violating = lemma20_failures = 0
    properties: Set[str] = set()
    rounds: Set[int] = set()
    versions: Set[int] = set()
    for handle in search:
        report = handle.snow_report()
        violating += not report.satisfies_s
        properties.add(report.property_string())
        rounds.add(report.max_rounds())
        versions.add(report.max_versions())
        lemma20_failures += bool(handle.tags()) and not handle.lemma20().ok
    assert search.complete
    return Survey(
        search.finished, search.pruned, violating, frozenset(properties), frozenset(rounds),
        frozenset(versions), lemma20_failures,
    )


def run_class(handle) -> Tuple[tuple, bool]:
    """(values read, S verdict) of one finished run: what a reduction may not lose."""
    reads = tuple(
        sorted((entry.txn_id, tuple(sorted(entry.result.as_dict.items()))) for entry in handle.history().reads())
    )
    return reads, handle.serializability().ok


def explorer_classes(build: Build) -> Set[Tuple[tuple, bool]]:
    return {run_class(handle) for handle in Exploration(build)}


class _Replay(Scheduler):
    """Takes ``choices[depth][0]``-th ripe event (canonical order), opening a
    choice point ``[0, how many]`` at each depth past the recorded ones."""

    def __init__(self, choices: List[List[int]]) -> None:
        self.choices = choices
        self.depth = 0

    def pick(self, frontier, kernel):
        events = frontier.events(kernel.now)
        if self.depth == len(self.choices):
            self.choices.append([0, len(events)])
        index = self.choices[self.depth][0]
        self.depth += 1
        return events[index]


def full_search_classes(build: Build) -> Tuple[int, Set[Tuple[tuple, bool]]]:
    """Every schedule of the system ``build`` makes, each run to the end: how
    many runs, and the classes they reach."""
    choices: List[List[int]] = []
    classes: Set[Tuple[tuple, bool]] = set()
    runs = 0
    while True:
        handle = build(_Replay(choices))
        handle.run_to_completion()
        runs += 1
        classes.add(run_class(handle))
        while choices and choices[-1][0] + 1 == choices[-1][1]:
            choices.pop()
        if not choices:
            return runs, classes
        choices[-1][0] += 1


# ----------------------------------------------------------------------
# Mutants
# ----------------------------------------------------------------------
def write_without_info(self, txn, ctx):
    """Algorithm A's writer without its info-reader phase (no c2c message)."""
    self.z += 1
    yield from write_value_round(txn.txn_id, tuple(txn.updates), Key(self.z, self.name), self.view, ctx)
    return WRITE_OK


def tag_one_too_high(self, read_set):
    """The coordinator's read tag compares one past the newest entry read."""
    keys, tag = {}, 1
    for object_id in read_set:
        index = self.latest_index_for(object_id)
        tag = max(tag, index + 1)
        keys[object_id] = self.entries[index - 1][0]
    return tag, keys


def one_version_too_few(self, message, ctx):
    """Algorithm C's server leaves its newest version out of a ``Vals`` reply."""
    versions = self.store.pairs()[:-1] or self.store.pairs()
    payload = {"txn": message.get("txn"), "object": self.object_id, "versions": versions, "num_versions": len(versions)}
    self.extend_read_vals_payload(message, payload)
    ctx.send(message.src, "read-vals-reply", payload, phase="read-values-and-tags")


def newest_per_writer(self, message, ctx):
    """Algorithm C's server shipping one version per writer: each writer's
    newest, plus the initial version (what ``since`` = 1 names)."""
    pairs = self.store.pairs()
    newest = {key.writer: (key, value) for key, value in pairs}
    versions = tuple(pair for pair in pairs if pair is pairs[0] or newest[pair[0].writer] is pair)
    payload = {"txn": message.get("txn"), "object": self.object_id, "versions": versions, "num_versions": len(versions)}
    self.extend_read_vals_payload(message, payload)
    ctx.send(message.src, "read-vals-reply", payload, phase="read-values-and-tags")
