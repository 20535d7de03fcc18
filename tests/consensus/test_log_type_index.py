"""``ConsensusLog.newest`` answers from its per-type index what a scan answers.

The coordinator asks for the newest configuration entry on every non-empty
merge and snapshot install.  The log keeps the indices of each entry type so
that question is a bisect, not a backward scan of a log that, without
compaction, grows for the whole run.  Appends, conflicting merges (which
truncate a suffix), compactions, snapshot installs and a reload from stable
storage all move that index; the property below drives random sequences of
them and compares ``newest`` with a scan of the retained entries at every
index.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus import ConsensusLog, LogEntry

TYPES = ("cns-config", "noop", "update-coor")


def scan(log: ConsensusLog, msg_type: str, through: int):
    """The backward scan ``newest`` used to be."""
    base = log.snapshot_index
    for index in range(min(through, log.last_index), base, -1):
        entry = log.entry(index)
        if entry.msg_type == msg_type:
            return index, entry
    return 0, None


def assert_index_matches_scan(log: ConsensusLog) -> None:
    for msg_type in TYPES:
        for through in range(0, log.last_index + 1):
            assert log.newest(msg_type, through) == scan(log, msg_type, through), (msg_type, through)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_newest_equals_a_backward_scan(data):
    log = ConsensusLog()
    term, serial = 1, 0

    def new_entry(msg_type):
        nonlocal serial
        serial += 1
        return LogEntry(term=term, request_id=f"r{serial}", msg_type=msg_type)

    for _ in range(data.draw(st.integers(1, 30))):
        op = data.draw(st.sampled_from(("append", "append", "merge", "compact", "snapshot", "reload")))
        if op == "append":
            log.append(new_entry(data.draw(st.sampled_from(TYPES))))
        elif op == "merge":
            # a newer leader's entries after a prefix this log matches: the
            # first one conflicts (higher term) and truncates the suffix
            low = max(log.commit_index, log.snapshot_index)
            prev = data.draw(st.integers(low, log.last_index))
            term += 1
            types = data.draw(st.lists(st.sampled_from(TYPES), min_size=1, max_size=4))
            log.merge(prev, tuple(new_entry(t) for t in types))
        elif op == "compact" and log.last_index > log.snapshot_index:
            through = data.draw(st.integers(log.snapshot_index + 1, log.last_index))
            log.advance_commit(through)
            log.take_unapplied()
            log.compact({"index": through, "term": log.term_at(through)})
        elif op == "snapshot":
            index = data.draw(st.integers(log.snapshot_index + 1, log.last_index + 3))
            keeps_suffix = index <= log.last_index and data.draw(st.booleans())
            snapshot_term = log.term_at(index) if keeps_suffix else term + 1
            log.install_snapshot({"index": index, "term": snapshot_term})
            term = max(term, snapshot_term)
        elif op == "reload":
            suffix = tuple((log.snapshot_index + 1 + i, e) for i, e in enumerate(log.entries))
            log.restore(log.snapshot_index, log.snapshot_term, suffix, log.commit_index)
        assert_index_matches_scan(log)


def test_a_config_truncated_by_a_merge_is_forgotten():
    log = ConsensusLog()
    for msg_type in ("update-coor", "cns-config", "update-coor"):
        log.append(LogEntry(term=1, request_id=f"{msg_type}@{log.last_index}", msg_type=msg_type))
    assert log.newest("cns-config", 3)[0] == 2
    log.merge(1, (LogEntry(term=2, request_id="w", msg_type="update-coor"),))
    assert log.newest("cns-config", log.last_index) == (0, None)
