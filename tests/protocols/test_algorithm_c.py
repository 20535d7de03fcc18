"""Tests for algorithm C (SNW + one-round, up to |W| versions, MWMR, no C2C)."""

from __future__ import annotations

import sys

import pytest

from repro.ioa import FIFOScheduler, RandomScheduler
from repro.ioa.scheduler import AdversarialScheduler, DelayRule, holds_message, until_transaction_done
from repro.ioa.errors import SimulationError
from repro.protocols import AlgorithmC, algorithm_c
from repro.protocols.coordinated import CoordinatedServer
from repro.protocols.replication import quorum_round
from repro.txn.objects import Key
from tests.conftest import build_system, run_simple_workload


class TestConfiguration:
    def test_supports_mwmr_without_c2c(self):
        handle = AlgorithmC().build(num_readers=2, num_writers=3, c2c=False)
        assert not handle.simulation.topology.allow_client_to_client

    def test_metadata_declares_unbounded_versions(self):
        protocol = AlgorithmC()
        assert protocol.claimed_read_rounds == 1
        assert protocol.claimed_versions is None
        assert "|W|" in protocol.describe()


class TestFunctionalBehaviour:
    def test_read_after_write(self):
        handle = build_system("algorithm-c", num_readers=1, num_writers=1)
        w = handle.submit_write({"ox": "a", "oy": "b"})
        r = handle.submit_read(after=[w])
        handle.run_to_completion()
        assert handle.simulation.transaction_record(r).result.as_dict == {"ox": "a", "oy": "b"}

    def test_initial_read(self):
        handle = build_system("algorithm-c", num_readers=1, num_writers=1)
        r = handle.submit_read()
        handle.run_to_completion()
        assert handle.simulation.transaction_record(r).result.as_dict == {"ox": 0, "oy": 0}

    def test_reader_picks_coordinator_named_version_not_just_latest(self):
        """Even when servers hold many versions the read returns the coordinator's choice."""
        handle = build_system("algorithm-c", num_readers=1, num_writers=2, scheduler=RandomScheduler(seed=6))
        read_ids, _ = run_simple_workload(handle, rounds=3)
        assert handle.serializability().ok

    def test_coordinator_request_combined_when_it_holds_a_read_object(self):
        handle = build_system("algorithm-c", num_readers=1, num_writers=1)
        r = handle.submit_read(objects=list(handle.objects))
        handle.run_to_completion()
        from repro.ioa import ActionKind

        coordinator = handle.servers[0]
        requests_to_coordinator = [
            a.message
            for a in handle.trace()
            if a.kind == ActionKind.SEND
            and a.message is not None
            and a.message.dst == coordinator
            and a.message.get("txn") == r
            and a.message.src in handle.readers
        ]
        # One combined message, not a separate get-tag-arr plus read-vals.
        assert len(requests_to_coordinator) == 1
        assert requests_to_coordinator[0].get("want_tags") is True

    def test_separate_tag_request_when_coordinator_not_read(self):
        handle = build_system("algorithm-c", num_readers=1, num_writers=1, num_objects=3)
        r = handle.submit_read(objects=["o2", "o3"])
        handle.run_to_completion()
        from repro.ioa import ActionKind

        coordinator = handle.servers[0]
        tag_requests = [
            a.message
            for a in handle.trace()
            if a.kind == ActionKind.SEND
            and a.message is not None
            and a.message.msg_type == "get-tag-arr"
            and a.message.get("txn") == r
        ]
        assert len(tag_requests) == 1
        assert tag_requests[0].dst == coordinator


class TestBoundedLatencyProperties:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_snw_holds(self, seed):
        scheduler = FIFOScheduler() if seed == 0 else RandomScheduler(seed=seed)
        handle = build_system(
            "algorithm-c", num_readers=2, num_writers=3, num_objects=3, scheduler=scheduler, seed=seed
        )
        run_simple_workload(handle, rounds=3)
        report = handle.snow_report()
        assert report.satisfies_snw, report.describe()

    def test_one_round_under_fifo(self):
        handle = build_system("algorithm-c", num_readers=2, num_writers=2, scheduler=FIFOScheduler())
        read_ids, _ = run_simple_workload(handle, rounds=3)
        records = {r.txn_id: r for r in handle.transaction_records()}
        assert all(records[read_id].rounds == 1 for read_id in read_ids)

    def test_replies_carry_multiple_versions_under_contention(self):
        handle = build_system("algorithm-c", num_readers=1, num_writers=3, scheduler=FIFOScheduler())
        run_simple_workload(handle, rounds=3)
        report = handle.snow_report()
        assert report.max_versions() > 1
        assert not report.one_version

    def test_lemma20_holds(self):
        handle = build_system("algorithm-c", num_readers=2, num_writers=2, scheduler=RandomScheduler(seed=17))
        run_simple_workload(handle, rounds=2)
        assert handle.lemma20().ok

    @pytest.mark.parametrize("seed", range(5, 11))
    def test_strict_serializability_under_adversarial_fuzzing(self, seed):
        handle = build_system(
            "algorithm-c", num_readers=2, num_writers=3, num_objects=3, scheduler=RandomScheduler(seed=seed)
        )
        run_simple_workload(handle, rounds=3)
        assert handle.serializability().ok

    def test_one_round_under_random_schedules(self):
        """Across many random schedules every READ takes exactly one round."""
        for seed in range(1, 20):
            handle = build_system(
                "algorithm-c", num_readers=2, num_writers=3, scheduler=RandomScheduler(seed=seed), seed=seed
            )
            read_ids, _ = run_simple_workload(handle, rounds=2)
            records = {r.txn_id: r for r in handle.transaction_records()}
            assert [records[read_id].rounds for read_id in read_ids] == [1] * len(read_ids)


def calls_per_read(writes: int, reads: int = 5) -> float:
    """Python-level ``call`` events (generated ``<string>`` methods and
    generator resumptions included) per READ of a 1R/1W FIFO cell once the
    servers hold ``writes`` versions of each object."""
    handle = build_system("algorithm-c", num_readers=1, num_writers=1, scheduler=FIFOScheduler())
    last = ()
    for i in range(writes):
        last = (handle.submit_write({"ox": i, "oy": -i}, after=last),)
    handle.run_to_completion()
    for _ in range(reads):
        last = (handle.submit_read(after=last),)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        handle.run()
    finally:
        sys.setprofile(None)
    assert not handle.simulation.incomplete_transactions()
    record = handle.simulation.transaction_record(last[0])
    assert record.result.as_dict == {"ox": writes - 1, "oy": 1 - writes}
    assert record.annotations["versions_fetched"] == writes + 1
    return calls / reads


def test_read_cost_does_not_grow_with_the_history():
    """A READ looks up the named version newest-first in the shipped ``Vals``
    instead of keying every shipped version into a dict, so it costs the
    same at 50 and at 400 versions per object."""
    short, long = calls_per_read(50), calls_per_read(400)
    assert long <= short * 1.05, (short, long)


def old_merge(replies, read_set):
    """The reader as it was: every snapshot of an object merged into one
    dict; the objects whose key today's tag array names are absent from the
    merge are ``missing``."""
    keys, merged = {}, {}
    for reply in replies:
        if reply.get("prefixes") is not None:
            keys = {o: pairs[-1][1] for o, pairs in reply.get("prefixes")[2]}
        if reply.msg_type == "read-vals-reply":
            merged.setdefault(reply.get("object"), {}).update(reply.get("versions", ()))
    values = {o: merged[o][keys[o]] for o in read_set if keys[o] in merged.get(o, {})}
    missing = [o for o in read_set if o not in values]
    return values, missing, max((len(versions) for versions in merged.values()), default=1)


class TestLaggingReplica:
    """C at rf=3 under majority quorums with replicas of ``oy`` that crashed
    with amnesia and got back all but the newest version (the first of them
    also holds a WRITE no coordinator named yet, so no snapshot's key set
    contains another's): the READ returns the named version,
    ``versions_fetched`` is the union of the answering replicas' key sets,
    and a second round, fetching the named key, runs only when no snapshot
    holds it."""

    def run(self, monkeypatch, seed: int, lagging: int):
        captured = []

        def recording_round(*args, **kwargs):
            replies, attempt = yield from quorum_round(*args, **kwargs)
            captured.append(replies)
            return replies, attempt

        monkeypatch.setattr(algorithm_c, "quorum_round", recording_round)
        handle = build_system(
            "algorithm-c",
            scheduler=RandomScheduler(seed=seed),
            seed=seed,
            replication_factor=3,
            quorum="majority",
        )
        last = ()
        for i in range(1, 4):
            last = (handle.submit_write({"ox": f"x{i}", "oy": f"y{i}"}, after=last),)
        handle.run_to_completion()
        group = handle.placement.group("oy")
        for name in group[:lagging]:
            server = handle.simulation.automaton(name)
            full = server.store.pairs()
            server.forget()  # ``oy``'s replicas hold no List
            for key, value in full[1:-1]:
                server.store.put(key, value)
        handle.simulation.automaton(group[0]).store.put(Key(9, "w9"), "in flight")
        read = handle.submit_read()
        handle.run_to_completion()
        (replies,) = captured[-1:]
        return handle.simulation.transaction_record(read), old_merge(replies, ("ox", "oy"))

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_one_lagging_replica(self, monkeypatch, seed):
        record, (values, missing, versions) = self.run(monkeypatch, seed, lagging=1)
        assert record.result.as_dict == {"ox": "x3", "oy": "y3"} == values
        assert missing == [] and record.rounds == 1
        assert record.annotations["versions_fetched"] == versions

    def test_two_lagging_replicas(self, monkeypatch):
        fallbacks = set()
        for seed in range(1, 13):
            record, (values, missing, versions) = self.run(monkeypatch, seed, lagging=2)
            assert record.result.as_dict == {"ox": "x3", "oy": "y3"}
            assert {**values, "oy": "y3"} == {"ox": "x3", "oy": "y3"}
            assert record.rounds == 1 + len(missing) and record.annotations["tag"] == 4
            assert record.annotations["versions_fetched"] == versions
            fallbacks.add(len(missing))
        assert fallbacks == {0, 1}  # both paths ran


def test_amnesia_does_not_make_a_read_miss_a_preceding_write():
    """rf=3 majority: W1 reached ``sy`` and ``sy.2`` but not yet ``sy.3``,
    then ``sy`` forgot its store.  R1's read quorum for ``oy`` is ``{sy,
    sy.3}``, neither holding W1's version; walking back to the initial prefix
    would miss a WRITE that responded before R1 began.  The forgetful reply
    sends R1 to a second round that fetches W1's key and repairs both."""
    late = lambda m: m.get("txn") == "W1"  # noqa: E731
    scheduler = AdversarialScheduler(
        [
            DelayRule("w1-late-at-sy.3", holds_message(dst="sy.3", predicate=late), until_transaction_done("R1")),
            DelayRule("r1-vals-late-at-sy.2", holds_message("read-vals", dst="sy.2"), until_transaction_done("R1")),
        ]
    )
    handle = build_system(
        "algorithm-c", num_readers=1, num_writers=1, scheduler=scheduler, replication_factor=3, quorum="majority"
    )
    w1 = handle.submit_write({"ox": "v1", "oy": "v1"}, txn_id="W1")
    while not handle.simulation.transaction_record(w1).complete:
        handle.simulation.step()
    handle.simulation.automaton("sy").forget()
    handle.submit_read(("ox", "oy"), txn_id="R1", after=[w1])
    handle.run_to_completion()
    record = handle.simulation.transaction_record("R1")
    assert record.result.as_dict == {"ox": "v1", "oy": "v1"}
    assert record.rounds == 2
    assert handle.serializability().ok
    for name in ("sy", "sy.3"):
        assert handle.simulation.automaton(name).store.get(Key(1, "w1")).value == "v1"


def test_a_read_whose_vals_miss_the_prefix_it_last_saw_fails_loudly(monkeypatch):
    """Prefix ``since`` is in every read quorum unless a server lost its
    versions; a READ that finds it missing raises instead of reading older."""

    def no_versions(self, message, ctx):
        payload = {"txn": message.get("txn"), "object": self.object_id, "versions": (), "num_versions": 0}
        self.extend_read_vals_payload(message, payload)
        ctx.send(message.src, "read-vals-reply", payload, phase="read-values-and-tags")

    monkeypatch.setattr(CoordinatedServer, "handle_read_vals", no_versions)
    handle = build_system("algorithm-c", num_readers=1, num_writers=1)
    handle.submit_read()
    with pytest.raises(SimulationError, match=r"R1's Vals miss List prefix 1"):
        handle.run_to_completion()


def test_a_read_after_the_coordinator_forgot_its_list_still_completes():
    """Amnesia resets the coordinator's ``List`` to its initial entry, shorter
    than the length the reader saw last: the reply starts from the reset
    List instead of indexing past its end."""
    handle = build_system("algorithm-c", num_readers=1, num_writers=1)
    first = handle.submit_read(after=[handle.submit_write({"ox": "a", "oy": "b"})])
    handle.run_to_completion()
    handle.simulation.automaton(handle.servers[0]).forget()
    second = handle.submit_read(after=[first])
    handle.run_to_completion()
    record = handle.simulation.transaction_record(second)
    assert record.rounds == 1 and record.annotations["tag"] == 1
