"""Adversarial-schedule integration tests.

The impossibility proofs give the network adversary a specific power: deliver
a READ's requests on either side of a concurrent WRITE's installs.  These
tests wield that power explicitly (via DelayRule adversaries) against every
protocol and check that exactly the protocols the paper says are safe remain
safe — and that the ones that are not, fail in exactly the predicted way.
"""

from __future__ import annotations

import pytest

from repro.ioa import (
    AdversarialScheduler,
    DelayRule,
    holds_message,
    until_message_delivered,
    until_transaction_done,
)
from repro.protocols import get_protocol


def build_with_fracture_adversary(protocol_name: str):
    """One writer, one reader, two shards, and the fracture adversary of §3.

    The adversary delays the READ's request to ``sx`` until a write-install has
    been applied there, and delays the WRITE's install at ``sy`` until the READ
    has completed.
    """
    protocol = get_protocol(protocol_name)
    handle = protocol.build(num_readers=1, num_writers=1, num_objects=2)
    write_id = handle.submit_write({"ox": "new", "oy": "new"}, writer=handle.writers[0])
    read_id = handle.submit_read(["ox", "oy"], reader=handle.readers[0])
    install_types = ("write-val", "install", "eiger-write", "commit-write")
    rules = [
        DelayRule(
            name="read-at-sx-after-write-installed",
            holds=holds_message(dst="sx", predicate=lambda m: m.get("txn") == read_id),
            until=lambda kernel: any(
                until_message_delivered(msg_type, dst="sx")(kernel) for msg_type in install_types
            ),
        ),
        DelayRule(
            name="write-install-at-sy-after-read-done",
            holds=holds_message(
                dst="sy",
                predicate=lambda m: m.get("txn") == write_id and m.msg_type in install_types,
            ),
            until=until_transaction_done(read_id),
        ),
    ]
    handle.simulation.scheduler = AdversarialScheduler(rules=rules)
    return handle, read_id, write_id


class TestFractureAdversary:
    def test_naive_candidate_is_fractured(self):
        handle, read_id, _ = build_with_fracture_adversary("naive-snow")
        handle.run_to_completion()
        result = handle.simulation.transaction_record(read_id).result.as_dict
        assert result == {"ox": "new", "oy": 0}
        assert not handle.serializability().ok

    @pytest.mark.parametrize("protocol", ["algorithm-a", "algorithm-b", "algorithm-c", "s2pl"])
    def test_strong_protocols_survive_the_same_adversary(self, protocol):
        handle, read_id, _ = build_with_fracture_adversary(protocol)
        handle.run_to_completion()
        assert handle.serializability().ok, handle.serializability().describe()
        # Whatever the read returned, it is all-old or all-new, never mixed.
        result = handle.simulation.transaction_record(read_id).result.as_dict
        assert result in ({"ox": 0, "oy": 0}, {"ox": "new", "oy": "new"})

    def test_retry_baseline_pays_with_unbounded_rounds_not_with_safety(self):
        """The fracture adversary keeps the WRITE half-installed until the READ
        finishes, so the validating retry baseline can never accept a snapshot:
        it burns through its retry budget instead of returning a fractured
        result.  This is the executable meaning of the (1 version, ∞ rounds)
        cell — safety is preserved, termination is what is given up.  No write
        contention is needed: the one held install is enough."""
        from repro.protocols.occ import MAX_COLLECTS
        from repro.protocols.replication import RetryBudgetExhausted

        handle, read_id, _ = build_with_fracture_adversary("occ-double-collect")
        with pytest.raises(RetryBudgetExhausted, match="held an install back") as error:
            handle.run_to_completion()
        assert (error.value.txn_id, error.value.budget, error.value.rounds) == (read_id, "MAX_COLLECTS", MAX_COLLECTS)

    def test_eiger_under_this_particular_adversary_completes(self):
        """This simple fracture schedule alone does not break Eiger (its round-2
        catch-up repairs it); the Figure 5 schedule with a second writer does —
        see tests/proofs/test_impossibility_replays.py."""
        handle, read_id, _ = build_with_fracture_adversary("eiger")
        handle.run_to_completion()
        assert handle.simulation.transaction_record(read_id).complete


class TestHeldWriteNeverBlocksReads:
    @pytest.mark.parametrize("protocol", ["algorithm-a", "algorithm-b", "algorithm-c"])
    def test_read_completes_while_a_write_is_stalled_forever(self, protocol):
        """N in action: a WRITE stuck in its install phase cannot delay a READ.

        The adversary holds one of the WRITE's install messages until the READ
        has completed; the non-blocking algorithms must let the READ finish
        (returning the pre-write snapshot) rather than wait.
        """
        proto = get_protocol(protocol)
        handle = proto.build(num_readers=1, num_writers=1, num_objects=2)
        write_id = handle.submit_write({"ox": "w", "oy": "w"}, writer=handle.writers[0])
        read_id = handle.submit_read(["ox", "oy"], reader=handle.readers[0])
        rules = [
            DelayRule(
                name="stall-write-install-at-sy",
                holds=holds_message(dst="sy", predicate=lambda m: m.get("txn") == write_id),
                until=until_transaction_done(read_id),
            )
        ]
        handle.simulation.scheduler = AdversarialScheduler(rules=rules)
        handle.run_to_completion()
        read_record = handle.simulation.transaction_record(read_id)
        write_record = handle.simulation.transaction_record(write_id)
        assert read_record.complete and write_record.complete
        # The read either saw nothing of the write or (for C, whose coordinator
        # may already know the write) a consistent snapshot — never a mix.
        assert handle.serializability().ok
        assert read_record.result.as_dict in ({"ox": 0, "oy": 0}, {"ox": "w", "oy": "w"})

    def test_snow_report_still_clean_for_algorithm_a_under_stall(self):
        proto = get_protocol("algorithm-a")
        handle = proto.build(num_readers=1, num_writers=2, num_objects=2)
        w1 = handle.submit_write({"ox": "a", "oy": "a"}, writer="w1")
        r1 = handle.submit_read(["ox", "oy"])
        rules = [
            DelayRule(
                name="stall-w1-at-sy",
                holds=holds_message(dst="sy", predicate=lambda m: m.get("txn") == w1),
                until=until_transaction_done(r1),
            )
        ]
        handle.simulation.scheduler = AdversarialScheduler(rules=rules)
        handle.run_to_completion()
        assert handle.snow_report().satisfies_snow
