"""Unit tests: placement epoch primitives and dynamic kernel membership."""

from __future__ import annotations

import pytest

from repro.ioa import FIFOScheduler
from repro.ioa.automaton import ServerAutomaton
from repro.ioa.errors import SimulationError, UnknownProcessError
from repro.ioa.simulation import Simulation
from repro.txn.placement import Placement, next_replica_names, replica_names


# ----------------------------------------------------------------------
# Placement primitives
# ----------------------------------------------------------------------
class TestPlacementEpochPrimitives:
    def test_with_group_replaces_one_group(self):
        placement = Placement.for_objects(("ox", "oy"), 3)
        updated = placement.with_group("ox", ("sx", "sx.2", "sx.4"))
        assert updated.group("ox") == ("sx", "sx.2", "sx.4")
        assert updated.group("oy") == placement.group("oy")
        # The original is untouched (immutably versioned epochs).
        assert placement.group("ox") == ("sx", "sx.2", "sx.3")

    def test_with_group_unknown_object(self):
        placement = Placement.for_objects(("ox",), 1)
        with pytest.raises(KeyError, match="not placed"):
            placement.with_group("oz", ("sz",))

    def test_with_group_rejects_cross_group_server(self):
        placement = Placement.for_objects(("ox", "oy"), 2)
        with pytest.raises(ValueError, match="two replica groups"):
            placement.with_group("ox", ("sx", "sy"))

    def test_next_replica_names_skip_taken(self):
        group = replica_names("ox", 3)
        assert next_replica_names("ox", group) == ("sx.4",)
        assert next_replica_names("ox", group, count=2) == ("sx.4", "sx.5")

    def test_next_replica_names_fill_gaps(self):
        assert next_replica_names("ox", ("sx", "sx.3")) == ("sx.2",)

    def test_next_replica_names_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            next_replica_names("ox", ("sx",), count=0)


# ----------------------------------------------------------------------
# Dynamic kernel membership
# ----------------------------------------------------------------------
class _Echo(ServerAutomaton):
    def __init__(self, name):
        super().__init__(name)
        self.started = False
        self.seen = []

    def on_start(self, ctx):
        self.started = True

    def on_message(self, message, ctx):
        self.seen.append(message.msg_type)


class TestDynamicMembership:
    def make_kernel(self):
        simulation = Simulation(scheduler=FIFOScheduler())
        simulation.add_automaton(_Echo("a"))
        simulation.add_automaton(_Echo("b"))
        return simulation

    def test_mid_run_add_records_start(self):
        simulation = self.make_kernel()
        simulation.start()
        late = _Echo("late")
        simulation.add_automaton(late)
        assert late.started  # on_start ran at the point of joining
        starts = [a for a in simulation.trace if a.kind.name == "START"]
        assert [a.actor for a in starts] == ["a", "b", "late"]

    def test_added_automaton_can_communicate(self):
        simulation = self.make_kernel()
        simulation.start()
        late = simulation.add_automaton(_Echo("late"))
        simulation._contexts["a"].send("late", "ping", {})
        simulation.run()
        assert late.seen == ["ping"]

    def test_remove_automaton_retires_cleanly(self):
        simulation = self.make_kernel()
        simulation.start()
        assert simulation.remove_automaton("b") is True
        assert "b" not in simulation.servers()
        with pytest.raises(UnknownProcessError):
            simulation.automaton("b")
        # Sends to the retired name now fail loudly.
        with pytest.raises(UnknownProcessError):
            simulation._contexts["a"].send("b", "ping", {})
        retired = [
            a for a in simulation.trace
            if a.info and dict(a.info).get("lifecycle") == "retired"
        ]
        assert [a.actor for a in retired] == ["b"]

    def test_remove_refuses_with_pending_mail_unless_forced(self):
        simulation = self.make_kernel()
        simulation.start()
        simulation._contexts["a"].send("b", "ping", {})
        assert simulation.remove_automaton("b") is False  # mail still pending
        assert simulation.automaton("b")  # still registered
        assert simulation.remove_automaton("b", force=True) is True
        simulation.run()  # the dropped delivery never fires

    def test_remove_refuses_with_pending_outbound_mail(self):
        """A message *from* a retired process must die with it: were it
        delivered after the removal, its receiver would reply to a ghost
        and crash the send (regression: stale append from a retired
        consensus leader acked after its retirement)."""
        simulation = self.make_kernel()
        simulation.start()
        simulation._contexts["b"].send("a", "ping", {})
        assert simulation.remove_automaton("b") is False  # outbound in flight
        assert simulation.remove_automaton("b", force=True) is True
        simulation.run()
        assert simulation.automaton("a").seen == []  # the orphan was dropped

    def test_what_on_retire_sends_delays_the_removal(self):
        """The automaton answers what it owes in ``on_retire``, before the
        kernel looks for pending mail: its farewell keeps a non-forced
        removal waiting, and is delivered before the next attempt succeeds."""

        class _Owing(_Echo):
            def on_retire(self, ctx):
                if not self.seen:
                    self.seen.append("retiring")
                    ctx.send("a", "bye", {})

        simulation = Simulation(scheduler=FIFOScheduler())
        simulation.add_automaton(_Echo("a"))
        simulation.add_automaton(_Owing("b"))
        simulation.start()
        assert simulation.remove_automaton("b") is False  # the farewell is pending
        simulation.run()
        assert simulation.automaton("a").seen == ["bye"]
        assert simulation.remove_automaton("b") is True

    def test_remove_drops_owned_timers(self):
        simulation = self.make_kernel()
        simulation.start()
        simulation._contexts["b"].set_timeout(5, kind="x")
        assert simulation.pending_timeouts()
        simulation.remove_automaton("b")
        assert not simulation.pending_timeouts()

    def test_remove_unknown_name(self):
        simulation = self.make_kernel()
        with pytest.raises(UnknownProcessError):
            simulation.remove_automaton("ghost")

    def test_duplicate_add_still_rejected_mid_run(self):
        simulation = self.make_kernel()
        simulation.start()
        with pytest.raises(SimulationError):
            simulation.add_automaton(_Echo("a"))

    def test_topology_unregister_cleans_groups(self):
        simulation = self.make_kernel()
        simulation.topology.set_replica_groups({"ox": ("a", "b")})
        simulation.topology.set_consensus_group(("a", "b"))
        simulation.start()
        simulation.remove_automaton("b")
        assert simulation.topology.replica_group("ox") == ("a",)
        assert simulation.topology.consensus_group() == ("a",)

    def test_topology_update_replica_group(self):
        simulation = self.make_kernel()
        simulation.topology.set_replica_groups({"ox": ("a", "b")})
        simulation.topology.update_replica_group("ox", ("a", "c"))
        assert simulation.topology.replica_group("ox") == ("a", "c")
