"""Unit tests for the communication topology and system settings."""

from __future__ import annotations

import pytest

from repro.ioa.automaton import Context, ReaderAutomaton, ServerAutomaton, WriterAutomaton
from repro.ioa.errors import CommunicationNotAllowedError, UnknownProcessError
from repro.ioa.network import SystemSetting, Topology, standard_settings
from repro.ioa.simulation import Simulation


def make_topology(allow_c2c: bool = True, allow_s2s: bool = True) -> Topology:
    topology = Topology(allow_client_to_client=allow_c2c, allow_server_to_server=allow_s2s)
    topology.register(ReaderAutomaton("r1"))
    topology.register(WriterAutomaton("w1"))
    topology.register(ServerAutomaton("sx"))
    topology.register(ServerAutomaton("sy"))
    return topology


class TestTopology:
    def test_client_to_server_always_allowed(self):
        topology = make_topology(allow_c2c=False)
        topology.check_send("r1", "sx")
        topology.check_send("w1", "sy")

    def test_server_to_client_always_allowed(self):
        topology = make_topology(allow_c2c=False)
        topology.check_send("sx", "r1")

    def test_client_to_client_allowed_when_enabled(self):
        topology = make_topology(allow_c2c=True)
        topology.check_send("w1", "r1")

    def test_client_to_client_rejected_when_disabled(self):
        topology = make_topology(allow_c2c=False)
        with pytest.raises(CommunicationNotAllowedError):
            topology.check_send("w1", "r1")

    def test_server_to_server_toggle(self):
        topology = make_topology(allow_s2s=False)
        with pytest.raises(CommunicationNotAllowedError):
            topology.check_send("sx", "sy")
        allowed = make_topology(allow_s2s=True)
        allowed.check_send("sx", "sy")

    def test_self_send_rejected(self):
        topology = make_topology()
        with pytest.raises(CommunicationNotAllowedError):
            topology.check_send("sx", "sx")

    def test_unknown_process_rejected(self):
        topology = make_topology()
        with pytest.raises(UnknownProcessError):
            topology.check_send("r1", "nowhere")
        with pytest.raises(UnknownProcessError):
            topology.check_send("nowhere", "r1")

    def test_extra_forbidden_pairs(self):
        topology = Topology(extra_forbidden=frozenset({("r1", "sx")}))
        topology.register(ReaderAutomaton("r1"))
        topology.register(ServerAutomaton("sx"))
        with pytest.raises(CommunicationNotAllowedError):
            topology.check_send("r1", "sx")

    def test_allows_boolean_form(self):
        topology = make_topology(allow_c2c=False)
        assert topology.allows("r1", "sx")
        assert not topology.allows("w1", "r1")

    def test_kind_queries(self):
        topology = make_topology()
        assert topology.is_client("r1")
        assert topology.is_client("w1")
        assert topology.is_server("sx")
        assert not topology.is_server("r1")

    def test_describe_mentions_c2c(self):
        assert "disallowed" in make_topology(allow_c2c=False).describe()
        assert "allowed" in make_topology(allow_c2c=True).describe()


class TestClearedPairsAreForgotten:
    """``check_send`` remembers the pairs it has cleared; membership and rule
    changes must void that memory."""

    def test_a_retired_peer_is_unknown_to_a_pair_that_sent_before(self):
        simulation = Simulation()
        simulation.add_automata([ReaderAutomaton("r1"), ServerAutomaton("sx"), ServerAutomaton("sy")])
        simulation.start()
        reader = Context(simulation, "r1")
        reader.send("sx", "ping")
        reader.send("sx", "ping")  # served from the memo
        simulation.remove_automaton("sx", force=True)  # reconfig removal, mid-run
        for _ in range(2):
            with pytest.raises(UnknownProcessError):
                reader.send("sx", "ping")
        reader.send("sy", "ping")  # the other pair is untouched
        simulation.add_automaton(ServerAutomaton("sx"))  # the name re-registers
        assert reader.send("sx", "ping").dst == "sx"

    def test_a_disallowed_pair_raises_on_every_call(self):
        topology = make_topology(allow_c2c=False)
        topology.check_send("w1", "sx")
        for _ in range(3):
            with pytest.raises(CommunicationNotAllowedError):
                topology.check_send("w1", "r1")
            with pytest.raises(CommunicationNotAllowedError):
                topology.check_send("sx", "sx")

    def test_rule_changes_after_a_successful_send_are_honoured(self):
        topology = make_topology()
        topology.check_send("w1", "r1")
        topology.check_send("sx", "sy")
        topology.check_send("r1", "sx")
        topology.allow_client_to_client = False
        with pytest.raises(CommunicationNotAllowedError):
            topology.check_send("w1", "r1")
        topology.allow_server_to_server = False
        with pytest.raises(CommunicationNotAllowedError):
            topology.check_send("sx", "sy")
        topology.extra_forbidden = frozenset({("r1", "sx")})
        with pytest.raises(CommunicationNotAllowedError):
            topology.check_send("r1", "sx")
        topology.allow_client_to_client = True
        topology.check_send("w1", "r1")

    def test_a_name_re_registered_under_another_kind_is_re_judged(self):
        topology = make_topology(allow_c2c=False)
        topology.check_send("w1", "sx")
        topology.register(ReaderAutomaton("sx"))  # same name, now a client
        with pytest.raises(CommunicationNotAllowedError):
            topology.check_send("w1", "sx")


class TestSystemSetting:
    def test_mwsr_detection(self):
        setting = SystemSetting("mwsr", num_readers=1, num_writers=3, num_servers=2, c2c=True)
        assert setting.is_mwsr()
        assert not setting.is_swmr()

    def test_swmr_detection(self):
        setting = SystemSetting("swmr", num_readers=2, num_writers=1, num_servers=2, c2c=False)
        assert setting.is_swmr()
        assert not setting.is_mwsr()

    def test_client_count(self):
        setting = SystemSetting("x", num_readers=2, num_writers=3, num_servers=2, c2c=False)
        assert setting.num_clients == 5

    def test_standard_settings_cover_figure_1a(self):
        settings = standard_settings()
        assert len(settings) == 6
        names = {s.name for s in settings}
        assert "two-clients-c2c" in names
        assert "mwsr-no-c2c" in names
        assert "three-clients-no-c2c" in names
        # Both C2C values appear for every family.
        assert sum(1 for s in settings if s.c2c) == 3

    def test_standard_settings_population(self):
        for setting in standard_settings():
            if setting.name.startswith("two-clients"):
                assert setting.num_clients == 2
            if setting.name.startswith("three-clients"):
                assert setting.num_readers == 2 and setting.num_writers == 1
            if setting.name.startswith("mwsr"):
                assert setting.num_readers == 1 and setting.num_writers > 1
