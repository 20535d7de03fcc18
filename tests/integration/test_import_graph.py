"""The import graph follows the plane architecture, pinned.

A process pays for the modules it uses: package ``__init__`` files export
through :func:`repro._lazy.lazy_exports`, the registry loads a protocol when it
is asked for by name, and plane code is imported where the plane attaches.
What a process has loaded can only be read off a fresh one, so the layering
checks run in subprocesses (``fresh_python``); the export-table checks run
here, where resolving a name is all they need.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[2]

#: ``__all__`` of every subpackage at the last commit that wrote the lists by
#: hand (PR 22), copied once.  Compared as sets: a table yields its names in
#: table order, and three of the hand-kept lists interleaved their modules.
SEED_ALL = {
    name: names.split()
    for name, names in {
    "repro.analysis": """
        AggregateStats ConsensusMetrics ControllerMetrics ExperimentMetrics FaultMetrics
        PersistenceMetrics ReconfigMetrics ReplicationMetrics TransactionMetrics collect_metrics
        percentile LATENCY_HEADERS format_latency_comparison format_markdown_table format_series
        format_table latency_comparison_rows ExperimentConfig ExperimentResult compare_protocols
        make_scheduler register_scheduler run_experiment run_many scheduler_names GRID_SUITES
        Suite SuiteResult SweepPoint SweepResult bench_payload run_suite suite_rows
        GeneratedWorkload WorkloadSpec generate_workload read_heavy_spec submit_workload
        write_heavy_spec
    """,
    "repro.consensus": """
        CONFIG CONTROLLER_NAME ControllerPolicy ReconfigController DEFAULT_ELECTION_TIMEOUT
        RECONFIG ReplicatedCoordinator consensus_members ADMIN_NAME CONSENSUS_GROUP
        REPLICA_GROUP PlacementDirectory ReconfigDriver ReconfigPlan ReconfigRequest
        set_consensus_group set_replica_group CANDIDATE FOLLOWER LEADER LeaderElection
        LeaderLeaseState LeasePolicy NOOP CompactedLogError ConsensusLog LogEntry
        CoordinatorList CoordinatorStateMachine ListStateMachine TimestampStateMachine
    """,
    "repro.core": """
        BoundedSnwRow FeasibilityVerdict bounded_snw_matrix check_setting feasibility_matrix
        find_violation_in_impossible_cell format_bounded_snw_matrix format_feasibility_matrix
        paper_expectation run_protocol_once verify_possible_cell Lemma20Result
        SerializabilityResult check_lemma20 check_strict_serializability tag_precedes
        ReadTransactionReport SnowReport analyze_read_transaction blocking_servers_for
        check_snow round_trips_per_server versions_in_replies
    """,
    "repro.faults": """
        ChaosScheduler FaultInjector FaultStats BimodalLatency CrashEvent DropPolicy
        DuplicatePolicy FaultPlan FixedLatency LatencyModel Partition RetryPolicy UniformLatency
        chaos_adversarial_scheduler fracture_rules hunt_s_violations auto_heal
        coordinator_failover crash_amnesia crash_recover duplicating_network fail_stop
        flaky_everything grow_group_mid_run healed_partition lossy_network
        partition_grid_scenarios replace_dead_replica shrink_consensus_group_mid_run
        slow_network standard_fault_scenarios tail_latency
    """,
    "repro.ioa": """
        Action ActionKind Message actions_at internal_action invoke_action recv_action
        respond_action send_action Automaton Await ClientAutomaton Context Mark ReaderAutomaton
        Send SendBatch EventFrontier ServerAutomaton SessionState WriterAutomaton expect_type
        expect_types CommunicationNotAllowedError DuplicateProcessError LivenessError
        SchedulerError SessionError SimulationError TraceError UnknownProcessError
        WellFormednessError FaultPlane SystemSetting Topology standard_settings
        AdversarialScheduler DelayRule FIFOScheduler LIFOScheduler PendingDelivery
        PendingInvocation PendingTimeout PriorityScheduler RandomScheduler Scheduler
        holds_invocation holds_message never until_message_delivered until_transaction_done
        Simulation TransactionRecord Fragment Trace TraceMode concat_fragments reindex
    """,
    "repro.obs": """
        CausalEdge Counter Gauge HealthPlane HealthView Histogram InvariantViolation
        InvariantViolationError KernelProfiler LeaseSafetyMonitor MetricsRegistry MonitorSuite
        ObservabilityPlane OnlineMonitor SLOPolicy Span SpanTree TraceMode chrome_trace_events
        chrome_trace_json default_monitors derive_health derive_registry derive_spans
        joint_quorums_intersect offline_lease_violations render_timeline sampling_stats
        watch_trace
    """,
    "repro.persist": """
        FileStableStore IntegrityError PersistencePlane PersistencePolicy SimStableStore
        StableStore decode_value encode_value
    """,
    "repro.proofs": """
        EigerExampleResult run_figure5 CommuteCheck ReadFragments can_commute commute_adjacent
        extract_read_fragments indistinguishable_fragments returned_value ProofReplay ProofStep
        SymbolicExecution SymbolicFragment fragment alpha_chain_names build_alpha2
        replay_theorem1 build_beta c2c_breaks_the_chain replay_theorem2
    """,
    "repro.protocols": """
        AlgorithmA AlgorithmAReader AlgorithmAServer AlgorithmAWriter AlgorithmB
        AlgorithmBReader AlgorithmC AlgorithmCReader BuildConfig Protocol SystemHandle
        reader_names writer_names LockingProtocol LockingReader LockingServer LockingWriter
        CoordinatedServer CoordinatedWriter coordinator_name EigerProtocol EigerReader
        EigerServer EigerVersion EigerWriter NaiveReader NaiveServer NaiveSnowCandidate
        NaiveWriter OccProtocol OccReader OccServer OccWriter ReplicatedStorageServer emit_sends
        key_read_round per_object_reply_await write_value_round all_protocols
        bounded_snw_protocols get_protocol protocol_names register_protocol SimpleReadWrite
    """,
    "repro.txn": """
        OTState apply_transaction consistent_with_serial_order run_serial
        serial_read_expectation History HistoryEntry Key Version VersionStore object_for_server
        object_names server_for_object MajorityQuorum Placement QuorumPolicy ReadOneWriteAll
        quorum_policy coordinator_group_names quorum_policy_names replica_names
        standard_placement ReadResult ReadTransaction Transaction WRITE_OK WriteTransaction
        is_read_transaction is_write_transaction read write write_pairs
    """,
    }.items()
}
#: imported by the hand-written ``repro.obs`` block (README, examples and tests
#: use it from there) but missing from its ``__all__``; one table cannot drift so
SEED_ALL["repro.obs"].append("write_chrome_trace")
SUBPACKAGES = sorted(SEED_ALL)

#: the README quickstart, then every ``repro*`` module the process holds
QUICKSTART = """
import json, sys
from repro.protocols import get_protocol

handle = get_protocol({protocol!r}).build(num_writers=2, num_objects=2, **{kwargs!r})
w = handle.submit_write({{"ox": 1, "oy": 1}})
r = handle.submit_read(after=[w])
handle.run_to_completion()
print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] == "repro")))
"""

#: what the quickstart must not have loaded: every optional plane, the
#: checkers' Figure 1 harness, the proofs and the seven other protocols
UNTOUCHED = re.compile(
    r"repro\.(consensus\.(coordinator|controller|reconfig|election|lease|log)"
    r"|persist|faults|obs|analysis|proofs|core\.feasibility"
    r"|protocols\.(algorithm_b|algorithm_c|blocking|coordinated|eiger|naive_snow|occ|simple_rw))\b"
)


class TestAProcessLoadsWhatItUses:
    def test_quickstart_loads_the_kernel_and_one_protocol(self, fresh_python):
        loaded = fresh_python(QUICKSTART.format(protocol="algorithm-a", kwargs={}))
        assert "repro.protocols.algorithm_a" in loaded and "repro.ioa.simulation" in loaded
        assert [m for m in loaded if UNTOUCHED.match(m)] == []

    def test_a_consensus_group_loads_its_members_and_no_reconfiguration(self, fresh_python):
        loaded = fresh_python(QUICKSTART.format(protocol="algorithm-b", kwargs={"consensus_factor": 3}))
        assert "repro.consensus.coordinator" in loaded
        assert not {"repro.consensus.reconfig", "repro.consensus.controller"} & set(loaded)
        assert [m for m in loaded if re.match(r"repro\.(persist|faults|obs|analysis|proofs)\b", m)] == []

    def test_every_module_imports_first(self, fresh_python):
        """No hidden cycle: with eager ``__init__`` blocks gone, no module may
        rely on another having been imported before it.  (Seventy clean
        imports execute the kernel seventy times; bytecode kept in a
        throw-away directory spares compiling it as often.)"""
        failures = fresh_python(
            """
import importlib, json, pkgutil, sys, tempfile

with tempfile.TemporaryDirectory() as cache:
    sys.pycache_prefix, sys.dont_write_bytecode = cache, False
    import repro

    failures = {}
    names = sorted(m.name for m in pkgutil.walk_packages(repro.__path__, "repro."))
    for name in names:
        for loaded in [m for m in sys.modules if m.partition(".")[0] == "repro"]:
            del sys.modules[loaded]
        try:
            importlib.import_module(name)
        except Exception as error:
            failures[name] = repr(error)
assert len(names) > 60, names
print(json.dumps(failures))
"""
        )
        assert failures == {}


class TestExportTables:
    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_all_is_the_seeds_and_every_name_resolves(self, name):
        package = importlib.import_module(name)
        assert sorted(package.__all__) == sorted(SEED_ALL[name])
        assert len(set(package.__all__)) == len(package.__all__)
        assert set(dir(package)) >= set(package.__all__)
        for public in package.__all__:
            assert getattr(package, public) is not None

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_star_import_binds_exactly_all(self, name):
        namespace: dict = {}
        exec(f"from {name} import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(importlib.import_module(name).__all__)

    @pytest.mark.parametrize("name", ["repro", *SUBPACKAGES])
    def test_a_misspelt_name_is_an_attribute_error_naming_the_package(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match=f"module '{name}' has no attribute 'get_protocl'"):
            package.get_protocl
        with pytest.raises(ImportError, match="get_protocl"):
            exec(f"from {name} import get_protocl", {})

    def test_the_top_level_package_names_all_ten_subpackages(self):
        assert repro.__all__ == [name.partition(".")[2] for name in SUBPACKAGES] + ["__version__"]
        assert set(dir(repro)) >= set(repro.__all__)
        for name in SUBPACKAGES:
            assert getattr(repro, name.partition(".")[2]) is importlib.import_module(name)
            assert f":mod:`{name}`" in repro.__doc__

    def test_importing_repro_imports_no_subpackage(self, fresh_python):
        loaded = fresh_python(
            "import json, sys, repro; print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro.'))))"
        )
        assert loaded == ["repro._lazy"]

    def test_version_is_setup_pys(self):
        declared = re.search(r'version="([^"]+)"', (ROOT / "setup.py").read_text(encoding="utf-8"))
        assert declared is not None and repro.__version__ == declared.group(1)
