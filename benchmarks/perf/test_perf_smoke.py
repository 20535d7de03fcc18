"""Smoke test of the perf benchmark: all five workloads at 1/20 size,
in-process (tier-1 collects this file; the real benchmark runs each
repetition in a fresh interpreter, see ``run.py``)."""

from __future__ import annotations

import pytest

import child
import run
from repro.analysis.workload import GeneratedWorkload
from repro.ioa import TransactionRecord
from repro.txn.transactions import ReadResult, read, write_pairs

SEED = 17
SCALE = 20


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


@pytest.fixture(scope="module")
def reports():
    """Per workload: two untraced runs and a traced one, same seed."""

    def run_once(name, traced=False):
        report = child.run_once(name, SEED, traced=traced, scale=SCALE)
        # child.main() times the calibration loop around run_once; skipped here
        report["host"]["calibration_s"] = run.CALIBRATION_REF_S
        return report

    return {
        name: (run_once(name), run_once(name), run_once(name, traced=True))
        for name in child.WORKLOADS
    }


def test_printed_names_are_the_declared_ones(spec, reports):
    assert [w["name"] for w in spec["workloads"]] == list(child.WORKLOADS)
    for first, _second, traced in reports.values():
        assert list(run.end_to_end([first])) == [m["name"] for m in spec["end_to_end"]]
        assert list(run.per_layer([first], [traced])) == [m["name"] for m in spec["per_layer"]]


def test_outputs_are_correct_and_simulated_metrics_repeat(reports):
    for first, second, traced in reports.values():
        assert first["sim"]["problems"] == []
        assert first["sim"]["failed"] == 0
        assert first["sim"]["completed_share"] == 1.0
        # tracing must not change what the program does
        assert first["sim"] == second["sim"] == traced["sim"]
    assert reports["chaos"][0]["sim"]["outage_vt_max"] > 0
    assert reports["paper-core"][0]["sim"]["outage_vt_max"] is None


def test_layers_sum_to_the_traced_run(spec, reports):
    for name, (first, _second, traced) in reports.items():
        layers = run.per_layer([first], [traced])
        self_s = sum(v for k, v in layers.items() if k.endswith(".self_s") and f"{k[:-7]}.calls" in layers)
        assert self_s + layers["run.unattributed_s"] == pytest.approx(layers["traced_run_s"])
        assert layers["run.unattributed_share"] <= 0.10, name
    # a layer the workload does not use is never entered
    paper = run.per_layer(reports["paper-core"][:1], reports["paper-core"][2:])
    assert paper["consensus.member.calls"] == paper["faults.injector.calls"] == 0
    stack = run.per_layer(reports["replicated-stack"][:1], reports["replicated-stack"][2:])
    assert stack["consensus.member.calls"] > 0 and stack["persist.store.calls"] > 0
    assert stack["faults.injector.calls"] == stack["obs.plane.calls"] == 0
    chaos = run.per_layer(reports["chaos"][:1], reports["chaos"][2:])
    assert chaos["faults.injector.calls"] > 0 and chaos["obs.plane.calls"] > 0


def test_provenance_check_rejects_a_tampered_read():
    workload = child.WORKLOADS["write-contention"]
    cell = workload.cells[0]
    handle = child.build_cell(workload, cell, SEED, SCALE, child.Parts())
    generated = child.load_cell(handle, cell, SEED, SCALE)
    handle.run()
    records = handle.transaction_records()
    assert child.check_provenance(records, generated) == 0

    reads = [r for r in records if r.txn.kind == "read" and any(v != 0 for _o, v in r.result.values)]
    victim = reads[-1]
    honest = victim.result
    obj = honest.values[0][0]
    # a value nobody wrote
    victim.result = ReadResult(values=((obj, f"v-w9-1-{obj}"),) + honest.values[1:])
    assert child.check_provenance(records, generated) == 1


def test_provenance_check_rejects_going_back_in_a_writers_history():
    writes = tuple(("w1", write_pairs((("o1", f"v-w1-{seq}-o1"),))) for seq in (1, 2))
    generated = GeneratedWorkload(reads=(), writes=writes)

    def completed_read(value):
        txn = read("o1")
        return TransactionRecord(
            txn_id=txn.txn_id, txn=txn, client="r1", invoke_index=0, respond_index=1,
            result=ReadResult(values=(("o1", value),)),
        )

    forward = [completed_read(v) for v in (0, "v-w1-1-o1", "v-w1-2-o1", "v-w1-2-o1")]
    assert child.check_provenance(forward, generated) == 0
    backward = [completed_read(v) for v in ("v-w1-2-o1", "v-w1-1-o1")]
    assert child.check_provenance(backward, generated) == 1
