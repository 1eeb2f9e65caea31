"""Unit tests: the ringbench CI gate fails only on sim protocol-time rows."""

import importlib.util
import json
from pathlib import Path

import pytest

_GATE = Path(__file__).resolve().parents[2] / "benchmarks" / "ringbench_gate.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("ringbench_gate", _GATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(gate, **overrides):
    """Two workloads, every end-to-end metric at 100; ``overrides`` maps
    ``"workload/metric"`` to a replacement value."""
    workloads = {}
    for name, backend in (("sim-load", "sim"), ("wire-load", "socket")):
        end_to_end = {}
        for metric in gate.metrics.END_TO_END:
            value = overrides.get(f"{name}/{metric.name}", 100.0)
            end_to_end[metric.name] = {"value": value, "min": value, "max": value}
        workloads[name] = {"params": {"backend": backend}, "end_to_end": end_to_end}
    return {"workloads": workloads}


def _keys(rows):
    return {(row["workload"], row["metric"], row["verdict"]) for row in rows}


def test_identical_reports_pass(gate):
    failing, advisory = gate.gate_rows(_report(gate), _report(gate))
    assert failing == []
    assert {row["verdict"] for row in advisory} == {"same"}


@pytest.mark.parametrize("value, verdict", [(50.0, "worse"), (150.0, "better")])
def test_a_moved_sim_protocol_time_row_fails_either_way(gate, value, verdict):
    failing, _ = gate.gate_rows(_report(gate), _report(gate, **{"sim-load/tps": value}))
    assert _keys(failing) == {("sim-load", "tps", verdict)}


def test_host_time_and_socket_rows_are_advisory(gate):
    moved = _report(gate, **{"sim-load/cpu_us_per_txn": 500.0, "wire-load/p50_ms": 500.0})
    failing, advisory = gate.gate_rows(_report(gate), moved)
    assert failing == []
    assert ("sim-load", "cpu_us_per_txn", "worse") in _keys(advisory)
    assert ("wire-load", "p50_ms", "worse") in _keys(advisory)
    assert not any(
        row["workload"] == "sim-load" and row["metric"] in gate.metrics.SIM_DETERMINISTIC
        for row in advisory
    )


def test_a_sim_workload_missing_from_the_report_fails(gate):
    report = _report(gate)
    del report["workloads"]["sim-load"]
    failing, _ = gate.gate_rows(_report(gate), report)
    assert _keys(failing) == {("sim-load", "*", "missing")}


def test_main_exit_status(gate, tmp_path):
    reference = tmp_path / "reference.json"
    reference.write_text(json.dumps(_report(gate)))
    same = tmp_path / "same.json"
    same.write_text(json.dumps(_report(gate, **{"wire-load/tps": 1.0})))
    moved = tmp_path / "moved.json"
    moved.write_text(json.dumps(_report(gate, **{"sim-load/recovered_p50_ms": 1.0})))
    assert gate.main([str(same), "--reference", str(reference)]) == 0
    assert gate.main([str(moved), "--reference", str(reference)]) == 1
