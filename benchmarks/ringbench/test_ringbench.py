"""ringbench self-tests (run explicitly; not part of the tier-1 ``testpaths``)::

    python3 -m pytest benchmarks/ringbench/test_ringbench.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ringbench import metrics, run, workloads
from ringbench.trace import SPAN_NAMES, Tracer, install

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parents[1] / "BENCHMARK.json"


class FakeClock:
    """A clock the test advances by hand, so self times are exact."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def advance(self, ns: int) -> None:
        self.now += ns


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------


def test_nested_spans_give_correct_self_time():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    leaf = tracer.wrap("leaf", lambda: clock.advance(30))

    def middle_body():
        clock.advance(5)
        leaf()
        leaf()
        clock.advance(5)

    middle = tracer.wrap("middle", middle_body)

    def root_body():
        clock.advance(100)
        middle()

    tracer.wrap("root", root_body)()

    spans = tracer.by_name()
    assert spans["root"] == {"calls": 1, "total_ns": 170, "self_ns": 100}
    assert spans["middle"] == {"calls": 1, "total_ns": 70, "self_ns": 10}
    assert spans["leaf"] == {"calls": 2, "total_ns": 60, "self_ns": 60}
    assert sum(row["self_ns"] for row in spans.values()) == 170
    assert tracer.totals[("leaf", "middle")][0] == 2
    # Raw spans close innermost first and name their parent span.
    ids = {name: span_id for span_id, _parent, name, *_ in tracer.raw}
    parents = {name: parent for _id, parent, name, *_ in tracer.raw}
    assert parents == {"leaf": ids["middle"], "middle": ids["root"], "root": 0}


def test_exception_inside_a_wrapped_call_still_closes_its_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.advance(7)
        raise ValueError("boom")

    traced = tracer.wrap("boom", boom)
    outer = tracer.wrap("outer", lambda: traced())
    with pytest.raises(ValueError):
        outer()
    assert tracer.open_spans == 0
    assert tracer.by_name()["boom"] == {"calls": 1, "total_ns": 7, "self_ns": 7}
    assert tracer.by_name()["outer"]["self_ns"] == 0


def test_same_layer_reentry_is_one_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    inner = tracer.wrap("mac", lambda: clock.advance(3))
    outer = tracer.wrap("mac", lambda: (inner(), inner()))
    outer()
    assert tracer.by_name()["mac"] == {"calls": 1, "total_ns": 6, "self_ns": 6}


def test_request_id_is_inherited_by_child_spans():
    tracer = Tracer(clock=FakeClock())
    child = tracer.wrap("child", lambda: None)
    parent = tracer.wrap("parent", lambda request: child(), request_of=lambda args: args[0])
    parent("txn-7")
    assert {name: request for *_ids, name, _s, _e, request in tracer.raw} == {
        "child": "txn-7",
        "parent": "txn-7",
    }


def test_wrappers_are_fully_removed_after_a_traced_run():
    from repro.common import codec, crypto
    from repro.consensus.pbft.replica import PbftReplica
    from repro.core import replica as core_replica
    from repro.sim.kernel import Simulator

    originals = {
        "step": Simulator.__dict__["step"],
        "on_message": PbftReplica.__dict__["on_message"],
        "encode": codec.encode_canonical,
        "certificate": crypto.verify_certificate,
    }
    spec = workloads.BY_NAME["ring-closed"].scaled(0.02)
    outcome = workloads.run_pass(spec, seed=3, trace=True)
    assert outcome["per_layer"]["sim.kernel.step.calls"] > 0
    assert outcome["per_layer"]["core.on.Forward.calls"] > 0
    assert Simulator.__dict__["step"] is originals["step"]
    assert PbftReplica.__dict__["on_message"] is originals["on_message"]
    assert codec.encode_canonical is originals["encode"]
    assert crypto.verify_certificate is originals["certificate"]
    # ``from ... import verify_certificate`` bindings are restored too.
    assert core_replica.verify_certificate is originals["certificate"]


def test_install_then_remove_leaves_no_patch_behind():
    from repro.net import transport
    from repro.net.wire import encode_envelope

    tracer = install(Tracer())
    # Every reported span is wired, and nothing is traced under another name.
    assert {name for name, _rows in tracer._rows} == set(SPAN_NAMES)
    assert transport.encode_envelope is not encode_envelope
    tracer.remove()
    assert transport.encode_envelope is encode_envelope
    assert tracer._patches == []


# ----------------------------------------------------------------------
# definitions, compare rule
# ----------------------------------------------------------------------


def test_benchmark_json_matches_the_definitions():
    declared = json.loads(BENCHMARK_JSON.read_text())
    assert declared["paths"] == ["benchmarks/ringbench"]
    assert [w["name"] for w in declared["workloads"]] == [w.name for w in workloads.WORKLOADS]
    assert declared["end_to_end"] == [m.as_json() for m in metrics.END_TO_END]
    assert declared["per_layer"] == [m.as_json() for m in metrics.PER_LAYER]
    assert len(metrics.END_TO_END) == 10
    assert len(metrics.PER_LAYER) == 2 * len(SPAN_NAMES) + 25 <= 128


def _report(**values: float) -> dict:
    row = {name: {"value": v, "min": v, "max": v} for name, v in values.items()}
    for metric in metrics.END_TO_END:
        row.setdefault(metric.name, {"value": 1.0, "min": 1.0, "max": 1.0})
    return {"workloads": {"w": {"params": {"backend": "sim"}, "end_to_end": row}}}


def test_compare_applies_each_metrics_own_bound_and_direction():
    a = _report(tps=100.0, p50_ms=50.0, cpu_us_per_txn=300.0, setup_s=0.060)
    b = _report(tps=97.0, p50_ms=48.0, cpu_us_per_txn=320.0, setup_s=0.075)
    verdicts = {row["metric"]: row["verdict"] for row in run.compare_rows(a, b)}
    assert verdicts["tps"] == "worse"  # -3% against the 2% sim bound
    assert verdicts["p50_ms"] == "better"  # -4% latency
    assert verdicts["cpu_us_per_txn"] == "same"  # +6.7% within 15%
    assert verdicts["setup_s"] == "same"  # +25% but under the 20 ms floor
    noisy = _report(cpu_us_per_txn=300.0)
    noisy["workloads"]["w"]["end_to_end"]["cpu_us_per_txn"].update(min=270.0, max=330.0)  # 20%
    verdicts = {row["metric"]: row["verdict"] for row in run.compare_rows(noisy, a)}
    assert verdicts["cpu_us_per_txn"] == "unresolved"


# ----------------------------------------------------------------------
# smoke: every workload, every metric name, under 30 s
# ----------------------------------------------------------------------


def test_smoke_run_emits_every_metric(tmp_path):
    output = tmp_path / "smoke.json"
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--output", str(output)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert elapsed < 30.0
    report = json.loads(output.read_text())
    assert list(report["workloads"]) == [w.name for w in workloads.WORKLOADS]
    for name, summary in report["workloads"].items():
        assert set(summary["end_to_end"]) == {m.name for m in metrics.END_TO_END}, name
        assert set(summary["per_layer"]) == {m.name for m in metrics.PER_LAYER}, name
        assert summary["failed"] == 0 and not summary["failed_checks"], name
        for metric in metrics.END_TO_END:
            assert metric.name in done.stdout


# ----------------------------------------------------------------------
# quiet-host gate
# ----------------------------------------------------------------------


def _gate(tmp_path, readings):
    from ringbench.host import QuietHostGate

    feed = iter(readings)
    sleeps: list[float] = []
    gate = QuietHostGate(
        tmp_path / "host-state.json", calibrate=lambda: next(feed), sleep=sleeps.append
    )
    return gate, sleeps


def test_gate_passes_a_quiet_host_without_waiting(tmp_path):
    gate, sleeps = _gate(tmp_path, [0.030, 0.031, 0.033])
    for _ in range(3):
        gate.wait()
    assert sleeps == [] and gate.waited_s == 0 and gate.disturbed_passes == 0


def test_gate_waits_out_a_slow_episode(tmp_path):
    gate, sleeps = _gate(tmp_path, [0.030, 0.045, 0.044, 0.031])
    gate.wait()  # establishes the reference
    gate.wait()  # 50 % slower twice, then quiet again
    assert len(sleeps) == 2 and gate.waited_s == 2.0 and gate.disturbed_passes == 0


def test_gate_gives_up_after_the_run_limit_and_says_so(tmp_path):
    from ringbench import host

    gate, sleeps = _gate(tmp_path, [0.030] + [0.050] * 100)
    gate.wait()
    gate.wait()
    assert gate.waited_s == host.RUN_LIMIT_S and gate.disturbed_passes == 1
    gate.wait()  # no patience left in this run: measured at once, flagged
    assert gate.waited_s == host.RUN_LIMIT_S and gate.disturbed_passes == 2


def test_gate_allowance_is_shared_by_the_runs_of_a_checkout(tmp_path):
    from ringbench import host

    state = tmp_path / "host-state.json"
    state.write_text(json.dumps({"readings": [0.030], "waited_s": host.CHECKOUT_LIMIT_S - 3}))
    gate, sleeps = _gate(tmp_path, [0.050] * 100)
    gate.wait()
    assert len(sleeps) == 3 and gate.disturbed_passes == 1
    assert json.loads(state.read_text())["waited_s"] == host.CHECKOUT_LIMIT_S
