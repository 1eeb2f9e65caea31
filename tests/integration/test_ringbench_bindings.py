"""Integration tests: every ``src/`` binding ringbench's tracer patches is live.

``benchmarks/ringbench/trace.py`` wraps layer entry points by name (class
attributes, module-level functions).  If a refactor moves one of those
entry points, the benchmark does not fail: the span simply reads 0.  This
test installs the real tracer, drives a short run on each backend, and
asserts the spans that backend must exercise actually fired.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.config import SystemConfig, WorkloadConfig
from repro.engine import Deployment, OpenLoopWorkloadDriver, WorkloadDriver
from repro.rt.transport import RealTimeScheduler
from repro.workloads.ycsb import YcsbWorkloadGenerator

_TRACE = Path(__file__).resolve().parents[2] / "benchmarks" / "ringbench" / "trace.py"

SOCKET_SPANS = (
    "rt.scheduler.schedule",
    "net.transport.send",
    "net.transport.multicast",
    "net.framing.feed",
    "net.wire.decode",
    "netem.decide",
    "consensus.client.submit",
)
SIM_SPANS = (
    "sim.kernel.step",
    "sim.network.send",
    "sim.network.multicast",
    "common.codec.memo",
    "common.codec.encode",
    "common.crypto.mac_tag",
    "common.crypto.mac_verify",
)
#: What an arrival-driven sim run must fire: it advances through
#: ``Simulator.run`` rather than ``run_until``'s own loop.
OPEN_LOOP_SPANS = ("sim.kernel.step", "sim.kernel.schedule", "netem.decide")


@pytest.fixture(scope="module")
def trace():
    spec = importlib.util.spec_from_file_location("ringbench_trace", _TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(backend: str, total: int = 4, *, open_loop: bool = False) -> None:
    config = SystemConfig.uniform(
        2,
        4,
        workload=WorkloadConfig(
            num_records=200, cross_shard_fraction=0.5, batch_size=1, num_clients=1, seed=11
        ),
    )
    with Deployment.build(config, backend=backend, num_clients=1, batch_size=1, seed=11) as dep:
        generator = YcsbWorkloadGenerator(dep.table, dep.directory.ring, config.workload, seed=11)
        if open_loop:
            driver = OpenLoopWorkloadDriver(dep, generator, rate_per_second=total, duration=1.0)
            result = driver.run(extra_drain=10.0)
        else:
            result = WorkloadDriver(dep, generator, total=total, window=1).run(timeout=60.0)
        assert result.completed == total


def _calls(tracer) -> dict[str, int]:
    return {name: row["calls"] for name, row in tracer.by_name().items()}


def test_traced_spans_fire_on_both_backends(trace):
    original_schedule = RealTimeScheduler.__dict__["schedule"]
    tracer = trace.install(trace.Tracer())
    try:
        _run("socket")
        socket_calls = _calls(tracer)
        _run("sim")
        after_sim = _calls(tracer)
        _run("sim", open_loop=True)
        after_open = _calls(tracer)
    finally:
        tracer.remove()
    sim_calls = {name: calls - socket_calls.get(name, 0) for name, calls in after_sim.items()}
    open_calls = {name: calls - after_sim.get(name, 0) for name, calls in after_open.items()}
    assert RealTimeScheduler.__dict__["schedule"] is original_schedule
    assert [name for name in SOCKET_SPANS if not socket_calls.get(name)] == []
    assert [name for name in SIM_SPANS if not sim_calls.get(name)] == []
    assert [name for name in OPEN_LOOP_SPANS if not open_calls.get(name)] == []
