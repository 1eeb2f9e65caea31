"""The seven ringbench workloads, and one measured pass of any of them.

Every workload runs 4 replicas per shard with ``batch_size=100`` and clients
co-located with their shard's region (the paper's setup, as
``bench_pipeline._sweep_run`` does).  On the simulator the injected message
delay is the GCP region RTT matrix of the default ``NetemPolicy``; the socket
workload crosses the host's TCP loopback with no emulated delay.
"""

from __future__ import annotations

import resource
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from repro.baselines.ahl.replica import AhlReplica
from repro.config import PipelineConfig, SystemConfig, TimerConfig, WorkloadConfig
from repro.core.replica import RingBftReplica
from repro.engine import Deployment, PoissonSaturationDriver, WorkloadDriver
from repro.faults.injector import FaultInjector
from repro.workloads.ycsb import YcsbWorkloadGenerator

from ringbench import checks, metrics
from ringbench.trace import Tracer, install

REPLICAS_PER_SHARD = 4
BATCH_SIZE = 100
#: Protocol seconds the deployment runs on after a closed loop's last reply,
#: so trailing executions and lock releases settle before the checks.
CLOSED_LOOP_DRAIN_S = {"sim": 2.0, "socket": 0.3}

PROTOCOLS = {"ringbft": RingBftReplica, "ahl": AhlReplica}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    backend: str  # "sim" | "socket"
    protocol: str  # key of PROTOCOLS
    shards: int
    cross_shard: float
    num_records: int
    clients_per_shard: int = 2
    #: Closed loop: transactions to complete with ``window`` in flight per client.
    total: int = 0
    window: int = 4
    #: Open loop: seeded Poisson arrivals per protocol second for ``duration_s``
    #: (``warmup_s`` of it excluded from the sustained rate), then ``drain_s``.
    rate: float = 0.0
    duration_s: float = 0.0
    warmup_s: float = 0.0
    drain_s: float = 0.0
    timers: TimerConfig | None = None
    pipeline: PipelineConfig | None = None
    #: Crash the view-0 primary of ``metrics.WATCHED_SHARD`` at this protocol time.
    crash_primary_at: float | None = None

    @property
    def open_loop(self) -> bool:
        return self.rate > 0

    def scaled(self, factor: float) -> "Workload":
        """The same workload at ``factor`` of its transaction count (open
        loops keep their schedule and thin the arrival rate)."""
        if self.open_loop:
            return replace(self, rate=self.rate * factor)
        return replace(self, total=max(self.window, int(self.total * factor)))

    def params(self) -> dict:
        """Every setting of the workload, JSON-ready, for the report."""
        out = asdict(self)
        del out["name"], out["why"]
        out["loop"] = "open" if self.open_loop else "closed"
        return out


#: Fault timers far beyond the horizon: a saturated queue must not read as a
#: faulty primary (``bench_pipeline``'s capacity-isolation setting).
_NO_FAULT_TIMERS = TimerConfig(
    local_timeout=30.0, remote_timeout=60.0, transmit_timeout=90.0, client_timeout=120.0
)
_MIX_OPEN = dict(
    backend="sim",
    protocol="ringbft",
    shards=3,
    cross_shard=0.3,
    num_records=100_000,
    rate=2500.0,
    duration_s=2.0,
    warmup_s=0.5,
    drain_s=4.0,
    timers=_NO_FAULT_TIMERS,
)

WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="local-closed",
        why="Single-shard baseline: only the intra-shard PBFT path works; ring code, "
        "certificates and lock waits do nothing, so a ring-only change must not move it.",
        backend="sim",
        protocol="ringbft",
        shards=3,
        cross_shard=0.0,
        num_records=10_000,
        total=6000,
    ),
    Workload(
        name="ring-closed",
        why="The paper's mechanism: every transaction rotates Forward/Execute over all "
        "shards, so certificates, the lock table and relays do most of the work.",
        backend="sim",
        protocol="ringbft",
        shards=3,
        cross_shard=1.0,
        num_records=10_000,
        total=3000,
    ),
    Workload(
        name="mix-open-k1",
        why="The paper's 30% cross-shard mix under arrival-driven Poisson load at depth 1; "
        "batching amortisation dominates. The reference column for pipelining claims.",
        pipeline=PipelineConfig(depth=1),
        **_MIX_OPEN,
    ),
    Workload(
        name="mix-open-k4",
        why="Same mix and rate through the depth-4 shaped pump: the same consensus layer "
        "used differently; records that k=4 is slower than k=1 open loop as a baseline.",
        pipeline=PipelineConfig(depth=4, max_batch_size=8, sustain_threshold=0.5),
        **_MIX_OPEN,
    ),
    Workload(
        name="ahl-closed",
        why="A second protocol (AHL, 2PC through a reference committee) over the same "
        "PbftReplica core: a RingBFT speed-up that bends the shared core shows its cost here.",
        backend="sim",
        protocol="ahl",
        shards=3,
        cross_shard=0.3,
        num_records=10_000,
        total=3000,
    ),
    Workload(
        name="viewchange-open",
        why="The fault path: shard 0's primary crashes at t=3s while requests keep arriving "
        "on schedule, so requests due while no primary exists are counted.",
        backend="sim",
        protocol="ringbft",
        shards=3,
        cross_shard=0.3,
        num_records=10_000,
        rate=200.0,
        duration_s=12.0,
        drain_s=20.0,
        timers=TimerConfig(
            local_timeout=1.0, remote_timeout=2.0, transmit_timeout=3.0, client_timeout=1.5
        ),
        crash_primary_at=3.0,
    ),
    Workload(
        name="socket-closed",
        why="Real TCP loopback in one asyncio loop: the only workload where protocol time is "
        "wall time and repro.net (envelopes, framing, socket writes) does work.",
        backend="socket",
        protocol="ringbft",
        shards=2,
        cross_shard=0.3,
        num_records=10_000,
        total=1200,
        window=8,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


# ----------------------------------------------------------------------
# harness pieces the benchmark adds around the repo's drivers
# ----------------------------------------------------------------------


class _RecordingGenerator(YcsbWorkloadGenerator):
    """Remembers which shards each generated transaction involves."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.involved: dict[str, frozenset[int]] = {}

    def generate(self, count: int, client_id: str = "client-0"):
        transactions = super().generate(count, client_id)
        for txn in transactions:
            self.involved[txn.txn_id] = txn.involved_shards
        return transactions


@dataclass
class _ScheduledPoissonDriver(PoissonSaturationDriver):
    """The same seeded arrivals, also recording how late each one fired
    against the instant it was due (0 on the simulator by construction)."""

    max_lag_s: float = 0.0
    _due: float = 0.0

    def _schedule_next_arrival(self) -> None:
        gap = self._rng.expovariate(self.rate_per_second)
        self._due = self.deployment.now + gap
        self.deployment.scheduler.schedule(gap, self._arrive)

    def _arrive(self) -> None:
        self.max_lag_s = max(self.max_lag_s, self.deployment.now - self._due)
        super()._arrive()


def build(spec: Workload, seed: int) -> tuple[Deployment, _RecordingGenerator]:
    """Deployment, co-located clients and workload generator for one pass."""
    workload = WorkloadConfig(
        num_records=spec.num_records,
        cross_shard_fraction=spec.cross_shard,
        batch_size=BATCH_SIZE,
        num_clients=spec.shards * spec.clients_per_shard,
        seed=seed,
    )
    config = SystemConfig.uniform(
        spec.shards,
        REPLICAS_PER_SHARD,
        workload=workload,
        timers=spec.timers,
        pipeline=spec.pipeline,
    )
    deployment = Deployment.build(
        config,
        backend=spec.backend,
        replica_class=PROTOCOLS[spec.protocol],
        num_clients=0,
        batch_size=BATCH_SIZE,
        seed=seed,
    )
    for i, shard in enumerate(config.shards):
        for j in range(spec.clients_per_shard):
            deployment.add_client(f"client-{i}-{j}", region=shard.region)
    generator = _RecordingGenerator(
        deployment.table, deployment.directory.ring, workload, seed=seed
    )
    return deployment, generator


def _drive(spec: Workload, deployment: Deployment, generator, seed: int):
    """Run the load; returns ``(RunResult, submitted, tps, generator lag)``."""
    if spec.crash_primary_at is not None:
        FaultInjector(deployment).crash_primary(metrics.WATCHED_SHARD, at=spec.crash_primary_at)
    if spec.open_loop:
        driver = _ScheduledPoissonDriver(
            deployment,
            generator,
            rate_per_second=spec.rate,
            duration_s=spec.duration_s,
            warmup_s=spec.warmup_s,
            drain_s=spec.drain_s,
            seed=seed,
        )
        result = driver.run(check_consistency=False)
        return result, driver.submitted, driver.sustained_tps, driver.max_lag_s
    closed = WorkloadDriver(
        deployment, generator, total=spec.total, window=spec.window, poll_interval=0.005
    )
    # Protocol seconds: virtual on the simulator, wall clock on sockets.
    result = closed.run(timeout=600.0 if spec.backend == "sim" else 90.0, check_consistency=False)
    deployment.backend.run_for(CLOSED_LOOP_DRAIN_S[spec.backend])
    return result, closed.submitted, result.throughput_tps, None


def run_pass(spec: Workload, seed: int, *, trace: bool, spans_path: Path | None = None) -> dict:
    """Build, drive, measure and check one workload once.

    Returns a JSON-ready dict: ``end_to_end`` always, ``per_layer`` (spans,
    counters) too -- span metrics are zero unless ``trace`` is set.
    """
    setup_started = time.perf_counter()
    deployment, generator = build(spec, seed)
    setup_s = time.perf_counter() - setup_started
    tracer = install(Tracer()) if trace else None
    try:
        cpu_started = time.process_time()
        try:
            result, submitted, tps, lag_s = _drive(spec, deployment, generator, seed)
        finally:
            if tracer is not None:
                tracer.remove()
        cpu_s = time.process_time() - cpu_started

        records = [
            (record.txn_id, record.submitted_at, record.completed_at)
            for client in deployment.clients.values()
            for record in client.completed
        ]
        ring = deployment.directory.ring
        watched = {
            txn_id
            for txn_id, involved in generator.involved.items()
            if ring.first_in_ring_order(involved) == metrics.WATCHED_SHARD
        }
        end_to_end = metrics.end_to_end(
            records=records,
            watched=watched,
            submitted=submitted,
            tps=tps,
            fault_at=spec.crash_primary_at,
            cpu_s=cpu_s,
            setup_s=setup_s,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        verdicts = checks.output_checks(
            deployment,
            completed={txn_id: generator.involved[txn_id] for txn_id, _s, _d in records},
            generator_lag_s=lag_s if spec.backend == "sim" else None,
            expect_view_change_on=(
                metrics.WATCHED_SHARD if spec.crash_primary_at is not None else None
            ),
        )
        committed = len(records)
        per_layer = metrics.span_metrics(tracer, committed)
        per_layer.update(
            metrics.counters(deployment, result, committed, submitted, end_to_end["p99_ms"])
        )
    finally:
        deployment.close()

    outcome = {
        "traced": trace,
        "submitted": submitted,
        "completed": committed,
        "generator_lag_ms": None if lag_s is None else lag_s * 1e3,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "checks": verdicts,
        "message_counts": dict(sorted(result.message_counts.items())),
    }
    if tracer is not None:
        outcome["span_edges"] = tracer.edges()[:40]
        if spans_path is not None:
            tracer.write_jsonl(spans_path)
            outcome["spans_path"] = str(spans_path)
    return outcome
