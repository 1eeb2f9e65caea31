"""Figure 9: throughput under primary failure and view change.

This experiment runs in **protocol mode** (the message-level simulator): a
nine-shard RingBFT deployment processes a 30% cross-shard workload while the
primaries of the first three shards fail at a configurable virtual time.  The
replicas detect the failure through their local timers, run the view-change
protocol, and the new primaries resume the pending work; the throughput time
series shows the dip and the recovery, which is the shape Figure 9 reports
(failure at t=10s, view change around t=20-30s, throughput recovered by
t≈55s in the paper's timer configuration).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SystemConfig, TimerConfig, WorkloadConfig
from repro.core.replica import RingBftReplica
from repro.engine.deployment import Deployment
from repro.faults.injector import FaultInjector
from repro.metrics.collector import ThroughputSeries
from repro.workloads.ycsb import YcsbWorkloadGenerator


@dataclass(frozen=True)
class Figure9Config:
    """Scaled-down protocol-mode configuration of the Figure 9 experiment."""

    num_shards: int = 9
    replicas_per_shard: int = 4
    failed_shards: int = 3
    failure_time: float = 10.0
    horizon: float = 60.0
    submit_rate_per_s: float = 6.0
    cross_shard_fraction: float = 0.30
    bucket_seconds: float = 5.0
    seed: int = 2022


def run(
    config: Figure9Config | None = None,
    *,
    backend: str = "sim",
) -> list[dict]:
    """Run the primary-failure experiment; one row per time bucket.

    ``backend`` selects the execution engine: ``"sim"`` (deterministic, the
    default used by the benchmarks) or ``"socket"`` (real TCP loopback on the
    wall clock, so the run lasts the full horizon in real seconds).
    """
    config = config or Figure9Config()
    timers = TimerConfig(
        local_timeout=4.0,
        remote_timeout=8.0,
        transmit_timeout=12.0,
        client_timeout=6.0,
    )
    workload_config = WorkloadConfig(
        num_records=3_000,
        cross_shard_fraction=config.cross_shard_fraction,
        involved_shards=3,
        batch_size=1,
        num_clients=8,
        seed=config.seed,
    )
    system = SystemConfig.uniform(
        config.num_shards,
        config.replicas_per_shard,
        timers=timers,
        workload=workload_config,
    )
    deployment = Deployment.build(
        system,
        backend=backend,
        replica_class=RingBftReplica,
        num_clients=8,
        batch_size=1,
        seed=config.seed,
    )
    try:
        generator = YcsbWorkloadGenerator(
            deployment.table, deployment.directory.ring, workload_config, seed=config.seed
        )

        # Open-loop submission spread over the clients for the whole horizon.
        client_ids = list(deployment.clients)
        total = int(config.submit_rate_per_s * config.horizon)
        interval = 1.0 / config.submit_rate_per_s
        for i in range(total):
            client_id = client_ids[i % len(client_ids)]

            def _submit(client_id: str = client_id) -> None:
                txn = generator.generate(1, client_id)[0]
                deployment.submit(txn, client_id)

            deployment.scheduler.schedule(i * interval, _submit)

        # Fail the primaries of the first ``failed_shards`` shards.
        injector = FaultInjector(deployment)
        for shard in range(config.failed_shards):
            injector.crash_primary(shard, at=config.failure_time)

        deployment.run(duration=config.horizon + 20.0, max_events=5_000_000)

        records = []
        for client in deployment.clients.values():
            records.extend(client.completed)
        view_changes = sum(
            1 for replica in deployment.replicas.values() if replica.view_changes_completed > 0
        )
    finally:
        deployment.close()
    series = ThroughputSeries(bucket_seconds=config.bucket_seconds).compute(
        records, horizon=config.horizon
    )
    rows = [
        {
            "time_s": time,
            "throughput_tps": round(tput, 2),
            "failure_injected": time >= config.failure_time,
        }
        for time, tput in series
    ]
    rows.append(
        {
            "time_s": "summary",
            "throughput_tps": round(len(records) / config.horizon, 2),
            "failure_injected": True,
            "replicas_that_changed_view": view_changes,
            "completed_transactions": len(records),
            "backend": backend,
        }
    )
    return rows


#: Scaled-down scenario for cross-backend smoke validation (one failed shard).
SMOKE_CONFIG = Figure9Config(
    num_shards=3,
    replicas_per_shard=4,
    failed_shards=1,
    failure_time=6.0,
    horizon=24.0,
    submit_rate_per_s=2.0,
    bucket_seconds=6.0,
)


def run_protocol(backend: str = "sim", config: Figure9Config | None = None) -> list[dict]:
    """Protocol-mode smoke run of the failure experiment on either backend."""
    return run(config or SMOKE_CONFIG, backend=backend)
