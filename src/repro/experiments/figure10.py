"""Figure 10: complex cross-shard transactions with remote-read dependencies.

The paper's final experiment keeps the standard 15-shard deployment and gives
every cross-shard transaction 0-64 remote-read dependencies distributed over
the involved shards, turning it into a *complex* transaction whose execution
needs the write sets carried by second-rotation ``Execute`` messages.  Only
RingBFT is reported -- the paper argues neither AHL nor Sharper supports
complex transactions (Section 8.8).

Two modes are provided: the analytical sweep at paper scale (``run``) and a
small protocol-mode validation (``run_protocol_validation``) that executes a
complex transaction end-to-end in the simulator and checks that the
dependencies were resolved from the remote write sets.
"""

from __future__ import annotations

from repro.analytical import DeploymentSpec, estimate, model_by_name
from repro.config import SystemConfig, WorkloadConfig
from repro.core.replica import RingBftReplica
from repro.engine.deployment import Deployment
from repro.workloads.ycsb import YcsbWorkloadGenerator

#: Remote-read counts on the x-axis of Figure 10.
REMOTE_READS: tuple[int, ...] = (0, 8, 16, 32, 48, 64)


def run(remote_reads: tuple[int, ...] = REMOTE_READS) -> list[dict]:
    """Regenerate the Figure 10 series (RingBFT only, paper scale)."""
    rows: list[dict] = []
    model = model_by_name("RingBFT")
    for count in remote_reads:
        spec = DeploymentSpec(remote_reads=count)
        result = estimate(model, spec)
        rows.append(
            {
                "protocol": "RingBFT",
                "remote_reads": count,
                "throughput_tps": round(result.throughput_tps, 1),
                "latency_s": round(result.latency_s, 3),
            }
        )
    return rows


def run_protocol_validation(
    num_shards: int = 4,
    remote_reads: int = 6,
    seed: int = 7,
    *,
    backend: str = "sim",
) -> dict:
    """Execute one complex cross-shard transaction on the chosen backend.

    Returns a summary stating whether the transaction completed and whether
    the dependent writes observed the remote values (i.e. the write contains
    the ``shard:key=value`` suffixes resolved from the Execute write sets).
    """
    workload = WorkloadConfig(
        num_records=400,
        cross_shard_fraction=1.0,
        remote_reads=remote_reads,
        batch_size=1,
        num_clients=1,
        seed=seed,
    )
    system = SystemConfig.uniform(num_shards, 4, workload=workload)
    deployment = Deployment.build(
        system,
        backend=backend,
        replica_class=RingBftReplica,
        num_clients=1,
        batch_size=1,
    )
    try:
        generator = YcsbWorkloadGenerator(
            deployment.table, deployment.directory.ring, workload, seed=seed
        )
        txn = generator.cross_shard_transaction("client-0", involved=list(range(num_shards)))
        deployment.submit(txn)
        completed = deployment.run_until_clients_done(timeout=120.0)

        resolved_dependencies = 0
        expected_dependencies = txn.remote_read_count
        for op in txn.operations:
            if not op.depends_on:
                continue
            replica = deployment.replica(op.shard, 0)
            if replica.executor.already_executed(txn.txn_id):
                written = replica.executor.writes_of(txn.txn_id).get(op.key, "")
                resolved_dependencies += sum(
                    1
                    for dep_shard, dep_key in op.depends_on
                    if f"{dep_shard}:{dep_key}=" in written
                )
        latencies = deployment.latencies()
        return {
            "backend": backend,
            "completed": completed,
            "transaction": txn.txn_id,
            "is_complex": txn.is_complex,
            "expected_dependencies": expected_dependencies,
            "resolved_dependencies": resolved_dependencies,
            "latency_s": round(latencies[0], 3) if latencies else None,
        }
    finally:
        deployment.close()


def run_protocol(backend: str = "sim") -> list[dict]:
    """Protocol-mode smoke validation of Figure 10 on either backend."""
    return [run_protocol_validation(num_shards=3, remote_reads=4, backend=backend)]
