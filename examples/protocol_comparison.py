"""Protocol comparison: RingBFT vs AHL vs Sharper on the same workload.

Runs the same small cross-shard-heavy workload through all three sharding BFT
protocols in the message-level simulator and compares what each one paid for
it: cross-shard messages, bytes on the wire, and client latency.  The shapes
mirror Section 2's analysis -- AHL concentrates work on its reference
committee, Sharper pays two global all-to-all rounds, RingBFT keeps
shard-to-shard communication linear.

It then repeats the comparison with the analytical model at the paper's full
scale (15 shards x 28 replicas, 30% cross-shard) to show the corresponding
throughput gap of Figure 8.

Run with::

    python examples/protocol_comparison.py
"""

from __future__ import annotations

import argparse

from repro.analytical import DeploymentSpec, estimate, model_by_name
from repro.baselines.ahl.replica import AhlReplica
from repro.baselines.sharper.replica import SharperReplica
from repro.config import SystemConfig, WorkloadConfig
from repro.engine import BACKENDS, Deployment
from repro.core.replica import RingBftReplica
from repro.metrics.collector import summarize
from repro.workloads.ycsb import YcsbWorkloadGenerator

PROTOCOLS = {
    "RingBFT": RingBftReplica,
    "AHL": AhlReplica,
    "Sharper": SharperReplica,
}

CROSS_SHARD_MESSAGES = {
    "RingBFT": ("Forward", "Execute", "RemoteView"),
    "AHL": ("Prepare2PC", "Vote2PC", "CommitteeVote", "Decide2PC"),
    "Sharper": ("CrossPropose", "CrossPrepare", "CrossCommit"),
}


def run_protocol(name: str, replica_class, backend: str = "sim") -> dict:
    workload = WorkloadConfig(
        num_records=600, cross_shard_fraction=0.6, batch_size=1, num_clients=2, seed=99
    )
    config = SystemConfig.uniform(4, 4, workload=workload)
    cluster = Deployment.build(
        config, backend=backend, replica_class=replica_class, num_clients=2, batch_size=1,
        seed=99,
    )
    generator = YcsbWorkloadGenerator(cluster.table, cluster.directory.ring, workload, seed=99)

    transactions = generator.generate(20, "client-0") + generator.generate(10, "client-1")
    for i, txn in enumerate(transactions):
        cluster.submit(txn, f"client-{0 if i < 20 else 1}")
    cluster.run_until_clients_done(timeout=300.0)
    cluster.backend.run_for(5.0)

    counts = cluster.message_counts()
    cross_messages = sum(counts.get(m, 0) for m in CROSS_SHARD_MESSAGES[name])
    records = [record for client in cluster.clients.values() for record in client.completed]
    summary = summarize(records)
    bytes_total = sum(replica.stats.total_bytes for replica in cluster.replicas.values())
    cluster.close()
    return {
        "completed": summary.completed,
        "avg_latency_ms": summary.avg_latency * 1000,
        "total_messages": cluster.total_messages(),
        "cross_shard_messages": cross_messages,
        "megabytes_sent": bytes_total / 1e6,
    }


def main(backend: str = "sim") -> None:
    print(f"protocol-mode comparison (4 shards x 4 replicas, 30 transactions, 60% cross-shard, "
          f"{backend!r} backend)\n")
    header = f"{'protocol':10s} {'done':>5s} {'avg latency':>12s} {'messages':>10s} {'cross-shard':>12s} {'MB sent':>9s}"
    print(header)
    print("-" * len(header))
    for name, replica_class in PROTOCOLS.items():
        result = run_protocol(name, replica_class, backend)
        print(
            f"{name:10s} {result['completed']:5d} {result['avg_latency_ms']:10.1f}ms "
            f"{result['total_messages']:10d} {result['cross_shard_messages']:12d} "
            f"{result['megabytes_sent']:9.2f}"
        )

    print("\npaper-scale estimate (analytical model, 15 shards x 28 replicas, 30% cross-shard)\n")
    spec = DeploymentSpec()
    print(f"{'protocol':10s} {'throughput':>14s} {'latency':>10s} {'bottleneck':>26s}")
    print("-" * 64)
    results = {}
    for name in PROTOCOLS:
        estimate_result = estimate(model_by_name(name), spec)
        results[name] = estimate_result
        print(
            f"{name:10s} {estimate_result.throughput_tps:11.0f} tps "
            f"{estimate_result.latency_s:8.2f}s {estimate_result.bottleneck:>26s}"
        )
    ring = results["RingBFT"].throughput_tps
    print(
        f"\nRingBFT advantage: {ring / results['Sharper'].throughput_tps:.1f}x over Sharper, "
        f"{ring / results['AHL'].throughput_tps:.1f}x over AHL "
        f"(the paper reports up to 4x and 16-18x)."
    )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--backend", choices=sorted(BACKENDS), default="sim")
    main(parser.parse_args().backend)
