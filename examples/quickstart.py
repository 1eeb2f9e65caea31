"""Quickstart: a three-shard RingBFT deployment on a pluggable backend.

Builds a small sharded deployment (3 shards x 4 replicas), submits one
single-shard transaction and one cross-shard transaction through a client,
drives the execution backend until both complete, and prints what happened:
latencies, the messages each protocol phase produced, and the per-shard
ledgers.

The same code runs on either execution engine::

    python examples/quickstart.py                      # deterministic simulator
    python examples/quickstart.py --backend socket     # real TCP loopback
"""

from __future__ import annotations

import argparse

from repro import Deployment, SystemConfig, TransactionBuilder
from repro.config import WorkloadConfig
from repro.engine import BACKENDS


def main(backend: str = "sim") -> None:
    # ------------------------------------------------------------------
    # 1. Describe the deployment: 3 shards of 4 replicas, tiny YCSB table.
    # ------------------------------------------------------------------
    config = SystemConfig.uniform(
        num_shards=3,
        replicas_per_shard=4,
        workload=WorkloadConfig(num_records=300, batch_size=1, num_clients=1),
    )
    deployment = Deployment.build(config, backend=backend, num_clients=1, batch_size=1)
    print(f"deployment: {config.num_shards} shards x {config.shards[0].num_replicas} replicas "
          f"({config.total_replicas} replicas total) on the {backend!r} backend, "
          f"ring order {deployment.directory.ring.order}")

    # ------------------------------------------------------------------
    # 2. Submit a single-shard transaction (ordered by shard 0 alone).
    # ------------------------------------------------------------------
    single = (
        TransactionBuilder("quickstart-single", "client-0")
        .read_modify_write(0, "user5", "hello-from-shard-0")
        .build()
    )

    # ------------------------------------------------------------------
    # 3. And a cross-shard transaction touching all three shards; it will
    #    travel the ring (process, forward, re-transmit) and execute on every
    #    involved shard.
    # ------------------------------------------------------------------
    cross = (
        TransactionBuilder("quickstart-cross", "client-0")
        .read_modify_write(0, "user10", "ring-step-0")
        .read_modify_write(1, "user150", "ring-step-1")
        .read_modify_write(2, "user250", "ring-step-2")
        .build()
    )

    # ------------------------------------------------------------------
    # 4. Run the workload until the client has both responses; the result is
    #    the same RunResult structure on either backend.
    # ------------------------------------------------------------------
    result = deployment.run_workload([single, cross], timeout=60.0)
    print(f"\nall transactions completed: {result.all_completed} "
          f"(protocol time {result.duration_s:.3f}s, wall clock {result.wall_clock_s:.3f}s)")
    for record in deployment.client.completed:
        kind = "cross-shard" if record.cross_shard else "single-shard"
        print(f"  {record.txn_id:22s} {kind:12s} latency = {record.latency * 1000:7.1f} ms")

    # ------------------------------------------------------------------
    # 5. Inspect what the protocol did.
    # ------------------------------------------------------------------
    print("\nmessages exchanged (all replicas):")
    for name, count in sorted(result.message_counts.items()):
        print(f"  {name:15s} {count:5d}")

    print("\nper-shard ledgers:")
    for shard in config.shard_ids:
        primary = deployment.primary_of(shard)
        blocks = [block.txn_ids for block in primary.ledger.blocks()[1:]]
        consistent = deployment.ledgers_consistent(shard)
        print(f"  shard {shard}: {len(blocks)} block(s) {blocks} | replicas consistent: {consistent}")

    print("\ncommitted values:")
    for shard, key in ((0, "user10"), (1, "user150"), (2, "user250")):
        value = deployment.primary_of(shard).store.read(key)
        print(f"  shard {shard} {key} = {value!r}")

    deployment.close()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--backend", choices=sorted(BACKENDS), default="sim")
    main(parser.parse_args().backend)
