"""Heap a sim deployment retains per committed transaction.

What a replica keeps per transaction for good (its executed writes, ledger
blocks, exactly-once ids) sets the memory bound of a long run, so it has a
budget.  The heap is measured with ``tracemalloc`` from the end of setup to
the end of a closed-loop run, after a full collection: only what the run
left behind counts, not its transient peak.
"""

import gc
import tracemalloc

from repro.config import SystemConfig, TimerConfig, WorkloadConfig
from repro.engine import Deployment
from repro.engine.driver import WorkloadDriver
from repro.workloads.ycsb import YcsbWorkloadGenerator

#: Traced heap growth allowed per committed transaction on the 2 x 4 run below.
BUDGET_BYTES_PER_TXN = 10 * 1024


def test_retained_heap_per_committed_transaction_stays_within_budget():
    # Fault timers far beyond the run, so none fires: every timer the run
    # arms is cancelled, and a cancelled timer must not hold its callback.
    timers = TimerConfig(
        local_timeout=30.0, remote_timeout=60.0, transmit_timeout=90.0, client_timeout=120.0
    )
    workload = WorkloadConfig(
        num_records=2_000, cross_shard_fraction=0.3, batch_size=10, num_clients=2, seed=2022
    )
    config = SystemConfig.uniform(2, 4, timers=timers, workload=workload)
    with Deployment.build(config, backend="sim", num_clients=0, batch_size=10, seed=2022) as deployment:
        for shard in config.shards:
            deployment.add_client(f"client-{shard.shard_id}", region=shard.region)
        generator = YcsbWorkloadGenerator(
            deployment.table, deployment.directory.ring, workload, seed=2022
        )
        driver = WorkloadDriver(deployment, generator, total=800, window=4, poll_interval=0.005)
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            result = driver.run(timeout=600.0, check_consistency=False)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert result.completed == 800
        assert all(deployment.ledgers_consistent(shard.shard_id) for shard in config.shards)
        per_txn = retained / result.completed
        assert per_txn <= BUDGET_BYTES_PER_TXN, (
            f"{per_txn / 1024:.1f} KB retained per committed transaction"
        )
