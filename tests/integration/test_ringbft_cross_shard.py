"""Integration tests: RingBFT cross-shard consensus (normal case)."""

from repro.txn.transaction import TransactionBuilder

from tests.conftest import build_cluster


def _cross_txn(cluster, shards, txn_id, remote_reads=0, client="client-0"):
    builder = TransactionBuilder(txn_id, client)
    keys = {shard: cluster.table.local_record(shard, hash(txn_id) % 50) for shard in shards}
    for shard in shards:
        builder.read(shard, keys[shard])
        deps = ()
        if remote_reads:
            others = [s for s in shards if s != shard][:remote_reads]
            deps = tuple((other, keys[other]) for other in others)
        builder.write(shard, keys[shard], f"{txn_id}@{shard}", depends_on=deps)
    return builder.build()


class TestSimpleCrossShard:
    def test_two_shard_transaction_completes(self):
        cluster = build_cluster(num_shards=2)
        txn = _cross_txn(cluster, (0, 1), "cst-2")
        cluster.submit(txn)
        assert cluster.run_until_clients_done(timeout=60.0)
        assert cluster.completed_transactions() == 1

    def test_every_involved_shard_executes_its_fragment(self):
        cluster = build_cluster(num_shards=3)
        txn = _cross_txn(cluster, (0, 1, 2), "cst-3")
        cluster.submit(txn)
        assert cluster.run_until_clients_done(timeout=60.0)
        for shard in (0, 1, 2):
            key = next(iter(txn.keys_for(shard)))
            for replica in cluster.shard_replicas(shard):
                assert replica.store.read(key) == f"cst-3@{shard}"

    def test_cross_shard_block_is_appended_on_every_involved_shard(self):
        cluster = build_cluster(num_shards=3)
        txn = _cross_txn(cluster, (0, 1, 2), "cst-ledger")
        cluster.submit(txn)
        assert cluster.run_until_clients_done(timeout=60.0)
        for shard in (0, 1, 2):
            for replica in cluster.shard_replicas(shard):
                assert replica.ledger.contains_txn("cst-ledger")

    def test_subset_of_shards_only_involves_that_subset(self):
        cluster = build_cluster(num_shards=4)
        txn = _cross_txn(cluster, (1, 3), "cst-subset")
        cluster.submit(txn)
        assert cluster.run_until_clients_done(timeout=60.0)
        for replica in cluster.shard_replicas(0) + cluster.shard_replicas(2):
            assert not replica.ledger.contains_txn("cst-subset")
            assert replica.executed_txn_count == 0

    def test_uninvolved_shards_exchange_no_forward_messages(self):
        cluster = build_cluster(num_shards=4)
        cluster.submit(_cross_txn(cluster, (0, 1), "cst-pair"))
        assert cluster.run_until_clients_done(timeout=60.0)
        for replica in cluster.shard_replicas(2) + cluster.shard_replicas(3):
            assert "Forward" not in replica.stats.sent_count

    def test_locks_are_released_after_execution(self):
        cluster = build_cluster(num_shards=3)
        cluster.submit(_cross_txn(cluster, (0, 1, 2), "cst-locks"))
        assert cluster.run_until_clients_done(timeout=60.0)
        cluster.run(duration=cluster.simulator.now + 5.0)
        for shard in (0, 1, 2):
            for replica in cluster.shard_replicas(shard):
                assert replica.locks.locked_key_count == 0

    def test_linear_communication_forward_count(self):
        # Each of the three shard-to-shard hops carries exactly n direct
        # Forwards plus n*(n-1) local-sharing copies: 3 * (4 + 12) = 48.
        cluster = build_cluster(num_shards=3)
        cluster.submit(_cross_txn(cluster, (0, 1, 2), "cst-linear"))
        assert cluster.run_until_clients_done(timeout=60.0)
        cluster.run(duration=cluster.simulator.now + 5.0)
        counts = cluster.message_counts()
        assert counts["Forward"] == 48
        assert counts["Execute"] == 48

    def test_mixed_single_and_cross_shard_workload(self):
        cluster = build_cluster(num_shards=3)
        cluster.submit(_cross_txn(cluster, (0, 1, 2), "mix-cross"))
        single = TransactionBuilder("mix-single", "client-0").read_modify_write(
            1, cluster.table.local_record(1, 5), "single-v"
        ).build()
        cluster.submit(single)
        assert cluster.run_until_clients_done(timeout=60.0)
        assert cluster.completed_transactions() == 2
        for shard in (0, 1, 2):
            assert cluster.ledgers_consistent(shard)


class TestConflictingCrossShard:
    def test_conflicting_transactions_commit_in_the_same_order_everywhere(self):
        cluster = build_cluster(num_shards=3)
        key0 = cluster.table.local_record(0, 0)
        key1 = cluster.table.local_record(1, 0)
        txn_ids = set()
        for i in range(4):
            builder = TransactionBuilder(f"conflict-{i}", "client-0")
            builder.read_modify_write(0, key0, f"a{i}")
            builder.read_modify_write(1, key1, f"b{i}")
            cluster.submit(builder.build())
            txn_ids.add(f"conflict-{i}")
        assert cluster.run_until_clients_done(timeout=120.0)
        assert cluster.completed_transactions() == 4
        # Consistence (cross-shard): conflicting transactions execute in the
        # same order on every replica of every involved shard.
        orders = set()
        for shard in (0, 1):
            for replica in cluster.shard_replicas(shard):
                orders.add(tuple(replica.ledger.commit_order(txn_ids)))
        assert len(orders) == 1
        final_values = {r.store.read(key0) for r in cluster.shard_replicas(0)}
        assert len(final_values) == 1

    def test_interleaved_conflicting_and_disjoint_transactions(self):
        cluster = build_cluster(num_shards=3)
        hot_key = cluster.table.local_record(0, 0)
        cold_key = cluster.table.local_record(0, 25)
        other = cluster.table.local_record(2, 3)
        for i in range(3):
            hot = (
                TransactionBuilder(f"hot-{i}", "client-0")
                .read_modify_write(0, hot_key, f"hot{i}")
                .read_modify_write(2, other, f"hot{i}")
                .build()
            )
            cold = (
                TransactionBuilder(f"cold-{i}", "client-0")
                .read_modify_write(0, cold_key, f"cold{i}")
                .build()
            )
            cluster.submit(hot)
            cluster.submit(cold)
        assert cluster.run_until_clients_done(timeout=120.0)
        assert cluster.completed_transactions() == 6
        assert cluster.ledgers_consistent(0)

    def test_no_deadlock_with_opposing_shard_pairs(self):
        # T1 touches shards (0, 1); T2 touches shards (1, 2); T3 touches (0, 2).
        # All three overlap pairwise; ring-order locking must not deadlock.
        cluster = build_cluster(num_shards=3)
        keys = {s: cluster.table.local_record(s, 0) for s in (0, 1, 2)}
        pairs = [("d1", (0, 1)), ("d2", (1, 2)), ("d3", (0, 2))]
        for txn_id, shards in pairs:
            builder = TransactionBuilder(txn_id, "client-0")
            for shard in shards:
                builder.read_modify_write(shard, keys[shard], f"{txn_id}@{shard}")
            cluster.submit(builder.build())
        assert cluster.run_until_clients_done(timeout=120.0)
        assert cluster.completed_transactions() == 3


class TestComplexCrossShard:
    def test_dependencies_resolved_from_remote_write_sets(self):
        cluster = build_cluster(num_shards=3)
        txn = _cross_txn(cluster, (0, 1, 2), "complex-1", remote_reads=1)
        assert txn.is_complex
        cluster.submit(txn)
        assert cluster.run_until_clients_done(timeout=60.0)
        # Shard 1's write depends on shard 0's key; the committed value must
        # embed the dependency resolved from the Execute write sets.
        key1 = next(iter(txn.keys_for(1)))
        for replica in cluster.shard_replicas(1):
            value = replica.store.read(key1)
            assert value.startswith("complex-1@1")
            assert "0:" in value

    def test_complex_transaction_completes_with_many_dependencies(self):
        cluster = build_cluster(num_shards=4)
        txn = _cross_txn(cluster, (0, 1, 2, 3), "complex-heavy", remote_reads=3)
        cluster.submit(txn)
        assert cluster.run_until_clients_done(timeout=120.0)
        assert cluster.completed_transactions() == 1

    def test_simple_and_complex_transactions_coexist(self):
        cluster = build_cluster(num_shards=3)
        cluster.submit(_cross_txn(cluster, (0, 1, 2), "coexist-simple"))
        cluster.submit(_cross_txn(cluster, (0, 1, 2), "coexist-complex", remote_reads=2))
        assert cluster.run_until_clients_done(timeout=120.0)
        assert cluster.completed_transactions() == 2


class TestRingOrderVariants:
    def test_custom_ring_permutation_still_completes(self):
        from repro.engine import Deployment
        from repro.config import ShardConfig, SystemConfig

        from tests.conftest import small_workload

        config = SystemConfig(
            shards=tuple(ShardConfig(i, 4) for i in range(3)),
            workload=small_workload(),
            ring_order=(2, 0, 1),
        )
        cluster = Deployment.build(config, backend="sim", num_clients=1, batch_size=1)
        txn = _cross_txn(cluster, (0, 1, 2), "perm-cst")
        cluster.submit(txn)
        assert cluster.run_until_clients_done(timeout=60.0)
        assert cluster.completed_transactions() == 1

    def test_heterogeneous_shard_sizes(self):
        from repro.engine import Deployment
        from repro.config import ShardConfig, SystemConfig

        from tests.conftest import small_workload

        config = SystemConfig(
            shards=(ShardConfig(0, 4), ShardConfig(1, 7)),
            workload=small_workload(),
        )
        cluster = Deployment.build(config, backend="sim", num_clients=1, batch_size=1)
        txn = _cross_txn(cluster, (0, 1), "hetero-cst")
        cluster.submit(txn)
        assert cluster.run_until_clients_done(timeout=60.0)
        assert cluster.completed_transactions() == 1
        for shard in (0, 1):
            key = next(iter(txn.keys_for(shard)))
            values = {r.store.read(key) for r in cluster.shard_replicas(shard)}
            assert values == {f"hetero-cst@{shard}"}
