"""Integration tests: the Deployment harness and the workload drivers."""

import pytest

from repro.config import SystemConfig
from repro.engine import Deployment, OpenLoopWorkloadDriver, WorkloadDriver
from repro.errors import ConfigurationError
from repro.metrics.collector import summarize
from repro.workloads.ycsb import YcsbWorkloadGenerator

from tests.conftest import build_cluster, small_workload


class TestClusterConstruction:
    def test_build_creates_all_replicas_and_clients(self):
        cluster = build_cluster(num_shards=3, replicas=4, num_clients=2)
        assert len(cluster.replicas) == 12
        assert len(cluster.clients) == 2
        assert cluster.replica(2, 3).shard_id == 2

    def test_replicas_are_preloaded_with_their_partition(self):
        cluster = build_cluster(num_shards=2)
        for shard in (0, 1):
            expected = set(cluster.table.build_partition(shard))
            for replica in cluster.shard_replicas(shard):
                assert set(replica.store.items()) == expected

    def test_duplicate_client_rejected(self):
        cluster = build_cluster()
        with pytest.raises(ConfigurationError):
            cluster.add_client("client-0")

    def test_primary_accessor_follows_view(self):
        cluster = build_cluster()
        assert cluster.primary_of(0).replica_id.index == 0
        assert cluster.primary_of(0, view=2).replica_id.index == 2

    def test_message_and_metric_accessors_start_empty(self):
        cluster = build_cluster()
        assert cluster.total_messages() == 0
        assert cluster.completed_transactions() == 0
        assert cluster.latencies() == []


class TestDrivers:
    def _cluster_with_generator(self, cross=0.4, num_clients=2):
        cluster = build_cluster(num_shards=3, num_clients=num_clients, cross_shard_fraction=cross)
        generator = YcsbWorkloadGenerator(
            cluster.table,
            cluster.directory.ring,
            small_workload(cross_shard_fraction=cross),
            seed=11,
        )
        return cluster, generator

    def test_closed_loop_driver_completes_requested_transactions(self):
        cluster, generator = self._cluster_with_generator()
        driver = WorkloadDriver(cluster, generator, total=12, window=2)
        result = driver.run(timeout=300.0)
        assert result.completed == 12
        assert driver.submitted == 12
        summary = summarize(
            [record for client in cluster.clients.values() for record in client.completed]
        )
        assert summary.completed == 12
        assert summary.throughput > 0

    def test_open_loop_driver_injects_at_configured_rate(self):
        cluster, generator = self._cluster_with_generator(cross=0.0, num_clients=2)
        driver = OpenLoopWorkloadDriver(cluster, generator, rate_per_second=10.0, duration=2.0)
        result = driver.run(extra_drain=20.0)
        assert driver.submitted == 20
        assert result.completed == 20

    def test_completion_count_matches_every_clients_records(self):
        # The deployment keeps a running count for its per-event predicates;
        # across drivers and a client added mid-run it stays the plain sum.
        cluster, generator = self._cluster_with_generator(cross=0.3)
        WorkloadDriver(cluster, generator, total=6, window=2).run(timeout=300.0)
        cluster.add_client("client-late")
        OpenLoopWorkloadDriver(cluster, generator, rate_per_second=10.0, duration=1.0).run(
            extra_drain=20.0
        )
        records = sum(len(client.completed) for client in cluster.clients.values())
        assert cluster.clients["client-late"].completed
        assert cluster.completed_transactions() == records == 16

    def test_ledgers_stay_consistent_under_driver_load(self):
        cluster, generator = self._cluster_with_generator(cross=0.5)
        WorkloadDriver(cluster, generator, total=10, window=2).run(timeout=300.0)
        for shard in cluster.config.shard_ids:
            assert cluster.ledgers_consistent(shard)


class TestUniformConfigIntegration:
    def test_paper_scale_configuration_is_constructible(self):
        # Building the object graph for the paper's 420-replica deployment
        # must be cheap (no simulation is run here).
        config = SystemConfig.uniform(15, 28)
        cluster = Deployment.build(config, backend="sim", num_clients=1, preload_table=False)
        assert len(cluster.replicas) == 420
        assert cluster.directory.quorum(0).commit_quorum == 19
