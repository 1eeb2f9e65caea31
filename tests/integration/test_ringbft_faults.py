"""Integration tests: RingBFT under crash, Byzantine, and network attacks (Section 5)."""


from repro.config import SystemConfig, TimerConfig
from repro.core.replica import RingBftReplica
from repro.engine import Deployment
from repro.faults.injector import FaultInjector
from repro.txn.transaction import TransactionBuilder

from tests.conftest import small_workload


def _fault_cluster(num_shards=3, replicas=4, seed=2022):
    """Deployment with short timers so recovery paths run quickly in tests."""
    timers = TimerConfig(
        local_timeout=1.0, remote_timeout=2.0, transmit_timeout=3.0, client_timeout=1.5
    )
    config = SystemConfig.uniform(
        num_shards, replicas, timers=timers, workload=small_workload()
    )
    return Deployment.build(
        config, backend="sim", replica_class=RingBftReplica, num_clients=1, batch_size=1, seed=seed
    )


def _single_txn(cluster, shard, txn_id):
    key = cluster.table.local_record(shard, 0)
    return TransactionBuilder(txn_id, "client-0").read_modify_write(shard, key, f"{txn_id}-v").build()


def _cross_txn(cluster, shards, txn_id):
    builder = TransactionBuilder(txn_id, "client-0")
    for shard in shards:
        key = cluster.table.local_record(shard, 1)
        builder.read_modify_write(shard, key, f"{txn_id}@{shard}")
    return builder.build()


class TestPrimaryCrash:
    def test_crashed_primary_is_replaced_and_request_completes(self):
        cluster = _fault_cluster()
        FaultInjector(cluster).crash_primary(0)
        cluster.submit(_single_txn(cluster, 0, "after-crash"))
        assert cluster.run_until_clients_done(timeout=120.0)
        alive = [r for r in cluster.shard_replicas(0) if not r.crashed]
        assert all(r.view >= 1 for r in alive)
        assert cluster.completed_transactions() == 1

    def test_other_shards_unaffected_by_a_crash(self):
        cluster = _fault_cluster()
        FaultInjector(cluster).crash_primary(0)
        cluster.submit(_single_txn(cluster, 1, "healthy-shard"))
        assert cluster.run_until_clients_done(timeout=60.0)
        assert all(r.view == 0 for r in cluster.shard_replicas(1))

    def test_crash_during_cross_shard_transaction(self):
        cluster = _fault_cluster()
        FaultInjector(cluster).crash_primary(1, at=0.02)
        cluster.submit(_cross_txn(cluster, (0, 1, 2), "cst-crash"))
        assert cluster.run_until_clients_done(timeout=200.0)
        assert cluster.completed_transactions() == 1
        for shard in (0, 1, 2):
            assert cluster.ledgers_consistent(shard)

    def test_crash_of_initiator_primary(self):
        cluster = _fault_cluster()
        FaultInjector(cluster).crash_primary(0, at=0.02)
        cluster.submit(_cross_txn(cluster, (0, 1, 2), "cst-initiator-crash"))
        assert cluster.run_until_clients_done(timeout=200.0)
        assert cluster.completed_transactions() == 1

    def test_non_primary_crash_does_not_disturb_consensus(self):
        cluster = _fault_cluster()
        FaultInjector(cluster).crash_replica(0, 3)
        cluster.submit(_single_txn(cluster, 0, "minority-crash"))
        assert cluster.run_until_clients_done(timeout=60.0)
        assert all(r.view == 0 for r in cluster.shard_replicas(0) if not r.crashed)


class TestByzantinePrimary:
    def test_silent_primary_triggers_view_change(self):
        cluster = _fault_cluster()
        FaultInjector(cluster).silence_primary(0)
        cluster.submit(_single_txn(cluster, 0, "silent-primary"))
        assert cluster.run_until_clients_done(timeout=200.0)
        alive_views = {r.view for r in cluster.shard_replicas(0) if not r.crashed}
        assert max(alive_views) >= 1
        assert cluster.completed_transactions() == 1

    def test_dark_attack_still_commits_with_quorum(self):
        cluster = _fault_cluster()
        FaultInjector(cluster).dark_attack(0)
        cluster.submit(_single_txn(cluster, 0, "dark"))
        assert cluster.run_until_clients_done(timeout=120.0)
        assert cluster.completed_transactions() == 1
        executed = [r.executed_txn_count for r in cluster.shard_replicas(0)]
        # At least the quorum executed; the dark replica may lag behind.
        assert sum(1 for count in executed if count >= 1) >= 3


class TestCrossShardAttacks:
    def test_partial_communication_triggers_remote_view_change(self):
        # All but one replica of the initiator shard drop their Forward
        # messages: the next shard cannot collect f+1 matching Forwards, its
        # remote timer fires, and shard 0 is forced into a view change
        # (Figure 6), after which the transaction still completes.
        cluster = _fault_cluster()
        FaultInjector(cluster).drop_forwards(0, replicas=3)
        cluster.submit(_cross_txn(cluster, (0, 1), "cst-partial"))
        cluster.run_until_clients_done(timeout=300.0)
        remote_views_sent = sum(
            replica.stats.sent_count.get("RemoteView", 0)
            for replica in cluster.shard_replicas(1)
        )
        assert remote_views_sent >= 1
        assert max(r.view for r in cluster.shard_replicas(0) if not r.crashed) >= 1

    def test_forward_retransmission_after_transient_link_failure(self):
        cluster = _fault_cluster()
        injector = FaultInjector(cluster)
        # Block shard0 -> shard1 for a while; the transmit timer re-sends the
        # Forward messages after the link heals.
        injector.block_cross_shard_link(0, 1)
        injector.heal_cross_shard_link(0, 1, at=4.0)
        cluster.submit(_cross_txn(cluster, (0, 1), "cst-retransmit"))
        assert cluster.run_until_clients_done(timeout=300.0)
        assert cluster.completed_transactions() == 1
        retransmissions = sum(
            record.retransmissions
            for replica in cluster.shard_replicas(0)
            for record in replica._cross_records.values()
        )
        assert retransmissions >= 1

    def test_progress_under_light_message_loss(self):
        cluster = _fault_cluster(seed=5)
        FaultInjector(cluster).set_message_loss(0.02)
        for i in range(3):
            cluster.submit(_cross_txn(cluster, (0, 1, 2), f"lossy-{i}"))
        assert cluster.run_until_clients_done(timeout=300.0)
        assert cluster.completed_transactions() == 3


class TestClientRecovery:
    def test_client_rebroadcast_reaches_a_working_replica(self):
        cluster = _fault_cluster()
        # Crash the primary before the request is even sent: the client's
        # first transmission is lost and its timer-driven broadcast recovers.
        FaultInjector(cluster).crash_primary(0)
        cluster.submit(_single_txn(cluster, 0, "client-retry"))
        assert cluster.run_until_clients_done(timeout=200.0)
        assert cluster.client.completed[0].txn_id == "client-retry"

    def test_duplicate_completion_is_not_recorded_twice(self):
        cluster = _fault_cluster()
        cluster.submit(_single_txn(cluster, 0, "dup"))
        assert cluster.run_until_clients_done(timeout=60.0)
        cluster.run(duration=cluster.simulator.now + 5.0)
        assert cluster.client.completed_count == 1
