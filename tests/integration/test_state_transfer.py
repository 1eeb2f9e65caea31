"""Integration tests: checkpoint-driven state transfer (dark replicas, recovery)."""

from repro.config import SystemConfig, TimerConfig
from repro.core.replica import RingBftReplica
from repro.engine import Deployment
from repro.faults.injector import FaultInjector
from repro.txn.transaction import TransactionBuilder

from tests.conftest import small_workload


def _cluster(checkpoint_interval=2, num_shards=1):
    timers = TimerConfig(
        local_timeout=1.0,
        remote_timeout=2.0,
        transmit_timeout=3.0,
        client_timeout=1.5,
        checkpoint_interval=checkpoint_interval,
    )
    config = SystemConfig.uniform(
        num_shards, 4, timers=timers, workload=small_workload()
    )
    return Deployment.build(
        config, backend="sim", replica_class=RingBftReplica, num_clients=1, batch_size=1
    )


def _txn(cluster, shard, index, txn_id):
    key = cluster.table.local_record(shard, index)
    return TransactionBuilder(txn_id, "client-0").read_modify_write(shard, key, f"{txn_id}-v").build()


class TestDarkReplicaCatchUp:
    def test_dark_replica_adopts_peer_state(self):
        cluster = _cluster(checkpoint_interval=2)
        # The primary keeps replica r3 in the dark: it never sees PrePrepares,
        # so it cannot commit anything on its own.
        victim = cluster.replica(0, 3)
        cluster.primary_of(0).dark_targets = {victim.replica_id}

        for i in range(8):
            cluster.submit(_txn(cluster, 0, i, f"dark-{i}"))
        assert cluster.run_until_clients_done(timeout=120.0)
        cluster.run(duration=cluster.simulator.now + 10.0)

        # The dark replica caught up through state transfer, not consensus.
        assert victim.state_transfers_completed >= 1
        assert victim.last_executed >= 4
        reference = cluster.replica(0, 1)
        # Every value the victim adopted agrees with the healthy replicas
        # (the adopted snapshot is a consistent prefix of their execution).
        adopted = 0
        for i in range(8):
            key = cluster.table.local_record(0, i)
            value = victim.store.read(key)
            if value != "init":
                assert value == reference.store.read(key)
                adopted += 1
        assert adopted >= 4
        # Its ledger adopted the peers' blocks and still verifies.
        assert victim.ledger.verify_chain()
        assert victim.ledger.height >= 4

    def test_healthy_replicas_do_not_request_state_transfers(self):
        cluster = _cluster(checkpoint_interval=2)
        for i in range(6):
            cluster.submit(_txn(cluster, 0, i, f"healthy-{i}"))
        assert cluster.run_until_clients_done(timeout=60.0)
        cluster.run(duration=cluster.simulator.now + 5.0)
        assert all(r.state_transfers_completed == 0 for r in cluster.shard_replicas(0))
        assert all(
            "StateTransferRequest" not in r.stats.sent_count for r in cluster.shard_replicas(0)
        )

    def test_state_transfer_answers_retransmitted_requests(self):
        cluster = _cluster(checkpoint_interval=2)
        victim = cluster.replica(0, 3)
        cluster.primary_of(0).dark_targets = {victim.replica_id}
        txn = _txn(cluster, 0, 0, "retry-after-catchup")
        cluster.submit(txn)
        for i in range(6):
            cluster.submit(_txn(cluster, 0, i + 1, f"filler-{i}"))
        assert cluster.run_until_clients_done(timeout=120.0)
        cluster.run(duration=cluster.simulator.now + 10.0)
        if victim.state_transfers_completed:
            # The adopted snapshot answers retransmissions without re-execution.
            assert victim.executor.already_executed("retry-after-catchup")

    def test_recovered_replica_catches_up(self):
        cluster = _cluster(checkpoint_interval=2)
        injector = FaultInjector(cluster)
        injector.crash_replica(0, 2)
        for i in range(6):
            cluster.submit(_txn(cluster, 0, i, f"recover-{i}"))
        assert cluster.run_until_clients_done(timeout=60.0)
        injector.recover_replica(0, 2)
        # Drive a few more transactions so checkpoints reveal the lag.
        for i in range(4):
            cluster.submit(_txn(cluster, 0, i, f"post-recover-{i}"))
        assert cluster.run_until_clients_done(timeout=120.0)
        cluster.run(duration=cluster.simulator.now + 10.0)
        recovered = cluster.replica(0, 2)
        reference = cluster.replica(0, 1)
        assert recovered.state_transfers_completed >= 1
        assert recovered.last_executed >= reference.last_executed - 2 * 2


class TestStateTransferSafety:
    def test_single_reply_is_not_enough_to_install(self):
        cluster = _cluster(checkpoint_interval=2)
        victim = cluster.replica(0, 3)
        from repro.common.messages import StateTransferReply

        victim._state_transfer_in_flight = True
        reply = StateTransferReply(
            sender=cluster.replica(0, 1).replica_id,
            last_executed=50,
            state_digest=b"\x01" * 32,
            store_snapshot={"userX": "forged"},
            executed_txn_ids=("forged-txn",),
        )
        victim._handle_state_reply(reply)
        # Only one (possibly Byzantine) voucher: nothing installed.
        assert victim.last_executed == 0
        assert victim.state_transfers_completed == 0

    def test_matching_weak_quorum_installs_snapshot(self):
        cluster = _cluster(checkpoint_interval=2)
        victim = cluster.replica(0, 3)
        from repro.common.messages import StateTransferReply

        victim._state_transfer_in_flight = True
        snapshot = {"user0": "adopted-value"}
        digest = victim._state_snapshot_digest(snapshot, 7, ("adopted-txn",))
        for index in (0, 1):
            reply = StateTransferReply(
                sender=cluster.replica(0, index).replica_id,
                last_executed=7,
                state_digest=digest,
                store_snapshot=snapshot,
                executed_txn_ids=("adopted-txn",),
            )
            victim._handle_state_reply(reply)
        assert victim.state_transfers_completed == 1
        assert victim.last_executed == 7
        assert victim.store.read("user0") == "adopted-value"
        assert victim.executor.already_executed("adopted-txn")

    def test_reply_with_an_honest_digest_over_forged_state_is_dropped(self):
        """A Byzantine peer copies an honest ``state_digest`` onto a forged
        snapshot; the receiver recomputes the digest, so the forgery never
        counts towards the honest replies' quorum nor gets installed."""
        cluster = _cluster(checkpoint_interval=2)
        victim = cluster.replica(0, 3)
        from repro.common.messages import StateTransferReply

        victim._state_transfer_in_flight = True
        snapshot = {"user0": "honest-value"}
        digest = victim._state_snapshot_digest(snapshot, 7, ("honest-txn",))

        def reply(index, store_snapshot, executed_txn_ids):
            return StateTransferReply(
                sender=cluster.replica(0, index).replica_id,
                last_executed=7,
                state_digest=digest,
                store_snapshot=store_snapshot,
                executed_txn_ids=executed_txn_ids,
            )

        victim._handle_state_reply(reply(2, {"user0": "forged"}, ("forged-txn",)))
        victim._handle_state_reply(reply(1, snapshot, ("honest-txn",)))
        assert victim.state_transfers_completed == 0
        assert victim.store.read("user0") != "forged"
        assert not victim.executor.already_executed("forged-txn")

        victim._handle_state_reply(reply(0, snapshot, ("honest-txn",)))
        assert victim.state_transfers_completed == 1
        assert victim.store.read("user0") == "honest-value"
        assert victim.executor.already_executed("honest-txn")
        assert not victim.executor.already_executed("forged-txn")
