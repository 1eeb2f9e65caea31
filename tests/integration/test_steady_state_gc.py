"""Integration tests: checkpoint-driven garbage collection is safe and effective.

The GC watermark must truncate aggressively enough to bound steady-state
memory, yet never discard evidence that a view change, a dark-replica
catch-up, or an in-flight cross-shard rotation still needs.
"""

import pytest

from repro.config import SystemConfig, TimerConfig, WorkloadConfig
from repro.core.replica import RingBftReplica
from repro.engine import Deployment, run_sustained_load
from repro.faults.injector import FaultInjector
from repro.metrics.collector import MIN_FLAT_SAMPLES, RetainedStateSeries
from repro.txn.transaction import TransactionBuilder

from tests.conftest import small_workload


def _cluster(checkpoint_interval=2, num_shards=1, max_forward_retransmissions=50):
    timers = TimerConfig(
        local_timeout=1.0,
        remote_timeout=2.0,
        transmit_timeout=3.0,
        client_timeout=1.5,
        checkpoint_interval=checkpoint_interval,
        max_forward_retransmissions=max_forward_retransmissions,
    )
    config = SystemConfig.uniform(num_shards, 4, timers=timers, workload=small_workload())
    return Deployment.build(
        config, backend="sim", replica_class=RingBftReplica, num_clients=1, batch_size=1
    )


def _single_txn(cluster, shard, index, txn_id):
    key = cluster.table.local_record(shard, index)
    return (
        TransactionBuilder(txn_id, "client-0").read_modify_write(shard, key, f"{txn_id}-v").build()
    )


def _cross_txn(cluster, txn_id, shards=(0, 1)):
    builder = TransactionBuilder(txn_id, "client-0")
    for shard in shards:
        builder.read_modify_write(shard, cluster.table.local_record(shard, 1), f"{txn_id}@{shard}")
    return builder.build()


class TestLogTruncation:
    def test_stable_checkpoints_truncate_consensus_state(self):
        cluster = _cluster(checkpoint_interval=2)
        for i in range(10):
            cluster.submit(_single_txn(cluster, 0, i, f"gc-{i}"))
        assert cluster.run_until_clients_done(timeout=120.0)
        cluster.run(duration=cluster.simulator.now + 5.0)
        for replica in cluster.shard_replicas(0):
            assert replica.gc_runs >= 1
            assert replica.checkpoints.last_stable_sequence >= 8
            # Retained state is bounded by the checkpoint window, not by the
            # ten committed sequences.
            assert replica.log.slot_count <= 2 * 2 + 2
            assert len(replica.batches) <= 2 * 2 + 2
            assert replica.checkpoints.stable_record_count <= replica.checkpoints.keep_stable

    def test_cross_shard_records_are_retired_after_completion(self):
        cluster = _cluster(checkpoint_interval=2, num_shards=2)
        for i in range(4):
            cluster.submit(_cross_txn(cluster, f"cross-{i}"))
        assert cluster.run_until_clients_done(timeout=180.0)
        # Push every shard past another checkpoint so the sweep runs.
        for i in range(6):
            cluster.submit(_single_txn(cluster, 0, i + 10, f"pad0-{i}"))
            cluster.submit(_single_txn(cluster, 1, i + 10, f"pad1-{i}"))
        assert cluster.run_until_clients_done(timeout=180.0)
        cluster.run(duration=cluster.simulator.now + 10.0)
        for shard in (0, 1):
            for replica in cluster.shard_replicas(shard):
                assert replica.cross_records_retired >= 1
                assert len(replica._cross_records) <= 2
                assert replica.pending_cross_shard() == ()


class TestSustainedLoadPlateau:
    """Retained state plateaus over a long sustained run.

    The absolute bound is the control: without GC the consensus log alone
    outgrows it within 20 checkpoint intervals, so a GC that stops running
    fails here even where the half-split flatness check might not.
    """

    #: Gauges that grow with committed work unless checkpoint GC truncates them.
    FLAT_GAUGES = ("log_slots", "batches", "cross_records", "committed_txn_ids")

    def test_retained_state_is_flat_and_bounded_by_the_checkpoint_interval(self):
        shards, replicas, checkpoint_interval, seed = 2, 4, 4, 7
        timers = TimerConfig(
            local_timeout=1.0,
            remote_timeout=2.0,
            transmit_timeout=3.0,
            client_timeout=1.5,
            checkpoint_interval=checkpoint_interval,
        )
        workload = WorkloadConfig(
            num_records=400, cross_shard_fraction=0.2, batch_size=1, num_clients=2, seed=seed
        )
        config = SystemConfig.uniform(shards, replicas, timers=timers, workload=workload)
        result, driver = run_sustained_load(
            config,
            rate_per_second=50.0,
            checkpoint_intervals=20,
            seed=seed,
            sample_interval=0.2,
        )
        assert result.completed == result.submitted
        assert result.ledgers_consistent
        assert driver.stable_floor() >= driver.target_sequence
        # O(checkpoint_interval + in-flight) per replica, never O(committed):
        # up to two checkpoint windows of GC lag plus in-flight work.
        bound = shards * replicas * (6 * checkpoint_interval + 32)
        series = driver.series
        for gauge in self.FLAT_GAUGES:
            assert series.is_flat(gauge, min_samples=MIN_FLAT_SAMPLES), (
                gauge,
                series.growth_ratio(gauge),
            )
            assert series.peak(gauge) <= bound, (gauge, series.peak(gauge), bound)

    def test_flatness_verdict_refuses_a_short_series(self):
        series = RetainedStateSeries()
        for step in range(MIN_FLAT_SAMPLES - 1):
            series.record(time=step * 0.2, committed_batches=step, gauges={"log_slots": 4})
        with pytest.raises(ValueError, match="unreliable"):
            series.is_flat("log_slots", min_samples=MIN_FLAT_SAMPLES)


class TestViewChangeAfterTruncation:
    def test_view_change_succeeds_after_logs_were_truncated(self):
        cluster = _cluster(checkpoint_interval=2)
        for i in range(8):
            cluster.submit(_single_txn(cluster, 0, i, f"pre-vc-{i}"))
        assert cluster.run_until_clients_done(timeout=120.0)
        assert all(r.gc_runs >= 1 for r in cluster.shard_replicas(0))

        # The primary goes silent: replicas must view-change using only the
        # evidence that survived truncation.
        cluster.primary_of(0).byzantine_silent = True
        for i in range(3):
            cluster.submit(_single_txn(cluster, 0, i + 20, f"post-vc-{i}"))
        assert cluster.run_until_clients_done(timeout=180.0)
        replicas = [r for r in cluster.shard_replicas(0) if not r.byzantine_silent]
        assert any(r.view >= 1 for r in replicas)
        assert cluster.ledgers_consistent(0)

    def test_dark_replica_catches_up_after_peers_truncated(self):
        cluster = _cluster(checkpoint_interval=2)
        victim = cluster.replica(0, 3)
        cluster.primary_of(0).dark_targets = {victim.replica_id}
        for i in range(8):
            cluster.submit(_single_txn(cluster, 0, i, f"dark-gc-{i}"))
        assert cluster.run_until_clients_done(timeout=120.0)
        cluster.run(duration=cluster.simulator.now + 10.0)
        healthy = [r for r in cluster.shard_replicas(0) if r is not victim]
        # Healthy replicas truncated their logs...
        assert all(r.gc_runs >= 1 for r in healthy)
        # ...and the dark replica still caught up (via state transfer).
        assert victim.state_transfers_completed >= 1
        assert victim.last_executed >= 4
        # A replica that lags must never truncate evidence it has not applied:
        # its own GC watermark trails its execution point.
        assert victim.gc_watermark <= victim.last_executed


class TestInFlightRotationSafety:
    def test_pending_cross_shard_survives_checkpoint_truncation(self):
        cluster = _cluster(checkpoint_interval=2, num_shards=2)
        injector = FaultInjector(cluster)
        # The whole next shard is down: the rotation stalls after shard 0
        # commits, locks, and forwards.
        for index in range(4):
            injector.crash_replica(1, index)
        cluster.submit(_cross_txn(cluster, "stuck-rotation"))
        cluster.run(duration=cluster.simulator.now + 8.0)

        initiator_replicas = cluster.shard_replicas(0)
        records = [
            record
            for replica in initiator_replicas
            for record in replica._cross_records.values()
            if "stuck-rotation" in record.txn_ids
        ]
        assert records and all(record.locked and not record.executed for record in records)
        stuck_sequence = records[0].sequence

        # Keep shard 0 busy so checkpoints stabilise *above* the stuck record.
        # The busy keys start at index 2: the stuck cross-shard record holds
        # index 1, and a busy transaction colliding with it would pend in the
        # sequence-ordered lock queue and stall every later sequence --
        # whether that happens would depend on client-to-primary arrival
        # order, not on what this test is about.
        for i in range(8):
            cluster.submit(_single_txn(cluster, 0, i + 2, f"busy-{i}"))
        cluster.run(duration=cluster.simulator.now + 30.0)
        for replica in initiator_replicas:
            assert replica.checkpoints.last_stable_sequence > stuck_sequence
            # The in-flight rotation pinned the GC watermark below its slot:
            # the record, its consensus evidence, and its pending status all
            # survive truncation.
            assert any(
                "stuck-rotation" in record.txn_ids
                for record in replica._cross_records.values()
            )
            assert "stuck-rotation" in replica.pending_cross_shard()
            assert replica.log.pre_prepare_for(0, stuck_sequence) is not None
            assert replica.gc_watermark < stuck_sequence

        # The next shard recovers: retransmission completes the rotation with
        # the retained evidence.
        for index in range(4):
            injector.recover_replica(1, index)
        assert cluster.run_until_clients_done(timeout=300.0)
        assert all(
            not replica.pending_cross_shard() for replica in cluster.shard_replicas(0)
        )
        assert cluster.ledgers_consistent(0) and cluster.ledgers_consistent(1)

    def test_forward_retransmissions_are_capped(self):
        cluster = _cluster(
            checkpoint_interval=2, num_shards=2, max_forward_retransmissions=3
        )
        injector = FaultInjector(cluster)
        for index in range(4):
            injector.crash_replica(1, index)
        cluster.submit(_cross_txn(cluster, "dead-next-shard"))
        # Far beyond cap * transmit_timeout: an uncapped timer would still be
        # re-sending at the end of this window.
        cluster.run(duration=cluster.simulator.now + 120.0)
        gave_up = [r for r in cluster.shard_replicas(0) if r.forward_give_ups]
        assert gave_up
        for replica in gave_up:
            record = next(
                record
                for record in replica._cross_records.values()
                if "dead-next-shard" in record.txn_ids
            )
            assert record.retransmissions == 3
            assert record.retransmissions_exhausted
            assert replica.stats.dropped_requests.get(
                "forward-retransmissions-exhausted"
            ) == 1
            # The record stays visible to operators rather than vanishing.
            assert "dead-next-shard" in replica.pending_cross_shard()

        # Giving up also releases the GC floor: the shard keeps truncating
        # instead of silently growing for the rest of the run.
        stuck_sequences = {
            record.sequence
            for replica in gave_up
            for record in replica._cross_records.values()
            if "dead-next-shard" in record.txn_ids
        }
        # Keys disjoint from the dead rotation's: it rightly holds its locks
        # (the transaction committed locally), so conflicting keys would block.
        for i in range(8):
            cluster.submit(_single_txn(cluster, 0, i + 10, f"resume-{i}"))
        # The dead cross-shard transaction can never complete, so drive by
        # duration rather than waiting for all clients to drain.
        cluster.run(duration=cluster.simulator.now + 60.0)
        for replica in gave_up:
            assert replica.executor.already_executed("resume-7")
            assert replica.gc_watermark > max(stuck_sequences)
            assert "dead-next-shard" in replica.pending_cross_shard()

    def test_state_transfer_retires_records_the_snapshot_covers(self):
        """A rotation missed locally but adopted via snapshot must not pin GC forever."""
        cluster = _cluster(checkpoint_interval=2, num_shards=2)
        victim = cluster.replica(0, 3)
        txn = _cross_txn(cluster, "missed-rotation")
        from repro.common.messages import ClientRequest, StateTransferReply

        record = victim._record_for(
            b"\x07" * 32,
            frozenset({0, 1}),
            (ClientRequest(sender="client-0", transaction=txn),),
        )
        record.sequence = 1
        record.locked = True
        assert victim._gc_floor(stable_sequence=10) == 0  # pinned below the record

        snapshot = {"user0": "adopted"}
        digest = victim._state_snapshot_digest(snapshot, {}, 6, ("missed-rotation",))
        victim._state_transfer_in_flight = True
        for index in (0, 1):
            victim._handle_state_reply(
                StateTransferReply(
                    sender=cluster.replica(0, index).replica_id,
                    last_executed=6,
                    state_digest=digest,
                    store_snapshot=snapshot,
                    store_versions={},
                    executed_txn_ids=("missed-rotation",),
                )
            )
        assert victim.state_transfers_completed == 1
        assert victim.cross_record(b"\x07" * 32) is None
        assert b"\x07" * 32 in victim._retired_digests
        # The floor is no longer pinned by the dead record.
        assert victim._gc_floor(stable_sequence=6) == min(6, victim._ledger_appended)

    def test_retired_digest_does_not_resurrect_a_record(self):
        cluster = _cluster(checkpoint_interval=2, num_shards=2)
        replica = cluster.replica(0, 1)
        from repro.common.messages import Execute

        digest = b"\x42" * 32
        replica._retired_digests[digest] = 4
        replica._handle_execute(
            Execute(
                sender=cluster.replica(1, 1).replica_id,
                batch_digest=digest,
                txn_ids=("ghost",),
                write_sets={},
                origin_shard=1,
            )
        )
        assert replica.cross_record(digest) is None
