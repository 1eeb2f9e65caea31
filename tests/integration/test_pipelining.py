"""Integration tests: the pipelined proposal window is safe under faults.

A primary with ``PipelineConfig.depth = k`` runs consensus on up to k
sequence numbers concurrently, which makes *gaps* below ``next_sequence``
a normal condition rather than a bug.  These tests pin down the three
safety obligations that creates:

* a view change with a gap in the in-flight window (prepared k and k+2,
  slot k+1 unprepared) re-proposes the prepared slots and abandons the gap,
* the GC watermark never truncates an open proposal slot,
* any interleaving of the k in-flight slots executes in sequence order on
  every replica (identical chains, no duplicates, no reordering).
"""

import random

import pytest

from repro.common.messages import (
    ClientRequest,
    PrePrepare,
    PreparedProof,
    ViewChange,
    batch_digest,
)
from repro.config import PipelineConfig, SystemConfig, TimerConfig
from repro.core.replica import RingBftReplica
from repro.engine import Deployment
from repro.txn.transaction import TransactionBuilder

from tests.conftest import small_workload


def _pipelined_cluster(
    depth=4,
    num_shards=1,
    checkpoint_interval=4,
    num_clients=1,
    **workload_overrides,
):
    timers = TimerConfig(
        local_timeout=1.0,
        remote_timeout=2.0,
        transmit_timeout=3.0,
        client_timeout=1.5,
        checkpoint_interval=checkpoint_interval,
    )
    config = SystemConfig.uniform(
        num_shards,
        4,
        timers=timers,
        workload=small_workload(),
        pipeline=PipelineConfig(depth=depth),
    )
    return Deployment.build(
        config, backend="sim", replica_class=RingBftReplica, num_clients=num_clients, batch_size=1
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


class TestPipelinedWindow:
    def test_window_opens_multiple_slots(self):
        cluster = _pipelined_cluster(depth=4)
        for i in range(10):
            cluster.submit(_single_txn(cluster, 0, i, f"win-{i}"))
        assert cluster.run_until_clients_done(timeout=120.0)
        primary = cluster.primary_of(0)
        assert primary.peak_open_slots > 1
        assert primary.peak_open_slots <= 4
        assert cluster.ledgers_consistent(0)

    def test_depth_one_reproduces_default_config_chains(self):
        """``depth=1`` takes the exact legacy code path: same submissions,
        same seeds, identical block chains as a config without a pipeline."""

        def run_one(pipelined):
            timers = TimerConfig(
                local_timeout=1.0,
                remote_timeout=2.0,
                transmit_timeout=3.0,
                client_timeout=1.5,
            )
            kwargs = {"timers": timers, "workload": small_workload()}
            if pipelined:
                kwargs["pipeline"] = PipelineConfig(depth=1)
            config = SystemConfig.uniform(1, 4, **kwargs)
            cluster = Deployment.build(
                config, backend="sim", replica_class=RingBftReplica, num_clients=1, batch_size=1
            )
            for i in range(8):
                cluster.submit(_single_txn(cluster, 0, i, f"classic-{i}"))
            assert cluster.run_until_clients_done(timeout=120.0)
            return [b.block_hash().hex() for b in cluster.primary_of(0).ledger.blocks()]

        assert run_one(pipelined=True) == run_one(pipelined=False)


class TestViewChangeWithWindowGap:
    def test_gap_in_flight_window_is_recovered_by_view_change(self):
        """Slots k and k+2 reach the backups, k+1 never does.

        The backups commit k and k+2 but cannot execute past the gap; the
        view change must re-propose the prepared slots, fill k+1 with a
        no-op, and the dropped request must still commit (at a later
        sequence) after the client retransmits.
        """
        cluster = _pipelined_cluster(depth=4)
        # Warm up: one committed transaction under the old view.
        cluster.submit(_single_txn(cluster, 0, 0, "warm-0"))
        assert cluster.run_until_clients_done(timeout=60.0)

        primary = cluster.primary_of(0)
        gap_sequence = primary.next_sequence + 1
        original_broadcast = primary._broadcast_shard

        def dropping_broadcast(message, include_self=True):
            if isinstance(message, PrePrepare) and message.sequence == gap_sequence:
                return  # the window's middle slot never leaves the primary
            original_broadcast(message, include_self)

        primary._broadcast_shard = dropping_broadcast

        txn_ids = [f"gap-{i}" for i in range(3)]
        for i, txn_id in enumerate(txn_ids):
            cluster.submit(_single_txn(cluster, 0, i + 1, txn_id))
        assert cluster.run_until_clients_done(timeout=180.0)
        cluster.run(duration=cluster.simulator.now + 5.0)

        replicas = cluster.shard_replicas(0)
        # The shard moved to a new view to get past the gap...
        assert any(r.view >= 1 for r in replicas)
        # ...every submitted transaction still committed exactly once...
        committed = {tid for tid in txn_ids}
        for replica in replicas:
            order = replica.ledger.commit_order(committed)
            assert sorted(order) == sorted(txn_ids)
        # ...and the chains agree on the single commit order.
        assert cluster.ledgers_consistent(0)
        orders = {tuple(r.ledger.commit_order(committed)) for r in replicas}
        assert len(orders) == 1

    def test_new_view_reproposes_prepared_slots_and_abandons_gap(self):
        """White-box: ``_build_reproposals`` over votes with a window gap.

        Votes carry prepared certificates for sequences 1 and 3 but nothing
        for sequence 2 -- exactly what a view change observes when the middle
        slot of an in-flight window never prepared.
        """
        cluster = _pipelined_cluster(depth=4)
        new_primary = cluster.primary_of(0, view=1)

        def request(txn_id, index):
            txn = _single_txn(cluster, 0, index, txn_id)
            return ClientRequest(sender="client-0", transaction=txn)

        prepared = tuple(
            PreparedProof(
                sequence=sequence,
                view=0,
                batch_digest=batch_digest(batch),
                prepares=new_primary.quorum.commit_quorum,
                requests=batch,
            )
            for sequence, batch in (
                (1, (request("prepared-1", 1),)),
                (3, (request("prepared-3", 3),)),
            )
        )
        votes = {
            replica.replica_id: ViewChange(
                sender=replica.replica_id,
                new_view=1,
                last_stable_sequence=0,
                prepared=prepared,
            )
            for replica in cluster.shard_replicas(0)[:3]
        }

        reproposals, abandoned = new_primary._build_reproposals(1, votes)
        assert [p.sequence for p in reproposals] == [1, 3]
        assert abandoned == (2,)
        # Re-proposals carry the original batches, so backups that never saw
        # the old view's PrePrepare can still verify and execute them.
        assert all(p.requests for p in reproposals)
        assert all(p.view == 1 for p in reproposals)

        # Installing the new view drives both slots to commit and fills the
        # gap: every replica executes 1 and 3 and skips 2 as a no-op.
        new_primary._install_new_view_as_primary(1, votes)
        cluster.run(duration=cluster.simulator.now + 30.0)
        for replica in cluster.shard_replicas(0):
            assert replica.view == 1
            assert replica.last_executed >= 3
            assert replica.ledger.contains_txn("prepared-1")
            assert replica.ledger.contains_txn("prepared-3")
        assert cluster.ledgers_consistent(0)


class TestGcNeverTruncatesOpenSlot:
    def test_gc_floor_is_clamped_below_open_slots(self):
        cluster = _pipelined_cluster(depth=4)
        replica = cluster.primary_of(0)
        replica.last_executed = 50
        replica._ledger_appended = 50
        assert replica._gc_floor(40) == 40
        replica._open_slots = {5, 9}
        assert replica._gc_floor(40) == 4

    def test_watermark_never_reaches_an_open_slot_under_load(self):
        cluster = _pipelined_cluster(depth=4, checkpoint_interval=2)
        violations = []
        for replica in cluster.shard_replicas(0):
            original = replica._truncate_below

            def tracked(watermark, replica=replica, original=original):
                if replica._open_slots and watermark >= min(replica._open_slots):
                    violations.append((replica.replica_id, watermark, min(replica._open_slots)))
                original(watermark)

            replica._truncate_below = tracked

        for i in range(24):
            cluster.submit(_single_txn(cluster, 0, i % 8, f"busy-{i}"))
        assert cluster.run_until_clients_done(timeout=240.0)
        cluster.run(duration=cluster.simulator.now + 5.0)

        primary = cluster.primary_of(0)
        assert primary.gc_runs >= 1  # GC did run while the window was active
        assert violations == []
        assert cluster.ledgers_consistent(0)


class TestInterleavedExecutionOrder:
    """Property: any interleaving of the k in-flight slots executes in
    sequence order on all replicas -- same chain, no duplicates, no gaps."""

    @pytest.mark.parametrize("depth", (2, 4))
    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_interleaved_windows_execute_in_sequence_order(self, depth, seed):
        cluster = _pipelined_cluster(depth=depth, num_shards=2)
        rng = random.Random(seed)

        txns = []
        for i in range(12):
            if rng.random() < 0.3:
                txns.append(_cross_txn(cluster, f"p{depth}s{seed}-x{i}"))
            else:
                shard = rng.randrange(2)
                txns.append(_single_txn(cluster, shard, i % 8, f"p{depth}s{seed}-l{i}"))
        rng.shuffle(txns)
        txn_ids = {txn.txn_id for txn in txns}

        for txn in txns:
            cluster.submit(txn)
        assert cluster.run_until_clients_done(timeout=240.0)

        for shard in (0, 1):
            replicas = cluster.shard_replicas(shard)
            assert cluster.ledgers_consistent(shard)
            # One global commit order per shard, identical on every replica.
            orders = {tuple(r.ledger.commit_order(txn_ids)) for r in replicas}
            assert len(orders) == 1
            order = orders.pop()
            # Exactly-once: no transaction appears twice in a chain.
            assert len(order) == len(set(order))
            for replica in replicas:
                # Blocks were appended strictly in sequence order.
                sequences = [b.sequence for b in replica.ledger.blocks()]
                assert sequences == sorted(sequences)
                assert len(sequences) == len(set(sequences))
