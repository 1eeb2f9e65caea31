"""Integration tests: the AHL and Sharper baseline protocols."""

from repro.baselines.ahl.replica import AhlReplica
from repro.baselines.sharper.messages import CrossPropose
from repro.baselines.sharper.replica import SharperReplica
from repro.common.messages import batch_digest, ClientRequest
from repro.config import SystemConfig, TimerConfig
from repro.engine import Deployment
from repro.faults.injector import FaultInjector
from repro.txn.transaction import TransactionBuilder

from tests.conftest import build_cluster, small_workload


def _cross_txn(cluster, shards, txn_id):
    builder = TransactionBuilder(txn_id, "client-0")
    for shard in shards:
        key = cluster.table.local_record(shard, 2)
        builder.read_modify_write(shard, key, f"{txn_id}@{shard}")
    return builder.build()


def _single_txn(cluster, shard, txn_id):
    key = cluster.table.local_record(shard, 3)
    return TransactionBuilder(txn_id, "client-0").read_modify_write(shard, key, f"{txn_id}-v").build()


class TestAhl:
    def test_cross_shard_transaction_completes_via_committee(self):
        cluster = build_cluster(num_shards=3, replica_class=AhlReplica)
        txn = _cross_txn(cluster, (1, 2), "ahl-cst")
        cluster.submit(txn)
        assert cluster.run_until_clients_done(timeout=120.0)
        assert cluster.completed_transactions() == 1
        # The committee (shard 0) exchanged 2PC traffic even though it owns no data.
        committee_msgs = cluster.primary_of(0).stats.sent_count
        assert "Prepare2PC" in committee_msgs
        assert "Decide2PC" in committee_msgs

    def test_involved_shards_execute_after_decision(self):
        cluster = build_cluster(num_shards=3, replica_class=AhlReplica)
        txn = _cross_txn(cluster, (1, 2), "ahl-exec")
        cluster.submit(txn)
        assert cluster.run_until_clients_done(timeout=120.0)
        cluster.run(duration=cluster.simulator.now + 5.0)
        for shard in (1, 2):
            key = next(iter(txn.keys_for(shard)))
            for replica in cluster.shard_replicas(shard):
                assert replica.store.read(key) == f"ahl-exec@{shard}"
                assert replica.locks.locked_key_count == 0

    def test_committee_member_shard_can_also_own_data(self):
        cluster = build_cluster(num_shards=3, replica_class=AhlReplica)
        txn = _cross_txn(cluster, (0, 2), "ahl-committee-data")
        cluster.submit(txn)
        assert cluster.run_until_clients_done(timeout=120.0)
        key = next(iter(txn.keys_for(0)))
        for replica in cluster.shard_replicas(0):
            assert replica.store.read(key) == "ahl-committee-data@0"

    def test_committee_lock_table_passes_batches_it_owns_no_data_of(self):
        # The committee orders a batch on shards {1, 2}; its own lock table
        # must still pass that sequence, or its next batch waits forever.
        cluster = build_cluster(num_shards=3, replica_class=AhlReplica)
        cluster.submit(_cross_txn(cluster, (1, 2), "ahl-elsewhere"))
        assert cluster.run_until_clients_done(timeout=120.0)
        cluster.submit(_single_txn(cluster, 0, "ahl-committee-next"))
        assert cluster.run_until_clients_done(timeout=60.0)
        assert cluster.completed_transactions() == 2
        for replica in cluster.shard_replicas(0):
            assert replica.ledger.head.sequence == 2
            assert replica.locks.k_max == replica.ledger.head.sequence
            assert replica.locks.locked_key_count == 0

    def test_single_shard_transactions_bypass_the_committee(self):
        cluster = build_cluster(num_shards=3, replica_class=AhlReplica)
        cluster.submit(_single_txn(cluster, 2, "ahl-single"))
        assert cluster.run_until_clients_done(timeout=60.0)
        committee_primary = cluster.primary_of(0)
        assert "Prepare2PC" not in committee_primary.stats.sent_count

    def test_ahl_record_tracks_votes_per_shard(self):
        cluster = build_cluster(num_shards=3, replica_class=AhlReplica)
        txn = _cross_txn(cluster, (1, 2), "ahl-record")
        request = ClientRequest(sender="client-0", transaction=txn)
        digest = batch_digest((request,))
        cluster.submit(txn)
        assert cluster.run_until_clients_done(timeout=120.0)
        record = cluster.primary_of(0).ahl_record(digest)
        assert record is not None
        assert record.committee_tally.reached(digest)
        assert set(record.vote_tally.buckets()) == {1, 2}

    def test_cross_shard_uses_all_to_all_communication(self):
        # Every committee replica sends Prepare2PC to every replica of every
        # involved shard: message counts are quadratic, unlike RingBFT.
        cluster = build_cluster(num_shards=3, replica_class=AhlReplica)
        cluster.submit(_cross_txn(cluster, (1, 2), "ahl-quadratic"))
        assert cluster.run_until_clients_done(timeout=120.0)
        counts = cluster.message_counts()
        assert counts["Prepare2PC"] == 4 * 8  # 4 committee replicas x 8 involved replicas

    def test_committee_vote_is_sent_once_per_batch(self):
        # Regression: every Vote2PC arriving after the last shard's quorum
        # re-broadcast the CommitteeVote (1200 messages at 2 x 13 instead of
        # 13 x 12).  Each committee replica now broadcasts it at most once.
        n = 13
        cluster = build_cluster(num_shards=2, replicas=n, replica_class=AhlReplica)
        cluster.submit(_cross_txn(cluster, (0, 1), "ahl-committee-vote"))
        assert cluster.run_until_clients_done(timeout=120.0)
        for replica in cluster.shard_replicas(0):
            assert replica.stats.sent_count.get("CommitteeVote", 0) == n - 1
        assert cluster.message_counts()["CommitteeVote"] == n * (n - 1)

    def test_vote_2pc_counts_only_for_the_senders_own_shard(self):
        """f + 1 MAC-valid Vote2PCs from shard 1 claiming shard 2 must not
        fill shard 2's bucket: a replica speaks only for its own shard."""
        from repro.baselines.ahl.messages import Vote2PC

        cluster = build_cluster(num_shards=3, replica_class=AhlReplica)
        committee = cluster.primary_of(0)
        digest = b"\x07" * 32

        def deliver_votes(voters, claimed_shard):
            for voter in voters:
                vote = Vote2PC(
                    sender=voter.replica_id, batch_digest=digest, shard=claimed_shard, commit=True
                )
                voter._authenticate_cross_shard_broadcast(vote, (0,))
                committee.deliver(vote)

        weak = cluster.directory.quorum(2).weak_quorum
        deliver_votes(cluster.shard_replicas(1)[:weak], claimed_shard=2)
        assert committee.auth_rejections == 0
        record = committee.ahl_record(digest)
        assert record is None or record.vote_tally.count(2) == 0
        # The same votes from shard 2 itself do cross the bucket.
        deliver_votes(cluster.shard_replicas(2)[:weak], claimed_shard=2)
        assert committee.ahl_record(digest).vote_tally.reached(2)

    def test_committee_decision_counts_only_committee_senders(self):
        from repro.baselines.ahl.messages import CommitteeVote, Decide2PC

        cluster = build_cluster(num_shards=3, replica_class=AhlReplica)
        txn = _cross_txn(cluster, (1, 2), "ahl-outsider")
        digest = batch_digest((ClientRequest(sender="client-0", transaction=txn),))
        committee, involved = cluster.primary_of(0), cluster.primary_of(1)
        outsiders = cluster.shard_replicas(2)
        for sender in outsiders:
            vote = CommitteeVote(sender=sender.replica_id, batch_digest=digest, commit=True)
            sender._authenticate_cross_shard_broadcast(vote, (0,))
            committee.deliver(vote)
        assert committee.ahl_record(digest) is None
        involved._record(digest)
        for sender in outsiders:
            decision = Decide2PC(sender=sender.replica_id, batch_digest=digest, commit=True)
            sender._authenticate_cross_shard_broadcast(decision, (1,))
            involved.deliver(decision)
        assert involved.ahl_record(digest).decide_tally.count(digest) == 0
        assert committee.auth_rejections == involved.auth_rejections == 0

    def test_multiple_cross_shard_transactions(self):
        cluster = build_cluster(num_shards=3, replica_class=AhlReplica)
        for i in range(4):
            cluster.submit(_cross_txn(cluster, (1, 2), f"ahl-multi-{i}"))
        assert cluster.run_until_clients_done(timeout=200.0)
        assert cluster.completed_transactions() == 4
        assert cluster.ledgers_consistent(1) and cluster.ledgers_consistent(2)

    def test_conflicting_transactions_do_not_deadlock_across_shards(self):
        """Two shards receiving prepares in opposite network orders must not
        lock two conflicting batches in opposite orders (2PC deadlock)."""
        cluster = build_cluster(num_shards=3, replica_class=AhlReplica)
        # Same keys on both shards: every pair of these transactions
        # conflicts, so any inconsistent lock order deadlocks permanently.
        for i in range(4):
            cluster.submit(_cross_txn(cluster, (1, 2), f"ahl-conflict-{i}"))
        assert cluster.run_until_clients_done(timeout=200.0)
        assert cluster.completed_transactions() == 4
        cluster.run(duration=cluster.simulator.now + 5.0)
        for shard in (1, 2):
            for replica in cluster.shard_replicas(shard):
                assert replica.locks.locked_key_count == 0

    def test_involved_primary_proposes_prepares_in_committee_order(self):
        """The dense per-shard prepare index gates local vote consensus: a
        later-indexed batch arriving first waits for its predecessor."""
        from repro.baselines.ahl.messages import Prepare2PC

        cluster = build_cluster(num_shards=3, replica_class=AhlReplica)
        primary = cluster.primary_of(1)
        proposed = []
        primary._propose = lambda requests: proposed.append(
            requests[0].transaction.txn_id
        )
        committee = list(cluster.directory.replicas_of(0))

        def prepare(txn_id, dest_seq, sender):
            txn = _cross_txn(cluster, (1, 2), txn_id)
            request = ClientRequest(sender="client-0", transaction=txn)
            return Prepare2PC(
                sender=sender,
                requests=(request,),
                batch_digest=batch_digest((request,)),
                global_sequence=dest_seq,
                shard_sequences={1: dest_seq, 2: dest_seq},
            )

        # Batch #2 reaches the committee weak quorum first: nothing proposed.
        for sender in committee[:2]:
            primary._handle_prepare_2pc(prepare("ahl-second", 2, sender))
        assert proposed == []
        # Batch #1 arrives: both drain, in committee order.
        for sender in committee[:2]:
            primary._handle_prepare_2pc(prepare("ahl-first", 1, sender))
        assert proposed == ["ahl-first", "ahl-second"]

    def test_single_byzantine_claim_cannot_pin_a_bogus_prepare_index(self):
        """dest_sequence needs a weak quorum of matching claims: one lying
        committee member neither stalls the batch nor reorders it."""
        from repro.baselines.ahl.messages import Prepare2PC

        cluster = build_cluster(num_shards=3, replica_class=AhlReplica)
        primary = cluster.primary_of(1)
        proposed = []
        primary._propose = lambda requests: proposed.append(requests[0].transaction.txn_id)
        committee = list(cluster.directory.replicas_of(0))
        txn = _cross_txn(cluster, (1, 2), "ahl-lied-about")
        request = ClientRequest(sender="client-0", transaction=txn)
        digest = batch_digest((request,))

        def prepare(sender, claimed):
            return Prepare2PC(
                sender=sender,
                requests=(request,),
                batch_digest=digest,
                global_sequence=1,
                shard_sequences={1: claimed, 2: claimed},
            )

        # Byzantine claim arrives first with an absurd index, then one honest
        # prepare: quorum of senders, but no quorum on any index -> wait.
        primary._handle_prepare_2pc(prepare(committee[0], 10**9))
        primary._handle_prepare_2pc(prepare(committee[1], 1))
        assert proposed == []
        # A second honest claim confirms index 1 and the batch proposes.
        primary._handle_prepare_2pc(prepare(committee[2], 1))
        assert proposed == ["ahl-lied-about"]
        assert primary.ahl_record(digest).dest_sequence == 1

    def test_committee_assigns_prepare_indices_in_sequence_order(self):
        """Regression: pipelined slots commit in any order, and assigning the
        dense index at commit time let committee replicas give two batches
        opposite indices, stalling the involved shard.  Indices follow the
        committee's sequence order whatever order the slots commit in."""
        cluster = build_cluster(num_shards=3, replica_class=AhlReplica)
        committee_primary = cluster.primary_of(0)
        sent = []
        committee_primary._send_prepare_2pc = lambda record, sequence: sent.append(sequence)
        batches = {}
        for sequence in (1, 2):
            request = ClientRequest(
                sender="client-0", transaction=_cross_txn(cluster, (1, 2), f"ahl-order-{sequence}")
            )
            batches[sequence] = (batch_digest((request,)), (request,))
        # Sequence 2 commits first: its 2PC waits for sequence 1.
        committee_primary._on_batch_committed(0, 2, *batches[2])
        assert sent == []
        # Sequence 1 commits; the ledger, appended in order, reaches both.
        committee_primary._ledger_appended = 2
        committee_primary._on_batch_committed(0, 1, *batches[1])
        assert sent == [1, 2]
        for sequence, (digest, _) in batches.items():
            record = committee_primary.ahl_record(digest)
            assert record.shard_sequences == {1: sequence, 2: sequence}

    def test_state_transfer_degrades_ordering_without_stalling(self):
        """A replica whose cursor went stale through state transfer falls
        back to arrival-order proposal; a committee replica in the same
        position abstains from claiming indices."""
        from repro.baselines.ahl.messages import Prepare2PC

        cluster = build_cluster(num_shards=3, replica_class=AhlReplica)
        primary = cluster.primary_of(1)
        proposed = []
        primary._propose = lambda requests: proposed.append(requests[0].transaction.txn_id)
        primary._cross_order_stale = True  # as _install_state leaves it
        committee = list(cluster.directory.replicas_of(0))
        txn = _cross_txn(cluster, (1, 2), "ahl-after-catchup")
        request = ClientRequest(sender="client-0", transaction=txn)
        message = Prepare2PC(
            sender=committee[0],
            requests=(request,),
            batch_digest=batch_digest((request,)),
            global_sequence=7,
            # An index far beyond the stale cursor: strict ordering would
            # park the batch forever.
            shard_sequences={1: 7, 2: 7},
        )
        for sender in committee[:2]:
            primary._handle_prepare_2pc(
                Prepare2PC(sender=sender, requests=message.requests,
                           batch_digest=message.batch_digest,
                           global_sequence=7, shard_sequences={1: 7, 2: 7})
            )
        assert proposed == ["ahl-after-catchup"]

        # Committee side: a stale replica's prepare claims no indices.
        committee_primary = cluster.primary_of(0)
        committee_primary._cross_order_stale = True
        committee_primary._on_batch_committed(0, 1, batch_digest((request,)), (request,))
        record = committee_primary.ahl_record(batch_digest((request,)))
        assert record.prepare_sent
        assert record.shard_sequences == {}


class TestSharper:
    def test_cross_shard_transaction_completes(self):
        cluster = build_cluster(num_shards=3, replica_class=SharperReplica)
        txn = _cross_txn(cluster, (0, 1, 2), "sharper-cst")
        cluster.submit(txn)
        assert cluster.run_until_clients_done(timeout=120.0)
        assert cluster.completed_transactions() == 1

    def test_all_involved_shards_execute(self):
        cluster = build_cluster(num_shards=3, replica_class=SharperReplica)
        txn = _cross_txn(cluster, (0, 1, 2), "sharper-exec")
        cluster.submit(txn)
        assert cluster.run_until_clients_done(timeout=120.0)
        cluster.run(duration=cluster.simulator.now + 5.0)
        for shard in (0, 1, 2):
            key = next(iter(txn.keys_for(shard)))
            for replica in cluster.shard_replicas(shard):
                assert replica.store.read(key) == f"sharper-exec@{shard}"

    def test_global_quadratic_communication(self):
        # Sharper's cross-shard prepare is all-to-all among every replica of
        # every involved shard: 12 replicas each broadcasting to 12 -> 132
        # network sends (self-delivery is local).
        cluster = build_cluster(num_shards=3, replica_class=SharperReplica)
        cluster.submit(_cross_txn(cluster, (0, 1, 2), "sharper-quadratic"))
        assert cluster.run_until_clients_done(timeout=120.0)
        counts = cluster.message_counts()
        assert counts["CrossPrepare"] == 12 * 11
        assert counts["CrossCommit"] == 12 * 11

    def test_sharper_sends_more_cross_messages_than_ringbft(self):
        sharper = build_cluster(num_shards=3, replica_class=SharperReplica)
        sharper.submit(_cross_txn(sharper, (0, 1, 2), "compare-sharper"))
        assert sharper.run_until_clients_done(timeout=120.0)

        ring = build_cluster(num_shards=3)
        ring.submit(_cross_txn(ring, (0, 1, 2), "compare-ring"))
        assert ring.run_until_clients_done(timeout=120.0)
        ring.run(duration=ring.simulator.now + 5.0)

        sharper_cross = sum(
            count
            for name, count in sharper.message_counts().items()
            if name in ("CrossPropose", "CrossPrepare", "CrossCommit")
        )
        ring_cross = sum(
            count
            for name, count in ring.message_counts().items()
            if name in ("Forward", "Execute")
        )
        assert sharper_cross > ring_cross

    def test_single_shard_transactions_run_plain_pbft(self):
        cluster = build_cluster(num_shards=3, replica_class=SharperReplica)
        cluster.submit(_single_txn(cluster, 1, "sharper-single"))
        assert cluster.run_until_clients_done(timeout=60.0)
        counts = cluster.message_counts()
        assert "CrossPropose" not in counts

    def test_initiator_shard_record_state(self):
        cluster = build_cluster(num_shards=3, replica_class=SharperReplica)
        txn = _cross_txn(cluster, (1, 2), "sharper-record")
        request = ClientRequest(sender="client-0", transaction=txn)
        digest = batch_digest((request,))
        cluster.submit(txn)
        assert cluster.run_until_clients_done(timeout=120.0)
        primary = cluster.primary_of(1)
        record = primary.sharper_record(digest)
        assert record is not None
        assert record.committed
        # Executed at the slot the shard's primary claimed for it.
        assert primary.executor.already_executed(txn.txn_id)
        assert primary.ledger.sequence_of(txn.txn_id) == record.sequence

    def test_a_lost_proposal_is_sent_again_on_retransmission(self):
        # Shard 2 misses the proposal and shard 1's votes for the first
        # second; the client's retransmission makes every replica re-send
        # its own messages for the batch once the link heals.
        def run(lossy):
            cluster = build_cluster(num_shards=3, replica_class=SharperReplica)
            if lossy:
                injector = FaultInjector(cluster)
                injector.block_cross_shard_link(1, 2)
                injector.heal_cross_shard_link(1, 2, at=1.0)
            txn = _cross_txn(cluster, (1, 2), "sharper-lost-propose")
            cluster.submit(txn)
            assert cluster.run_until_clients_done(timeout=120.0)
            cluster.run(duration=cluster.simulator.now + 5.0)
            return cluster, txn

        cluster, txn = run(lossy=True)
        assert cluster.completed_transactions() == 1
        for shard in (1, 2):
            assert cluster.ledgers_consistent(shard)
            for replica in cluster.shard_replicas(shard):
                assert replica.executor.already_executed(txn.txn_id)
        # Each retransmission round re-sends each record's messages once,
        # not once per copy of the request or of the re-sent proposal.
        client_sends = sum(c.stats.sent_count["ClientRequest"] for c in cluster.clients.values())
        rounds = (client_sends - 1) // len(cluster.shard_replicas(1))
        assert rounds >= 1
        sent = cluster.message_counts()
        undisturbed = run(lossy=False)[0].message_counts()
        for kind in ("CrossPropose", "CrossPrepare", "CrossCommit"):
            assert sent[kind] <= undisturbed[kind] * (1 + rounds), kind

    def test_multiple_cross_shard_transactions(self):
        cluster = build_cluster(num_shards=3, replica_class=SharperReplica)
        for i in range(4):
            cluster.submit(_cross_txn(cluster, (0, 1), f"sharper-multi-{i}"))
        assert cluster.run_until_clients_done(timeout=200.0)
        assert cluster.completed_transactions() == 4

    def test_conflicting_concurrent_load_keeps_every_shard_consistent(self):
        # Every cross-shard transaction writes the same record of shards 1
        # and 2, and single-shard ones run beside them on both shards: each
        # shard orders all of them in its own sequence space.
        cluster = build_cluster(num_shards=3, replica_class=SharperReplica)
        for i in range(5):
            cluster.submit(_cross_txn(cluster, (1, 2), f"sharper-conflict-{i}"))
            cluster.submit(_single_txn(cluster, 1 + i % 2, f"sharper-local-{i}"))
        assert cluster.run_until_clients_done(timeout=200.0)
        cluster.run(duration=cluster.simulator.now + 5.0)
        assert cluster.completed_transactions() == 10
        for shard in (1, 2):
            replicas = cluster.shard_replicas(shard)
            assert cluster.ledgers_consistent(shard)
            assert len({replica.store.state_root() for replica in replicas}) == 1
            assert all(replica.locks.locked_key_count == 0 for replica in replicas)
            # Five cross-shard slots, plus shard 1's three and shard 2's two local ones.
            assert all(replica.ledger.head.sequence == 5 + 4 - shard for replica in replicas)

    def test_records_stay_bounded_across_checkpoint_intervals(self):
        config = SystemConfig.uniform(
            3, 4, timers=TimerConfig(checkpoint_interval=2), workload=small_workload()
        )
        cluster = Deployment.build(
            config, backend="sim", replica_class=SharperReplica, num_clients=1, batch_size=1
        )
        replicas = [replica for shard in (1, 2) for replica in cluster.shard_replicas(shard)]
        peak = 0
        for group in range(4):
            for i in range(4 * group, 4 * group + 4):
                builder = TransactionBuilder(f"sharper-gc-{i}", "client-0")
                for shard in (1, 2):
                    builder.read_modify_write(shard, cluster.table.local_record(shard, i), "v")
                cluster.submit(builder.build())
            assert cluster.run_until_clients_done(timeout=60.0)
            peak = max([peak] + [r.retained_state()["sharper_records"] for r in replicas])
        cluster.run(duration=cluster.simulator.now + 5.0)
        # Sixteen transactions went through; at most one group's records
        # were ever held at once.
        assert peak <= 4
        for replica in replicas:
            assert replica.gc_runs >= 4
            gauges = replica.retained_state()
            # The last checkpoint covers every slot.  Straggling votes for a
            # dropped record must not re-create it.
            assert gauges["sharper_records"] == 0
            assert gauges["batches"] == 0
            # Retired digests live for two checkpoint windows.
            assert gauges["retired_digests"] <= 2 * 2

    def test_crashed_primary_of_a_non_initiator_shard_is_replaced(self):
        # Shard 2's backups hold each proposal but never get their primary's
        # slot claim: their claim timers replace the primary, and the new
        # primary claims the slots.
        cluster = build_cluster(num_shards=3, replica_class=SharperReplica)
        FaultInjector(cluster).crash_primary(2)
        for i in range(3):
            cluster.submit(_cross_txn(cluster, (1, 2), f"sharper-no-claim-{i}"))
        assert cluster.run_until_clients_done(timeout=60.0)
        assert cluster.completed_transactions() == 3
        live = [replica for replica in cluster.shard_replicas(2) if not replica.crashed]
        assert all(replica.view == 1 for replica in live)
        assert all(replica.ledger.head.sequence == 3 for replica in live)
        assert all(cluster.ledgers_consistent(shard) for shard in range(3))

    def test_view_change_voids_an_unprepared_slot_and_the_new_primary_reclaims(self):
        cluster = build_cluster(num_shards=3, replica_class=SharperReplica)
        txn = _cross_txn(cluster, (1, 2), "sharper-reclaimed")
        request = ClientRequest(sender="client-0", transaction=txn)
        digest = batch_digest((request,))
        initiator = cluster.primary_of(1)
        proposal = CrossPropose(
            sender=initiator.replica_id, requests=(request,), batch_digest=digest
        )

        def propose_to(shard):
            for replica in cluster.shard_replicas(shard):
                if replica is not initiator:
                    initiator._authenticate_for_audience(proposal, [replica.replica_id])
                    replica.deliver(proposal)
            if shard == initiator.shard_id:
                initiator.deliver_loopback(proposal)

        # Only shard 2 holds the proposal: it accepts slot 1 but cannot prepare.
        propose_to(2)
        cluster.run(duration=0.5)
        shard2 = cluster.shard_replicas(2)
        assert all(replica.sharper_record(digest).sequence == 1 for replica in shard2)
        assert not any(replica.sharper_record(digest).prepared for replica in shard2)
        # A view change in shard 2 abandons the unprepared slot ...
        FaultInjector(cluster).crash_primary(2)
        cluster.submit(_single_txn(cluster, 2, "sharper-local"))
        assert cluster.run_until_clients_done(timeout=60.0)
        live = [replica for replica in shard2 if not replica.crashed]
        assert all(replica.view == 1 and 1 in replica._abandoned_sequences for replica in live)
        # ... and the batch commits at the slot the new primary claimed.
        propose_to(1)
        cluster.run(duration=cluster.simulator.now + 5.0)
        # Slot 2 went to the local transaction.
        assert all(replica.ledger.sequence_of(txn.txn_id) == 3 for replica in live)
        assert all(cluster.ledgers_consistent(shard) for shard in (1, 2))
        assert all(replica.ledger.contains_txn(txn.txn_id) for replica in cluster.shard_replicas(1))
