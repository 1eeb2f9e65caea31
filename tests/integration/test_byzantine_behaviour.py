"""Integration tests: Byzantine message-level misbehaviour is contained.

These tests inject forged or equivocating protocol messages directly into
replicas and check that the well-formedness rules of Section 3 (authenticated
communication, commit certificates) stop them from affecting safety.
"""

from repro.baselines.ahl.messages import Prepare2PC
from repro.baselines.ahl.replica import AhlReplica
from repro.baselines.sharper.messages import CrossPropose
from repro.baselines.sharper.replica import SharperReplica
from repro.common.crypto import SignatureScheme
from repro.common.messages import (
    ClientRequest,
    Commit,
    CommitCertificate,
    Forward,
    PrePrepare,
    batch_digest,
    requests_digest,
)
from repro.consensus.pbft.log import SlotState
from repro.txn.transaction import TransactionBuilder

from tests.conftest import build_cluster


def _request(txn_id, shards, cluster):
    builder = TransactionBuilder(txn_id, "client-0")
    for shard in shards:
        builder.read_modify_write(shard, cluster.table.local_record(shard, 0), f"{txn_id}@{shard}")
    return ClientRequest(sender="client-0", transaction=builder.build())


def _deliver_tagged(sender_replica, message, receiver):
    """Deliver a hand-crafted broadcast with a genuine MAC tag.

    Intra-shard broadcasts must carry a valid pairwise tag from the claimed
    sender; a Byzantine sender *can* always mint tags with its own keys, so
    these attacks are injected fully authenticated -- the defences under test
    are the protocol-level well-formedness rules, not the MAC gate.
    """
    sender_replica._authenticate_for_audience(message, [receiver.replica_id])
    receiver.deliver(message)


class TestEquivocatingPrimary:
    def test_second_proposal_for_same_sequence_is_rejected(self):
        cluster = build_cluster(num_shards=1)
        replica = cluster.replica(0, 1)
        primary_replica = cluster.primary_of(0)
        primary = primary_replica.replica_id

        first = _request("equivocate-a", (0,), cluster)
        second = _request("equivocate-b", (0,), cluster)
        proposal_a = PrePrepare(
            sender=primary, view=0, sequence=1, batch_digest=batch_digest((first,)), requests=(first,)
        )
        proposal_b = PrePrepare(
            sender=primary, view=0, sequence=1, batch_digest=batch_digest((second,)), requests=(second,)
        )
        _deliver_tagged(primary_replica, proposal_a, replica)
        _deliver_tagged(primary_replica, proposal_b, replica)
        # The replica binds to the first proposal only: exactly one Prepare
        # broadcast (one send per shard peer), not two.
        assert replica.log.accepted_digest(0, 1) == proposal_a.batch_digest
        assert replica.stats.sent_count.get("Prepare", 0) == len(replica.shard_peers) - 1

    def test_proposal_from_non_primary_is_ignored(self):
        cluster = build_cluster(num_shards=1)
        replica = cluster.replica(0, 1)
        impostor_replica = cluster.replica(0, 2)
        request = _request("impostor", (0,), cluster)
        proposal = PrePrepare(
            sender=impostor_replica.replica_id,
            view=0,
            sequence=1,
            batch_digest=batch_digest((request,)),
            requests=(request,),
        )
        _deliver_tagged(impostor_replica, proposal, replica)
        assert not replica.log.has_accepted(0, 1)

    def test_proposal_with_mismatched_digest_is_ignored(self):
        cluster = build_cluster(num_shards=1)
        replica = cluster.replica(0, 1)
        primary_replica = cluster.primary_of(0)
        request = _request("bad-digest", (0,), cluster)
        proposal = PrePrepare(
            sender=primary_replica.replica_id,
            view=0,
            sequence=1,
            batch_digest=b"\x00" * 32,
            requests=(request,),
        )
        _deliver_tagged(primary_replica, proposal, replica)
        assert not replica.log.has_accepted(0, 1)


class TestForgedForwardCertificates:
    def _forward(self, cluster, signatures, requests):
        digest = batch_digest(requests)
        certificate = CommitCertificate(
            shard=0, view=0, sequence=1, batch_digest=digest, signatures=signatures
        )
        return Forward(
            sender=cluster.replica(0, 0).replica_id,
            requests=requests,
            certificate=certificate,
            batch_digest=digest,
            origin_shard=0,
        )

    def test_forward_without_valid_certificate_is_ignored(self):
        cluster = build_cluster(num_shards=2)
        receiver = cluster.replica(1, 0)
        requests = (_request("forged-cst", (0, 1), cluster),)
        forward = self._forward(cluster, signatures=(), requests=requests)
        # Tagged by its genuine sender: the defence under test is the missing
        # commit certificate, not the MAC gate.
        _deliver_tagged(cluster.replica(0, 0), forward, receiver)
        assert receiver.cross_record(forward.batch_digest) is None

    def test_forward_with_forged_signatures_is_ignored(self):
        cluster = build_cluster(num_shards=2)
        receiver = cluster.replica(1, 0)
        requests = (_request("forged-sigs", (0, 1), cluster),)
        digest = batch_digest(requests)
        # Signatures over the *wrong* payload: they will not verify against
        # the certificate's commit payload.
        scheme = SignatureScheme(cluster.keystore)
        bad_signatures = tuple(
            scheme.sign(f"r{i}@S0", b"not-the-commit-payload") for i in range(3)
        )
        forward = self._forward(cluster, signatures=bad_signatures, requests=requests)
        _deliver_tagged(cluster.replica(0, 0), forward, receiver)
        assert receiver.cross_record(digest) is None

    def test_untagged_forward_is_rejected_before_certificate_checks(self):
        cluster = build_cluster(num_shards=2)
        receiver = cluster.replica(1, 0)
        requests = (_request("untagged-fwd", (0, 1), cluster),)
        digest = batch_digest(requests)
        commit = Commit(sender=cluster.replica(0, 0).replica_id, view=0, sequence=1, batch_digest=digest)
        scheme = SignatureScheme(cluster.keystore)
        signatures = tuple(
            scheme.sign(f"r{i}@S0", commit.signed_payload()) for i in range(3)
        )
        forward = self._forward(cluster, signatures=signatures, requests=requests)
        receiver.deliver(forward)  # genuine certificate, but no MAC vector
        assert receiver.auth_rejections == 1
        assert receiver.cross_record(digest) is None

    def test_forward_with_genuine_certificate_is_accepted(self):
        cluster = build_cluster(num_shards=2)
        receiver = cluster.replica(1, 0)
        requests = (_request("genuine-cst", (0, 1), cluster),)
        digest = batch_digest(requests)
        commit = Commit(sender=cluster.replica(0, 0).replica_id, view=0, sequence=1, batch_digest=digest)
        scheme = SignatureScheme(cluster.keystore)
        signatures = tuple(
            scheme.sign(f"r{i}@S0", commit.signed_payload()) for i in range(3)
        )
        forward = self._forward(cluster, signatures=signatures, requests=requests)
        _deliver_tagged(cluster.replica(0, 0), forward, receiver)
        record = receiver.cross_record(digest)
        assert record is not None
        assert record.forward_senders[0] == {str(cluster.replica(0, 0).replica_id)}

    def test_forged_commit_signature_does_not_count_toward_certificates(self):
        cluster = build_cluster(num_shards=2)
        replica = cluster.replica(0, 1)
        scheme = SignatureScheme(cluster.keystore)
        # A Byzantine replica tries to forge a commit signature for a peer it
        # does not control; the keystore refuses to hand over that key, so at
        # the protocol level such a message can never be well-formed.
        import pytest

        from repro.errors import CryptoError

        with pytest.raises(CryptoError):
            scheme.sign(
                str(cluster.replica(0, 2).replica_id),
                b"payload",
                cluster.keystore.signing_key(str(replica.replica_id)),
            )


class TestSafetyUnderEquivocationAttempt:
    def test_honest_quorum_still_commits_the_first_proposal(self):
        cluster = build_cluster(num_shards=1)
        primary = cluster.primary_of(0)
        request = _request("honest-commit", (0,), cluster)
        # The primary proposes normally ...
        cluster.client.submit(request.transaction)
        assert cluster.run_until_clients_done(timeout=30.0)
        # ... and a late equivocating proposal for the same sequence changes nothing.
        other = _request("late-equivocation", (0,), cluster)
        equivocation = PrePrepare(
            sender=primary.replica_id,
            view=0,
            sequence=1,
            batch_digest=batch_digest((other,)),
            requests=(other,),
        )
        for replica in cluster.shard_replicas(0):
            _deliver_tagged(primary, equivocation, replica)
        cluster.run(duration=cluster.simulator.now + 5.0)
        for replica in cluster.shard_replicas(0):
            assert replica.ledger.contains_txn("honest-commit")
            assert not replica.ledger.contains_txn("late-equivocation")
            assert replica.log.state(0, 1) in (SlotState.COMMITTED, SlotState.EXECUTED)


class TestMismatchedBatchDigest:
    """Every receiver of one shared message object rejects a batch that does
    not hash to the claimed digest: the memoised hash of the requests is
    compared with the claim on every reception, never trusted in its place."""

    def _batches(self, cluster, shards):
        carried = (_request("carried", shards, cluster),)
        claimed = (_request("claimed", shards, cluster),)
        return carried, batch_digest(claimed)

    def _deliver_to_all(self, sender, message, receivers):
        sender._authenticate_for_audience(message, [r.replica_id for r in receivers])
        for receiver in receivers:
            receiver.deliver(message)
        assert requests_digest(message) == batch_digest(message.requests)
        assert requests_digest(message) != message.batch_digest

    def test_pre_prepare_is_rejected_by_every_backup(self):
        cluster = build_cluster(num_shards=1)
        primary = cluster.primary_of(0)
        requests, claimed = self._batches(cluster, (0,))
        proposal = PrePrepare(
            sender=primary.replica_id, view=0, sequence=1, batch_digest=claimed, requests=requests
        )
        backups = [r for r in cluster.shard_replicas(0) if r is not primary]
        self._deliver_to_all(primary, proposal, backups)
        assert not any(replica.log.has_accepted(0, 1) for replica in backups)

    def test_forward_is_rejected_by_every_replica_of_the_next_shard(self):
        cluster = build_cluster(num_shards=2)
        requests, claimed = self._batches(cluster, (0, 1))
        commit = Commit(
            sender=cluster.replica(0, 0).replica_id, view=0, sequence=1, batch_digest=claimed
        )
        scheme = SignatureScheme(cluster.keystore)
        certificate = CommitCertificate(
            shard=0,
            view=0,
            sequence=1,
            batch_digest=claimed,
            signatures=tuple(scheme.sign(f"r{i}@S0", commit.signed_payload()) for i in range(3)),
        )
        forward = Forward(
            sender=cluster.replica(0, 0).replica_id,
            requests=requests,
            certificate=certificate,
            batch_digest=claimed,
            origin_shard=0,
        )
        receivers = cluster.shard_replicas(1)
        self._deliver_to_all(cluster.replica(0, 0), forward, receivers)
        for receiver in receivers:
            assert receiver.cross_record(claimed) is None
            assert receiver.cross_record(batch_digest(requests)) is None

    def test_prepare_2pc_is_rejected_by_every_involved_replica(self):
        cluster = build_cluster(num_shards=2, replica_class=AhlReplica)
        requests, claimed = self._batches(cluster, (0, 1))
        committee = cluster.replica(0, 0)
        prepare = Prepare2PC(
            sender=committee.replica_id,
            requests=requests,
            batch_digest=claimed,
            global_sequence=1,
            shard_sequences={1: 1},
        )
        receivers = cluster.shard_replicas(1)
        self._deliver_to_all(committee, prepare, receivers)
        for receiver in receivers:
            assert receiver.ahl_record(claimed) is None
            assert receiver.ahl_record(batch_digest(requests)) is None

    def test_cross_propose_is_rejected_by_every_involved_replica(self):
        cluster = build_cluster(num_shards=2, replica_class=SharperReplica)
        requests, claimed = self._batches(cluster, (0, 1))
        initiator = cluster.primary_of(0)
        proposal = CrossPropose(
            sender=initiator.replica_id, requests=requests, batch_digest=claimed, global_sequence=1
        )
        receivers = cluster.shard_replicas(1)
        self._deliver_to_all(initiator, proposal, receivers)
        for receiver in receivers:
            assert receiver.sharper_record(claimed) is None
            assert receiver.sharper_record(batch_digest(requests)) is None
