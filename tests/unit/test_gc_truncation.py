"""Unit tests for checkpoint-driven garbage collection primitives.

Covers the three layers the GC watermark flows through: the consensus log
(`truncate_below`), the checkpoint store (voted digests, bounded stable
history), and the cross-shard record lifecycle (`settled`).
"""

from repro.common.crypto import sha256
from repro.common.messages import PrePrepare
from repro.common.types import ReplicaId
from repro.consensus.pbft.log import ConsensusLog
from repro.core.records import CrossShardRecord
from repro.storage.checkpoint import CheckpointStore


def _pre_prepare(view: int, sequence: int, digest: bytes) -> PrePrepare:
    return PrePrepare(
        sender=ReplicaId(shard=0, index=0),
        view=view,
        sequence=sequence,
        batch_digest=digest,
        requests=(),
    )


class TestConsensusLogTruncation:
    def test_truncate_drops_slots_at_or_below_watermark(self):
        log = ConsensusLog(quorum=3)
        for seq in range(1, 7):
            log.slot(0, seq).record_pre_prepare(_pre_prepare(0, seq, sha256(f"b{seq}".encode())))
            log.accept(0, seq, sha256(f"b{seq}".encode()))
        released = log.truncate_below(4)
        assert log.slot_count == 2
        assert log.highest_sequence() == 6
        assert released == {sha256(f"b{seq}".encode()) for seq in range(1, 5)}

    def test_truncate_prunes_accepted_digests(self):
        log = ConsensusLog(quorum=3)
        log.accept(0, 3, b"d3")
        log.accept(0, 5, b"d5")
        log.truncate_below(3)
        assert not log.has_accepted(0, 3)
        assert log.has_accepted(0, 5)

    def test_digest_shared_with_retained_slot_is_not_released(self):
        """A batch re-proposed above the watermark keeps its payload alive."""
        log = ConsensusLog(quorum=3)
        shared = sha256(b"shared")
        for view, seq in ((0, 2), (1, 6)):
            log.slot(view, seq).record_pre_prepare(_pre_prepare(view, seq, shared))
            log.accept(view, seq, shared)
        released = log.truncate_below(4)
        assert released == set()
        assert log.slot_count == 1

    def test_truncation_preserves_prepared_evidence_above_watermark(self):
        log = ConsensusLog(quorum=3)
        digest = sha256(b"high")
        log.slot(0, 9).record_pre_prepare(_pre_prepare(0, 9, digest))
        log.truncate_below(4)
        assert log.pre_prepare_for(0, 9) is not None

    def test_highest_sequence_survives_truncation(self):
        """Regression: an emptied log must not let a new primary reuse sequences.

        After a view change the new primary seeds ``next_sequence`` from
        ``highest_sequence()``; if truncation reset it to zero, fresh batches
        would collide with executed sequence numbers.
        """
        log = ConsensusLog(quorum=3)
        for seq in range(1, 9):
            log.slot(0, seq).record_pre_prepare(_pre_prepare(0, seq, sha256(f"b{seq}".encode())))
        log.truncate_below(8)
        assert log.slot_count == 0
        assert log.highest_sequence() == 8

    def test_truncating_empty_log_is_a_noop(self):
        log = ConsensusLog(quorum=3)
        assert log.truncate_below(100) == set()
        assert log.slot_count == 0


class TestCheckpointDigest:
    def test_voted_digest_is_stamped_into_stable_record(self):
        checkpoints = CheckpointStore(interval=2, quorum=3)
        digest = sha256(b"real-state")
        for replica in ("r0", "r1", "r2"):
            checkpoints.add_vote(2, replica, state_digest=digest)
        record = checkpoints.stable_record(2)
        assert record is not None
        assert record.state_digest == digest
        assert record.state_digest != sha256(b"stable-2")

    def test_plurality_digest_wins_over_forged_minority(self):
        """A lone Byzantine digest cannot displace the digest most replicas voted for."""
        checkpoints = CheckpointStore(interval=2, quorum=3)
        good, forged = sha256(b"good"), sha256(b"forged")
        assert not checkpoints.add_vote(2, "r0", state_digest=good)
        assert not checkpoints.add_vote(2, "byz", state_digest=forged)
        assert checkpoints.add_vote(2, "r1", state_digest=good)
        assert checkpoints.stable_record(2).state_digest == good

    def test_divergent_correct_digests_still_stabilise(self):
        """Out-of-band cross-shard execution can split correct digests 2-2;
        stability must count voters per sequence, not per digest, or GC stalls."""
        checkpoints = CheckpointStore(interval=2, quorum=3)
        a, b = sha256(b"state-a"), sha256(b"state-b")
        assert not checkpoints.add_vote(2, "r0", state_digest=a)
        assert not checkpoints.add_vote(2, "r1", state_digest=a)
        assert checkpoints.add_vote(2, "r2", state_digest=b)
        assert checkpoints.last_stable_sequence == 2
        assert checkpoints.stable_record(2).state_digest == a

    def test_unbacked_digest_falls_back_to_placeholder(self):
        """A 1-1-1 digest split must not stamp the tie-break winner (possibly
        Byzantine-chosen) once a digest quorum of f+1 is demanded."""
        checkpoints = CheckpointStore(interval=2, quorum=3, digest_quorum=2)
        a, b = sha256(b"state-a"), sha256(b"forged")
        assert not checkpoints.add_vote(2, "r0", state_digest=a)
        assert not checkpoints.add_vote(2, "byz", state_digest=b)
        assert checkpoints.add_vote(2, "r1", state_digest=None)
        assert checkpoints.stable_record(2).state_digest == sha256(b"stable-2")

    def test_duplicate_voter_counts_once_across_digests(self):
        checkpoints = CheckpointStore(interval=2, quorum=2)
        a, b = sha256(b"state-a"), sha256(b"state-b")
        assert not checkpoints.add_vote(2, "r0", state_digest=a)
        assert not checkpoints.add_vote(2, "r0", state_digest=b)

    def test_legacy_votes_without_digest_fall_back_to_placeholder(self):
        checkpoints = CheckpointStore(interval=2, quorum=2)
        for replica in ("r0", "r1"):
            checkpoints.add_vote(2, replica)
        assert checkpoints.stable_record(2).state_digest == sha256(b"stable-2")


class TestBoundedStableHistory:
    def test_keeps_only_latest_k_stable_records(self):
        checkpoints = CheckpointStore(interval=2, keep_stable=2, quorum=3)
        for sequence in (2, 4, 6, 8):
            for replica in ("r0", "r1", "r2"):
                checkpoints.add_vote(sequence, replica)
        assert checkpoints.stable_record_count == 2
        assert checkpoints.stable_record(2) is None
        assert checkpoints.stable_record(4) is None
        assert checkpoints.stable_record(6) is not None
        assert checkpoints.stable_record(8) is not None
        assert checkpoints.last_stable_sequence == 8

    def test_vote_log_is_pruned_at_stability(self):
        checkpoints = CheckpointStore(interval=2, quorum=3)
        checkpoints.add_vote(2, "r0")
        for replica in ("r0", "r1", "r2"):
            checkpoints.add_vote(4, replica)
        assert checkpoints.pending_vote_count == 0


class TestCrossShardRecordSettlement:
    def _record(self, **overrides) -> CrossShardRecord:
        record = CrossShardRecord(
            batch_digest=b"d", involved_shards=frozenset({0, 1}), weak_quorum=lambda shard: 2
        )
        for name, value in overrides.items():
            setattr(record, name, value)
        return record

    def test_unexecuted_record_is_never_settled(self):
        record = self._record(sequence=5, locked=True)
        assert not record.settled(True)
        assert not record.settled(False)

    def test_record_without_sequence_is_never_settled(self):
        record = self._record(executed=True, replied=True, execute_sent=True)
        assert not record.settled(True)

    def test_initiator_needs_the_client_reply(self):
        record = self._record(sequence=5, executed=True, execute_sent=True)
        assert not record.settled(True)
        record.replied = True
        assert record.settled(True)

    def test_non_initiator_settles_once_execute_rotation_continues(self):
        record = self._record(sequence=5, executed=True)
        assert not record.settled(False)
        record.execute_sent = True
        assert record.settled(False)
