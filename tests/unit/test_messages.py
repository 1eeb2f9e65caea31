"""Unit tests for protocol messages, batching, and message statistics."""

from repro.common.batching import Batcher
from repro.common.crypto import KeyStore, SignatureScheme
from repro.common.messages import (
    MESSAGE_SIZES,
    Checkpoint,
    ClientRequest,
    ClientResponse,
    Commit,
    CommitCertificate,
    Execute,
    Forward,
    MessageStats,
    PrePrepare,
    Prepare,
    RemoteView,
    batch_digest,
)
from repro.common.types import ReplicaId
from repro.txn.transaction import TransactionBuilder


def _request(txn_id="t1", shards=(0,)):
    builder = TransactionBuilder(txn_id, "client-0")
    for shard in shards:
        builder.read_modify_write(shard, f"user{shard}", "v")
    return ClientRequest(sender="client-0", transaction=builder.build())


class TestWireSizes:
    def test_paper_reported_sizes(self):
        # Section 8: PrePrepare 5408B, Prepare 216B, Commit 269B,
        # Forward 6147B, Checkpoint 164B, Execute 1732B.
        assert MESSAGE_SIZES["PrePrepare"] == 5408
        assert MESSAGE_SIZES["Prepare"] == 216
        assert MESSAGE_SIZES["Commit"] == 269
        assert MESSAGE_SIZES["Forward"] == 6147
        assert MESSAGE_SIZES["Checkpoint"] == 164
        assert MESSAGE_SIZES["Execute"] == 1732

    def test_wire_size_lookup_by_type_name(self):
        message = Prepare(sender=ReplicaId(0, 1), view=0, sequence=1, batch_digest=b"\x00" * 32)
        assert message.wire_size() == 216

    def test_unknown_message_types_get_default_size(self):
        response = ClientResponse(
            sender=ReplicaId(0, 0), txn_id="t", sequence=1, result={}, shard=0, view=0
        )
        assert response.wire_size() == MESSAGE_SIZES["ClientResponse"]


class TestDigests:
    def test_batch_digest_depends_on_content_and_order(self):
        a, b = _request("a"), _request("b")
        assert batch_digest([a, b]) == batch_digest([a, b])
        assert batch_digest([a, b]) != batch_digest([b, a])
        assert batch_digest([a]) != batch_digest([b])

    def test_message_payload_distinguishes_views(self):
        one = Prepare(sender=ReplicaId(0, 1), view=0, sequence=1, batch_digest=b"\x00" * 32)
        two = Prepare(sender=ReplicaId(0, 1), view=1, sequence=1, batch_digest=b"\x00" * 32)
        assert one.payload_bytes() != two.payload_bytes()

    def test_commit_signed_payload_excludes_sender(self):
        digest = b"\x01" * 32
        a = Commit(sender=ReplicaId(0, 1), view=0, sequence=3, batch_digest=digest)
        b = Commit(sender=ReplicaId(0, 2), view=0, sequence=3, batch_digest=digest)
        assert a.signed_payload() == b.signed_payload()


class TestCommitCertificate:
    def test_certificate_counts_distinct_signers(self):
        scheme = SignatureScheme(KeyStore())
        digest = b"\x02" * 32
        commit = Commit(sender=ReplicaId(0, 0), view=0, sequence=1, batch_digest=digest)
        signatures = tuple(
            scheme.sign(f"r{i}@S0", commit.signed_payload()) for i in range(3)
        )
        certificate = CommitCertificate(
            shard=0, view=0, sequence=1, batch_digest=digest, signatures=signatures
        )
        assert certificate.distinct_signers == 3
        assert certificate.signed_payload() == commit.signed_payload()


class TestCrossShardMessages:
    def test_forward_payload_binds_the_batch_through_its_digest(self):
        requests = (_request("t1", (0, 1)), _request("t2", (0, 1)))
        certificate = CommitCertificate(
            shard=0, view=0, sequence=1, batch_digest=batch_digest(requests), signatures=()
        )
        forward = Forward(
            sender=ReplicaId(0, 2),
            requests=requests,
            certificate=certificate,
            batch_digest=batch_digest(requests),
            origin_shard=0,
        )
        payload = forward.payload_bytes()
        assert batch_digest(requests) in payload
        assert b"t1" not in payload and b"t2" not in payload

    def test_execute_payload_contains_write_sets(self):
        execute = Execute(
            sender=ReplicaId(1, 0),
            batch_digest=b"\x03" * 32,
            txn_ids=("t1",),
            write_sets={0: {"user1": "value-xyz"}},
            origin_shard=1,
        )
        assert b"value-xyz" in execute.payload_bytes()

    def test_remote_view_identifies_target_shard(self):
        message = RemoteView(sender=ReplicaId(1, 0), batch_digest=b"\x04" * 32, target_shard=0)
        assert message.target_shard == 0
        assert message.wire_size() == MESSAGE_SIZES["RemoteView"]


class TestMessageStats:
    def test_record_accumulates_counts_and_bytes(self):
        stats = MessageStats()
        stats.record(Checkpoint(sender=ReplicaId(0, 0), sequence=1, state_digest=b"\x00" * 32))
        stats.record(Checkpoint(sender=ReplicaId(0, 0), sequence=2, state_digest=b"\x00" * 32))
        assert stats.sent_count["Checkpoint"] == 2
        assert stats.total_bytes == 2 * MESSAGE_SIZES["Checkpoint"]

    def test_merged_with_combines_both_sides(self):
        first, second = MessageStats(), MessageStats()
        first.record(Checkpoint(sender=ReplicaId(0, 0), sequence=1, state_digest=b"\x00" * 32))
        second.record(Prepare(sender=ReplicaId(0, 0), view=0, sequence=1, batch_digest=b"\x00" * 32))
        merged = first.merged_with(second)
        assert merged.total_messages == 2
        assert set(merged.sent_count) == {"Checkpoint", "Prepare"}


class TestBatcher:
    def test_batch_completes_at_configured_size(self):
        batcher = Batcher(batch_size=3)
        assert batcher.add(_request("t1")) is None
        assert batcher.add(_request("t2")) is None
        batch = batcher.add(_request("t3"))
        assert batch is not None and len(batch) == 3
        assert batcher.pending == 0

    def test_requests_grouped_by_involved_shard_set(self):
        batcher = Batcher(batch_size=2)
        assert batcher.add(_request("single", (0,))) is None
        assert batcher.add(_request("cross", (0, 1))) is None
        batch = batcher.add(_request("single-2", (0,)))
        assert batch is not None
        assert {r.transaction.txn_id for r in batch} == {"single", "single-2"}

    def test_flush_returns_partial_batches(self):
        batcher = Batcher(batch_size=10)
        batcher.add(_request("a", (0,)))
        batcher.add(_request("b", (0, 1)))
        flushed = batcher.flush()
        assert len(flushed) == 2
        assert batcher.pending == 0

    def test_size_one_batches_complete_immediately(self):
        batcher = Batcher(batch_size=1)
        assert batcher.add(_request("a")) is not None


class TestPrePrepare:
    def test_preprepare_carries_requests_and_digest(self):
        requests = (_request("t1"), _request("t2"))
        message = PrePrepare(
            sender=ReplicaId(0, 0),
            view=0,
            sequence=7,
            batch_digest=batch_digest(requests),
            requests=requests,
        )
        assert message.sequence == 7
        assert batch_digest(message.requests) == message.batch_digest
