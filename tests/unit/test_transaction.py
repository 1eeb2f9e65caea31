"""Unit tests for deterministic transactions and read/write sets."""

import pytest

from repro.errors import MalformedMessageError
from repro.txn.transaction import Operation, OpType, Transaction, TransactionBuilder


def _simple_txn(txn_id="t1"):
    return (
        TransactionBuilder(txn_id, "client-0")
        .read_modify_write(0, "user1", "v1")
        .build()
    )


def _cross_txn(txn_id="t2", shards=(0, 1, 2)):
    builder = TransactionBuilder(txn_id, "client-0")
    for shard in shards:
        builder.read_modify_write(shard, f"user{shard * 10}", f"v{shard}")
    return builder.build()


class TestTransactionBasics:
    def test_empty_transaction_rejected(self):
        with pytest.raises(MalformedMessageError):
            Transaction(txn_id="empty", client_id="c", operations=())

    def test_single_shard_detection(self):
        txn = _simple_txn()
        assert txn.involved_shards == frozenset({0})
        assert not txn.is_cross_shard

    def test_cross_shard_detection(self):
        txn = _cross_txn()
        assert txn.involved_shards == frozenset({0, 1, 2})
        assert txn.is_cross_shard

    def test_fragment_for_shard(self):
        txn = _cross_txn()
        fragment = txn.fragment_for(1)
        assert all(op.shard == 1 for op in fragment)
        assert len(fragment) == 2  # the read and the write

    def test_keys_for_shard(self):
        txn = _cross_txn()
        assert txn.keys_for(2) == frozenset({"user20"})
        assert txn.keys_for(5) == frozenset()

    def test_read_and_write_keys(self):
        txn = (
            TransactionBuilder("t", "c")
            .read(0, "a")
            .write(0, "b", "value")
            .build()
        )
        assert txn.read_keys_for(0) == frozenset({"a"})
        assert txn.write_keys_for(0) == frozenset({"b"})

    def test_digest_is_stable_and_unique(self):
        assert _simple_txn().digest() == _simple_txn().digest()
        assert _simple_txn("a").digest() != _simple_txn("b").digest()

    def test_builder_chaining_returns_builder(self):
        builder = TransactionBuilder("t", "c")
        assert builder.read(0, "k") is builder


class TestComplexTransactions:
    def test_dependency_makes_transaction_complex(self):
        txn = (
            TransactionBuilder("t", "c")
            .read_modify_write(0, "a", "v")
            .write(1, "b", "v", depends_on=((0, "a"),))
            .build()
        )
        assert txn.is_complex
        assert not txn.is_simple
        assert txn.remote_read_count == 1

    def test_dependencies_extend_involved_shards(self):
        txn = (
            TransactionBuilder("t", "c")
            .write(1, "b", "v", depends_on=((3, "remote-key"),))
            .build()
        )
        assert txn.involved_shards == frozenset({1, 3})

    def test_transactions_over_the_same_shards_share_one_set(self):
        first = TransactionBuilder("t1", "c").write(2, "a", "v").write(0, "b", "v").build()
        second = TransactionBuilder("t2", "c").write(0, "c", "v").write(2, "d", "v").build()
        assert first.involved_shards is second.involved_shards
        assert first.involved_shards is not _cross_txn().involved_shards

    def test_simple_cross_shard_has_no_dependencies(self):
        assert _cross_txn().is_simple
        assert _cross_txn().remote_read_count == 0


class TestConflicts:
    def test_write_write_conflict(self):
        a = TransactionBuilder("a", "c").write(0, "k", "1").build()
        b = TransactionBuilder("b", "c").write(0, "k", "2").build()
        assert a.conflicts_with(b)
        assert b.conflicts_with(a)

    def test_read_write_conflict(self):
        a = TransactionBuilder("a", "c").read(0, "k").build()
        b = TransactionBuilder("b", "c").write(0, "k", "2").build()
        assert a.conflicts_with(b)

    def test_read_read_is_not_a_conflict(self):
        a = TransactionBuilder("a", "c").read(0, "k").build()
        b = TransactionBuilder("b", "c").read(0, "k").build()
        assert not a.conflicts_with(b)

    def test_disjoint_keys_do_not_conflict(self):
        a = TransactionBuilder("a", "c").write(0, "k1", "1").build()
        b = TransactionBuilder("b", "c").write(0, "k2", "2").build()
        assert not a.conflicts_with(b)

    def test_same_key_different_shards_do_not_conflict(self):
        a = TransactionBuilder("a", "c").write(0, "k", "1").build()
        b = TransactionBuilder("b", "c").write(1, "k", "2").build()
        assert not a.conflicts_with(b)


class TestWireFormat:
    def test_to_wire_roundtrip_fields(self):
        txn = _cross_txn()
        wire = txn.to_wire()
        assert wire["txn_id"] == txn.txn_id
        assert len(wire["operations"]) == len(txn.operations)

    def test_operation_wire_format_includes_dependencies(self):
        op = Operation(shard=0, key="k", op_type=OpType.WRITE, value="v", depends_on=((1, "x"),))
        assert op.to_wire()["deps"] == [[1, "x"]]
