"""Packed transaction layouts: byte-identity with the generic codec walker.

Transaction and Operation encode through compiled fixed layouts that splice
memoised nested frames verbatim (``compile_fixed_dict`` raw_keys).  The fast
path must be invisible on the wire: every packed payload must equal
``encode_canonical`` of the same field dict bit for bit, or transaction
digests -- and the ledger chains built on them -- stop agreeing between
fast-path and generic encoders.

These are the byte-identity tests the ``layout-identity-test`` analysis rule
requires for ``_TXN_LAYOUT``/``_OP_LAYOUT``; ``test_payload_binding.py``
covers the message layouts.
"""

import hashlib

from repro.common import codec
from repro.txn.transaction import Operation, OpType, Transaction, TransactionBuilder


def _transaction(txn_id: str = "txn-1", *, complex_txn: bool = False) -> Transaction:
    builder = (
        TransactionBuilder(txn_id, "client-0")
        .read(0, "user1")
        .write(1, "user200", "v")
    )
    if complex_txn:
        builder.write(2, "user400", "w", depends_on=((0, "user1"),))
    return builder.build()


class TestOperationIdentity:
    def test_simple_operation_matches_generic_encoding(self):
        op = Operation(shard=2, key="user7", op_type=OpType.WRITE, value="x")
        assert op.packed_bytes() == codec.encode_canonical(op.to_wire())

    def test_read_operation_matches_generic_encoding(self):
        op = Operation(shard=0, key="user1", op_type=OpType.READ)
        assert op.packed_bytes() == codec.encode_canonical(op.to_wire())

    def test_operation_with_dependencies_matches_generic_encoding(self):
        op = Operation(
            shard=1,
            key="user9",
            op_type=OpType.WRITE,
            value="derived",
            depends_on=((0, "user1"), (2, "user400")),
        )
        assert op.packed_bytes() == codec.encode_canonical(op.to_wire())

    def test_unicode_and_empty_values_match_generic_encoding(self):
        for value in ("", "äöü ☃", "0" * 300):
            op = Operation(shard=0, key="k", op_type=OpType.WRITE, value=value)
            assert op.packed_bytes() == codec.encode_canonical(op.to_wire())


class TestTransactionIdentity:
    def test_simple_transaction_matches_generic_encoding(self):
        txn = _transaction()
        assert txn.payload_bytes() == codec.encode_canonical(txn.to_wire())

    def test_complex_transaction_matches_generic_encoding(self):
        txn = _transaction(complex_txn=True)
        assert txn.payload_bytes() == codec.encode_canonical(txn.to_wire())

    def test_packed_transaction_round_trips_through_the_decoder(self):
        txn = _transaction(complex_txn=True)
        assert codec.decode_canonical(txn.payload_bytes()) == txn.to_wire()

    def test_digest_agrees_whichever_path_encodes_first(self):
        a = _transaction("same")
        b = _transaction("same")
        a.payload_bytes()  # payload memo first
        b.digest()  # digest first
        generic = hashlib.sha256(codec.encode_canonical(a.to_wire())).digest()
        assert a.digest() == b.digest() == generic

    def test_cold_digest_never_walks_the_generic_encoder(self, monkeypatch):
        """A decoded transaction has a cold payload memo; its digest fills
        the memo through the compiled layout, not the generic walker."""
        txn = codec.decode_canonical(codec.encode_canonical(_transaction("cold")))
        assert "_payload_memo" not in txn.__dict__
        expected = hashlib.sha256(codec.encode_canonical(txn.to_wire())).digest()

        def generic_walker(value):
            raise AssertionError("Transaction.digest used the generic walker")

        monkeypatch.setattr(codec, "encode_canonical", generic_walker)
        assert txn.digest() == expected
