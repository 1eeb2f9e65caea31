"""Packed envelope layouts: byte-identity with the generic codec walker.

The rich envelopes (Transaction/Operation/ClientRequest/Forward) encode
through compiled fixed layouts that splice memoised nested frames verbatim
(``compile_fixed_dict`` raw_keys).  Exactly like the vote layouts, the fast
path must be invisible on the wire: every packed payload must equal
``encode_canonical`` of the same field dict bit for bit, or digests, MACs,
and signatures stop interoperating between fast-path and generic encoders.

These are the byte-identity tests the ``layout-identity-test`` analysis rule
requires for ``_TXN_LAYOUT``/``_OP_LAYOUT``/``_CLIENT_REQUEST_LAYOUT``/
``_FORWARD_LAYOUT``.
"""

import hashlib

from repro.common import codec
from repro.common.crypto import DIGEST_SIZE, Signature
from repro.common.messages import ClientRequest, CommitCertificate, Forward
from repro.common.types import ReplicaId
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


def _certificate(digest: bytes) -> CommitCertificate:
    signatures = tuple(
        Signature(signer=f"replica-{i}", value=bytes([i]) * DIGEST_SIZE) for i in range(3)
    )
    return CommitCertificate(
        shard=0, view=0, sequence=3, batch_digest=digest, signatures=signatures
    )


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


class TestClientRequestIdentity:
    def test_client_request_matches_generic_encoding(self):
        request = ClientRequest(sender="client-0", transaction=_transaction())
        assert request.payload_bytes() == codec.encode_canonical(request._payload_fields())

    def test_client_request_with_complex_transaction_matches(self):
        request = ClientRequest(sender="client-äöü", transaction=_transaction(complex_txn=True))
        assert request.payload_bytes() == codec.encode_canonical(request._payload_fields())

    def test_packed_client_request_round_trips(self):
        request = ClientRequest(sender="client-0", transaction=_transaction())
        assert codec.decode_canonical(request.payload_bytes()) == request._payload_fields()


class TestForwardIdentity:
    def _forward(self, read_sets=None) -> Forward:
        txn = _transaction()
        request = ClientRequest(sender="client-0", transaction=txn)
        digest = b"\x07" * DIGEST_SIZE
        return Forward(
            sender=ReplicaId(0, 1),
            requests=(request,),
            certificate=_certificate(digest),
            batch_digest=digest,
            origin_shard=0,
            read_sets=read_sets or {},
        )

    def test_forward_matches_generic_encoding(self):
        forward = self._forward()
        assert forward.payload_bytes() == codec.encode_canonical(forward._payload_fields())

    def test_forward_with_read_sets_matches_generic_encoding(self):
        forward = self._forward(read_sets={0: {"user1": "a"}, 2: {"user400": "w"}})
        assert forward.payload_bytes() == codec.encode_canonical(forward._payload_fields())

    def test_packed_forward_round_trips(self):
        forward = self._forward(read_sets={1: {"user200": "v"}})
        assert codec.decode_canonical(forward.payload_bytes()) == forward._payload_fields()
