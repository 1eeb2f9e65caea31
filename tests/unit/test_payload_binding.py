"""One payload rule for every message type, checked over the codec registry.

``Message.payload_bytes`` -- the bytes every MAC covers -- is the canonical
encoding of ``{"type", "sender": str(sender), <field>: <value>, ...}`` over
every dataclass field the class does not list in ``_unbound``.  The tests
below hold every registered message type to that rule, so a new field is
MAC-bound unless its class says otherwise, and the few fields left out are
pinned here.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.baselines.ahl.messages  # noqa: F401  (registers the AHL types)
import repro.baselines.sharper.messages  # noqa: F401  (registers the Sharper types)
from repro.common import codec
from repro.common.crypto import Signature
from repro.common.messages import (
    ClientRequest,
    Commit,
    CommitCertificate,
    Message,
    PreparedProof,
    PrePrepare,
    Prepare,
)
from repro.common.types import ReplicaId
from repro.storage.ledger import genesis_block
from repro.txn.transaction import TransactionBuilder

_DIGEST = b"\x07" * 32
_SIGNATURE = Signature(signer="r1@S0", value=b"\x02" * 32)


def _request(txn_id: str) -> ClientRequest:
    txn = TransactionBuilder(txn_id, "client-0").read_modify_write(0, "user1", "v").build()
    return ClientRequest(sender="client-0", transaction=txn, signature=_SIGNATURE)


_REQUESTS = (_request("t1"), _request("t2"))
_PRE_PREPARE = PrePrepare(
    sender=ReplicaId(0, 0), view=1, sequence=4, batch_digest=_DIGEST, requests=_REQUESTS
)
_CERTIFICATE = CommitCertificate(
    shard=0, view=1, sequence=4, batch_digest=_DIGEST, signatures=(_SIGNATURE,)
)
_PROOF = PreparedProof(sequence=4, view=1, batch_digest=_DIGEST, prepares=3, requests=_REQUESTS)
_SETS = {0: {"user1": "a"}, 2: {"user400": "w"}}

#: Field values for every registered message type, keyed by field name.  Every
#: container is non-empty so that dropping one element changes it.
_FIELD_VALUES = {
    "sender": ReplicaId(0, 1),
    "transaction": _REQUESTS[0].transaction,
    "signature": _SIGNATURE,
    "sequence": 4,
    "results": ({"user1": "v"}, {"user2": "w"}),
    "shard": 2,
    "view": 1,
    "batch_digest": _DIGEST,
    "requests": _REQUESTS,
    "certificate": _CERTIFICATE,
    "origin_shard": 0,
    "read_sets": _SETS,
    "txn_ids": ("t1", "t2"),
    "write_sets": _SETS,
    "target_shard": 3,
    "state_digest": b"\x05" * 32,
    "new_view": 2,
    "last_stable_sequence": 2,
    "prepared": (_PROOF, _PROOF),
    "view_change_senders": ("r0@S0", "r2@S0"),
    "reproposals": (_PRE_PREPARE, _PRE_PREPARE),
    "abandoned": (5, 6),
    "last_executed": 9,
    "store_snapshot": {"user1": "a", "user2": "b"},
    "store_versions": {"user1": 1, "user2": 3},
    "executed_txn_ids": ("t1", "t2"),
    "blocks": (genesis_block(0), genesis_block(1)),
    "global_sequence": 11,
    "shard_sequences": {0: 3, 1: 5},
    "commit": True,
}

#: ClientRequest keeps its own payload: the client signs it, so the signature
#: stays out, and the transaction enters as its wire dict.
_OWN_RULE = {ClientRequest: ("signature",)}

#: The only fields left out of the generic payload, each bound another way: a
#: carried batch through ``batch_digest``, a signature or certificate through
#: its own signatures.
_UNBOUND = {
    "PrePrepare": ("requests",),
    "Prepare2PC": ("requests",),
    "CrossPropose": ("requests",),
    "Forward": ("requests", "certificate"),
    "Commit": ("signature",),
}


def _message_types() -> list[type[Message]]:
    return sorted(
        (cls for cls in codec.registered_wire_types().values() if issubclass(cls, Message)),
        key=lambda cls: cls.__name__,
    )


def _sample(cls: type[Message]) -> Message:
    return cls(**{f.name: _FIELD_VALUES[f.name] for f in dataclasses.fields(cls)})


def _bound_fields(cls: type[Message]) -> list[str]:
    excluded = {"sender", *cls._unbound, *_OWN_RULE.get(cls, ())}
    return [f.name for f in dataclasses.fields(cls) if f.name not in excluded]


def _expected_payload(message: Message) -> dict:
    fields = {"type": message.type_name, "sender": str(message.sender)}
    if isinstance(message, ClientRequest):
        return {**fields, "txn": message.transaction.to_wire()}
    return {**fields, **{name: getattr(message, name) for name in _bound_fields(type(message))}}


def _changed(value):
    """A value of the same type that differs from ``value``."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, (str, bytes)):
        return value * 2
    if isinstance(value, tuple):
        return value[:-1]
    if isinstance(value, dict):
        return dict(list(value.items())[:-1])
    first = dataclasses.fields(value)[0].name
    return dataclasses.replace(value, **{first: _changed(getattr(value, first))})


_TYPES = _message_types()
_IDS = [cls.__name__ for cls in _TYPES]


def test_the_registry_holds_every_protocols_messages():
    assert {"ClientRequest", "Forward", "StateTransferReply", "Prepare2PC", "CrossCommit"} <= set(_IDS)


@pytest.mark.parametrize("cls", _TYPES, ids=_IDS)
def test_payload_is_the_canonical_encoding_of_the_bound_fields(cls):
    message = _sample(cls)
    assert message.payload_bytes() == codec.encode_canonical(_expected_payload(message))
    assert codec.decode_canonical(message.payload_bytes()) == _expected_payload(message)


@pytest.mark.parametrize("cls", _TYPES, ids=_IDS)
def test_changing_any_bound_field_changes_the_payload(cls):
    message = _sample(cls)
    for name in ["sender", *_bound_fields(cls)]:
        variant = dataclasses.replace(message, **{name: _changed(getattr(message, name))})
        assert variant.payload_bytes() != message.payload_bytes(), f"{cls.__name__}.{name}"


@pytest.mark.parametrize("cls", _TYPES, ids=_IDS)
def test_unbound_entries_name_real_fields(cls):
    names = {f.name for f in dataclasses.fields(cls)}
    assert set(cls._unbound) <= names
    assert set(_OWN_RULE.get(cls, ())) <= names


def test_only_the_audited_fields_are_unbound():
    declared = {cls.__name__: cls._unbound for cls in _TYPES if "_unbound" in vars(cls)}
    assert declared == _UNBOUND


def test_a_carried_batch_is_bound_only_through_its_digest():
    """Dropping a request leaves a PrePrepare's MAC intact; receivers catch
    the swap by re-checking ``requests_digest`` against ``batch_digest``."""
    swapped = dataclasses.replace(_PRE_PREPARE, requests=_REQUESTS[:1])
    assert swapped.payload_bytes() == _PRE_PREPARE.payload_bytes()


class TestClientRequestLayout:
    """Byte identity of ``_CLIENT_REQUEST_LAYOUT`` with the generic walker."""

    def test_matches_generic_encoding(self):
        for sender in ("client-0", "client-äöü", ""):
            request = ClientRequest(sender=sender, transaction=_REQUESTS[1].transaction)
            expected = {"type": "ClientRequest", "sender": sender, "txn": request.transaction.to_wire()}
            assert request.payload_bytes() == codec.encode_canonical(expected)

    def test_the_signature_is_outside_the_signed_bytes(self):
        unsigned = ClientRequest(sender="client-0", transaction=_REQUESTS[0].transaction)
        assert unsigned.payload_bytes() == _REQUESTS[0].payload_bytes()


class TestCommitVoteLayout:
    """Byte identity of ``_COMMIT_VOTE_LAYOUT``: the sender-free bytes ``nf``
    replicas sign so that their signatures form one certificate."""

    @settings(max_examples=100, deadline=None)
    @given(view=st.integers(), sequence=st.integers(), digest=st.binary(max_size=64))
    def test_signed_payload_matches_generic_encoding(self, view, sequence, digest):
        commit = Commit(sender=ReplicaId(0, 1), view=view, sequence=sequence, batch_digest=digest)
        expected = {"type": "Commit", "view": view, "sequence": sequence, "digest": digest}
        assert commit.signed_payload() == codec.encode_canonical(expected)

    def test_certificate_and_vote_sign_the_same_bytes(self):
        commit = Commit(sender=ReplicaId(0, 2), view=1, sequence=4, batch_digest=_DIGEST)
        assert _CERTIFICATE.signed_payload() == commit.signed_payload()


@settings(max_examples=200, deadline=None)
@given(
    sender=st.text(max_size=30),
    view=st.integers(),
    sequence=st.integers(),
    digest=st.binary(max_size=80),
)
def test_compiled_layout_matches_generic_encoding_for_arbitrary_fields(
    sender, view, sequence, digest
):
    """The inlined int/str/bytes paths of the compiled layout stay identical
    to the generic walker for any value."""
    message = Prepare(sender=sender, view=view, sequence=sequence, batch_digest=digest)
    expected = {
        "type": "Prepare",
        "sender": sender,
        "view": view,
        "sequence": sequence,
        "batch_digest": digest,
    }
    assert message.payload_bytes() == codec.encode_canonical(expected)
