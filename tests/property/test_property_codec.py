"""Property-based tests: the binary codec round-trips every message type.

``decode(encode(m)) == m`` must hold for randomly generated instances of the
whole protocol message set (core PBFT, RingBFT cross-shard, state transfer,
and both baselines), and the encoding must be injective over distinct values.
Decoded values reuse their received bytes and share interned nested values,
so every memo they carry must equal a from-scratch computation.
"""

from dataclasses import fields, is_dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.ahl.messages import (
    CommitteeDecision,
    CommitteeVote,
    Decide2PC,
    Prepare2PC,
    Vote2PC,
)
from repro.baselines.sharper.messages import CrossCommit, CrossPrepare, CrossPropose
from repro.common.codec import decode_canonical, encode_canonical, registered_wire_types
from repro.common.crypto import Signature
from repro.common.messages import (
    Checkpoint,
    ClientRequest,
    ClientResponse,
    Commit,
    CommitCertificate,
    Execute,
    Forward,
    NewView,
    PrePrepare,
    Prepare,
    PreparedProof,
    RemoteView,
    StateTransferReply,
    StateTransferRequest,
    ViewChange,
    batch_digest,
    requests_digest,
)
from repro.common.types import ReplicaId
from repro.net.wire import ControlReply, ControlRequest
from repro.storage.ledger import Block
from repro.txn.transaction import Operation, OpType, Transaction

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

short_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=0x10FF), min_size=1, max_size=8
)
digests = st.binary(min_size=32, max_size=32)
shard_ids = st.integers(min_value=0, max_value=5)
sequences = st.integers(min_value=0, max_value=1_000)
views = st.integers(min_value=0, max_value=10)

replica_ids = st.builds(ReplicaId, shard=shard_ids, index=st.integers(0, 3))
senders = st.one_of(replica_ids, short_text)

operations = st.builds(
    Operation,
    shard=shard_ids,
    key=short_text,
    op_type=st.sampled_from(OpType),
    value=short_text,
    depends_on=st.lists(st.tuples(shard_ids, short_text), max_size=2).map(tuple),
)
transactions = st.builds(
    Transaction,
    txn_id=short_text,
    client_id=short_text,
    operations=st.lists(operations, min_size=1, max_size=3).map(tuple),
)
signatures = st.builds(Signature, signer=short_text, value=digests)
maybe_signature = st.none() | signatures
client_requests = st.builds(
    ClientRequest, sender=short_text, transaction=transactions, signature=maybe_signature
)
request_tuples = st.lists(client_requests, min_size=1, max_size=2).map(tuple)
kv_dicts = st.dictionaries(short_text, short_text, max_size=2)
rw_sets = st.dictionaries(shard_ids, kv_dicts, max_size=2)
certificates = st.builds(
    CommitCertificate,
    shard=shard_ids,
    view=views,
    sequence=sequences,
    batch_digest=digests,
    signatures=st.lists(signatures, max_size=3).map(tuple),
)
pre_prepares = st.builds(
    PrePrepare,
    sender=replica_ids,
    view=views,
    sequence=sequences,
    batch_digest=digests,
    requests=request_tuples,
)
prepared_proofs = st.builds(
    PreparedProof,
    sequence=sequences,
    view=views,
    batch_digest=digests,
    prepares=st.integers(1, 5),
    requests=request_tuples,
)
blocks = st.builds(
    Block,
    height=sequences,
    sequence=sequences,
    shard_id=shard_ids,
    primary=short_text,
    merkle_root=digests,
    previous_hash=digests,
    txn_ids=st.lists(short_text, max_size=3).map(tuple),
    involved_shards=st.frozensets(shard_ids, min_size=1, max_size=3),
)

MESSAGE_STRATEGIES: dict[str, st.SearchStrategy] = {
    "ClientRequest": client_requests,
    "ClientResponse": st.builds(
        ClientResponse,
        sender=replica_ids,
        txn_id=short_text,
        sequence=sequences,
        result=kv_dicts,
        shard=shard_ids,
        view=views,
    ),
    "PrePrepare": pre_prepares,
    "Prepare": st.builds(
        Prepare, sender=replica_ids, view=views, sequence=sequences, batch_digest=digests
    ),
    "Commit": st.builds(
        Commit,
        sender=replica_ids,
        view=views,
        sequence=sequences,
        batch_digest=digests,
        signature=maybe_signature,
    ),
    "CommitCertificate": certificates,
    "Forward": st.builds(
        Forward,
        sender=replica_ids,
        requests=request_tuples,
        certificate=certificates,
        batch_digest=digests,
        origin_shard=shard_ids,
        read_sets=rw_sets,
    ),
    "Execute": st.builds(
        Execute,
        sender=replica_ids,
        batch_digest=digests,
        txn_ids=st.lists(short_text, min_size=1, max_size=3).map(tuple),
        write_sets=rw_sets,
        origin_shard=shard_ids,
    ),
    "RemoteView": st.builds(
        RemoteView,
        sender=replica_ids,
        batch_digest=digests,
        target_shard=shard_ids,
    ),
    "Checkpoint": st.builds(
        Checkpoint, sender=replica_ids, sequence=sequences, state_digest=digests
    ),
    "ViewChange": st.builds(
        ViewChange,
        sender=replica_ids,
        new_view=views,
        last_stable_sequence=sequences,
        prepared=st.lists(prepared_proofs, max_size=2).map(tuple),
    ),
    "NewView": st.builds(
        NewView,
        sender=replica_ids,
        view=views,
        view_change_senders=st.lists(short_text, max_size=3).map(tuple),
        reproposals=st.lists(pre_prepares, max_size=2).map(tuple),
        abandoned=st.lists(sequences, max_size=3).map(tuple),
    ),
    "StateTransferRequest": st.builds(
        StateTransferRequest, sender=replica_ids, last_executed=sequences
    ),
    "StateTransferReply": st.builds(
        StateTransferReply,
        sender=replica_ids,
        last_executed=sequences,
        state_digest=digests,
        store_snapshot=kv_dicts,
        executed_txn_ids=st.lists(short_text, max_size=3).map(tuple),
        blocks=st.lists(blocks, max_size=2).map(tuple),
    ),
    "Prepare2PC": st.builds(
        Prepare2PC,
        sender=replica_ids,
        requests=request_tuples,
        batch_digest=digests,
        global_sequence=sequences,
    ),
    "Vote2PC": st.builds(
        Vote2PC,
        sender=replica_ids,
        batch_digest=digests,
        shard=shard_ids,
        commit=st.booleans(),
    ),
    "CommitteeVote": st.builds(
        CommitteeVote, sender=replica_ids, batch_digest=digests, commit=st.booleans()
    ),
    "CommitteeDecision": st.builds(
        CommitteeDecision, sender=replica_ids, batch_digest=digests, commit=st.booleans()
    ),
    "Decide2PC": st.builds(
        Decide2PC,
        sender=replica_ids,
        batch_digest=digests,
        commit=st.booleans(),
    ),
    "CrossPropose": st.builds(
        CrossPropose,
        sender=replica_ids,
        requests=request_tuples,
        batch_digest=digests,
        global_sequence=sequences,
    ),
    "CrossPrepare": st.builds(
        CrossPrepare, sender=replica_ids, batch_digest=digests, shard=shard_ids
    ),
    "CrossCommit": st.builds(
        CrossCommit, sender=replica_ids, batch_digest=digests, shard=shard_ids
    ),
}

any_message = st.one_of(*MESSAGE_STRATEGIES.values())

#: One strategy per registered wire type (messages and the values they nest).
VALUE_STRATEGIES: dict[str, st.SearchStrategy] = {
    **MESSAGE_STRATEGIES,
    "Transaction": transactions,
    "Operation": operations,
    "OpType": st.sampled_from(OpType),
    "Signature": signatures,
    "ReplicaId": replica_ids,
    "PreparedProof": prepared_proofs,
    "Block": blocks,
    "ControlRequest": st.builds(ControlRequest, op=short_text, data=kv_dicts),
    "ControlReply": st.builds(ControlReply, op=short_text, ok=st.booleans(), data=kv_dicts),
}

#: Memoised derivations a decoded value may carry.
MEMOISED_METHODS = ("payload_bytes", "digest", "signed_payload", "header_bytes", "block_hash")


def _fresh(value):
    """An equal value rebuilt from scratch, so none of its parts has a memo."""
    if is_dataclass(value):
        return type(value)(**{f.name: _fresh(getattr(value, f.name)) for f in fields(value)})
    if isinstance(value, (tuple, list, frozenset)):
        return type(value)(_fresh(item) for item in value)
    if isinstance(value, dict):
        return {key: _fresh(item) for key, item in value.items()}
    return value


def _object_pairs(value, twin):
    """Walk two equal values in step, yielding each pair of dataclass instances."""
    if is_dataclass(value):
        yield value, twin
        for f in fields(value):
            yield from _object_pairs(getattr(value, f.name), getattr(twin, f.name))
    elif isinstance(value, (tuple, list)):
        for item, twin_item in zip(value, twin):
            yield from _object_pairs(item, twin_item)
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _object_pairs(item, twin[key])


def _warm(value):
    for obj, _ in _object_pairs(value, value):
        for method in MEMOISED_METHODS:
            if hasattr(obj, method):
                getattr(obj, method)()


def _assert_memos_pure(value, reference):
    for obj, twin in _object_pairs(value, _fresh(reference)):
        memo = obj.__dict__.get("_wire_memo")
        if memo is not None:
            assert memo == encode_canonical(twin), type(obj).__name__
        for method in MEMOISED_METHODS:
            if hasattr(obj, method):
                assert getattr(obj, method)() == getattr(twin, method)(), (
                    f"{type(obj).__name__}.{method}"
                )


class TestCodecRoundTrip:
    @pytest.mark.parametrize("type_name", sorted(MESSAGE_STRATEGIES))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_every_message_type_round_trips(self, type_name, data):
        message = data.draw(MESSAGE_STRATEGIES[type_name])
        decoded = decode_canonical(encode_canonical(message))
        assert decoded == message
        assert type(decoded) is type(message)

    @settings(max_examples=50, deadline=None)
    @given(message=any_message)
    def test_encoding_is_deterministic(self, message):
        assert encode_canonical(message) == encode_canonical(message)


class TestDecodedValuesArePure:
    def test_every_registered_type_has_a_strategy(self):
        assert set(registered_wire_types()) <= set(VALUE_STRATEGIES)

    @pytest.mark.parametrize("type_name", sorted(VALUE_STRATEGIES))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_reencoding_a_decoded_value_gives_its_bytes(self, type_name, data):
        frame = encode_canonical(data.draw(VALUE_STRATEGIES[type_name]))
        assert encode_canonical(decode_canonical(frame)) == frame

    @pytest.mark.parametrize("type_name", sorted(VALUE_STRATEGIES))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_seeded_and_shared_memos_match_a_fresh_computation(self, type_name, data):
        """Nested in a carrier object, interned values come back from the
        table on the second decode with the memos the first one warmed."""
        value = data.draw(VALUE_STRATEGIES[type_name])
        _assert_memos_pure(decode_canonical(encode_canonical(value)), value)
        carrier = encode_canonical(ControlRequest(op="carry", data={"v": value}))
        _warm(decode_canonical(carrier))
        again = decode_canonical(carrier).data["v"]
        assert again == value
        _assert_memos_pure(again, value)


class TestCodecInjectivity:
    @settings(max_examples=50, deadline=None)
    @given(a=any_message, b=any_message)
    def test_distinct_messages_encode_distinctly(self, a, b):
        if a != b:
            assert encode_canonical(a) != encode_canonical(b)
        else:
            assert encode_canonical(a) == encode_canonical(b)

    @settings(max_examples=50, deadline=None)
    @given(a=transactions, b=transactions)
    def test_distinct_transactions_digest_distinctly(self, a, b):
        # Transaction payloads carry the full envelope, so digest equality
        # must coincide with value equality (modulo SHA-256 collisions).
        if a != b:
            assert a.digest() != b.digest()
        else:
            assert a.digest() == b.digest()


class TestRequestsDigestMemo:
    @pytest.mark.parametrize("type_name", ("PrePrepare", "Forward", "Prepare2PC", "CrossPropose"))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_memo_equals_the_batch_digest_of_a_fresh_equal_message(self, type_name, data):
        """The memo is a pure function of the message: sent or decoded, it
        equals ``batch_digest`` over a freshly built equal message's
        requests -- whatever digest the message claims."""
        message = data.draw(MESSAGE_STRATEGIES[type_name])
        decoded = decode_canonical(encode_canonical(message))
        expected = batch_digest(_fresh(message).requests)
        for carrier in (message, decoded, message):  # the last one hits the memo
            assert requests_digest(carrier) == expected
        assert requests_digest(_fresh(message)) == expected
