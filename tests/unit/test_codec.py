"""Unit tests for the canonical binary codec, the payload/digest memos and
the intern table."""

import struct

import pytest

from repro.common import codec
from repro.common.codec import (
    decode_canonical,
    encode_canonical,
    legacy_json_encoding,
    registered_wire_types,
)
from repro.common.crypto import Signature
from repro.common.messages import (
    Checkpoint,
    ClientRequest,
    Commit,
    Execute,
    PreparedProof,
    batch_digest,
)
from repro.common.types import ReplicaId
from repro.errors import MalformedMessageError
from repro.txn.transaction import OpType, Operation, Transaction, TransactionBuilder


def _txn(txn_id="t1", shard=0):
    return TransactionBuilder(txn_id, "client-0").read_modify_write(shard, "user1", "v").build()


def _object_frame(entries, name=b"ReplicaId", body_length=None):
    """A hand-built object frame: ``entries`` are (field name, value) pairs;
    ``body_length`` overrides the length the frame claims for its body."""
    body = b"".join(
        struct.pack(">I", len(fname)) + fname + encode_canonical(value)
        for fname, value in entries
    )
    size = len(body) if body_length is None else body_length
    return b"O" + struct.pack(">I", len(name)) + name + struct.pack(">I", size) + body


def _with_body_length(frame, delta):
    """``frame`` (a top-level object frame) claiming ``delta`` more body bytes."""
    at = 5 + struct.unpack_from(">I", frame, 1)[0]
    (size,) = struct.unpack_from(">I", frame, at)
    return frame[:at] + struct.pack(">I", size + delta) + frame[at + 4 :]


def _requests(prefix, count, value="v"):
    return tuple(
        ClientRequest(
            sender="client-0",
            transaction=TransactionBuilder(f"{prefix}-{i}", "client-0")
            .read_modify_write(0, "user1", value)
            .build(),
        )
        for i in range(count)
    )


def _proof(requests):
    return PreparedProof(
        sequence=1, view=0, batch_digest=b"\x05" * 32, prepares=3, requests=requests
    )


class TestInjectivity:
    """Distinct values must never share an encoding (the ``default=str`` bug)."""

    def test_bytes_never_collide_with_their_string_forms(self):
        raw = b"\x01\x02"
        for impostor in (raw.hex(), str(raw), raw.decode("latin-1")):
            assert encode_canonical(raw) != encode_canonical(impostor)

    def test_int_keys_never_collide_with_str_keys(self):
        assert encode_canonical({1: "x"}) != encode_canonical({"1": "x"})

    def test_int_values_never_collide_with_str_values(self):
        assert encode_canonical(7) != encode_canonical("7")
        assert encode_canonical({"k": 7}) != encode_canonical({"k": "7"})

    def test_bool_never_collides_with_int(self):
        assert encode_canonical(True) != encode_canonical(1)
        assert encode_canonical(False) != encode_canonical(0)

    def test_list_tuple_and_set_are_distinct(self):
        assert encode_canonical([1, 2]) != encode_canonical((1, 2))
        assert encode_canonical([1, 2]) != encode_canonical(frozenset({1, 2}))

    def test_nesting_boundaries_are_unambiguous(self):
        assert encode_canonical([["a"], "b"]) != encode_canonical([["a", "b"]])
        assert encode_canonical({"a": {"b": "c"}}) != encode_canonical({"a": {"b": "c"}, "d": {}})


class TestDeterminism:
    def test_dict_ordering_is_insertion_independent(self):
        assert encode_canonical({"a": 1, "b": 2}) == encode_canonical({"b": 2, "a": 1})
        assert encode_canonical({2: "x", 10: "y"}) == encode_canonical({10: "y", 2: "x"})

    def test_mixed_key_dicts_encode_deterministically(self):
        one = encode_canonical({1: "x", "1": "y"})
        two = encode_canonical({"1": "y", 1: "x"})
        assert one == two

    def test_frozenset_ordering_is_canonical(self):
        assert encode_canonical(frozenset({3, 1, 2})) == encode_canonical(frozenset({2, 3, 1}))


class TestRoundTrip:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -17,
            2**80,
            1.5,
            "",
            "héllo",
            b"",
            b"\x00\xff",
            [1, "two", b"three"],
            (1, (2, 3)),
            {"a": [1], "b": {"c": None}},
            {1: "x", "1": "y"},
            frozenset({1, 2, 3}),
        ],
    )
    def test_primitives_round_trip(self, value):
        decoded = decode_canonical(encode_canonical(value))
        assert decoded == value
        assert type(decoded) is type(value)

    def test_registered_dataclasses_round_trip(self):
        txn = _txn()
        assert decode_canonical(encode_canonical(txn)) == txn
        rid = ReplicaId(shard=2, index=3)
        assert decode_canonical(encode_canonical(rid)) == rid
        op = Operation(shard=0, key="k", op_type=OpType.WRITE, value="v", depends_on=((1, "x"),))
        assert decode_canonical(encode_canonical(op)) == op

    def test_trailing_bytes_rejected(self):
        with pytest.raises(MalformedMessageError):
            decode_canonical(encode_canonical(1) + b"!")

    @pytest.mark.parametrize(
        "junk",
        [
            b"",  # empty frame
            b"\x99",  # unknown tag
            b"D\x00",  # truncated float body
            b"I\x00\x00\x00\x02ab",  # non-numeric int body
            b"S\x00\x00\x00\x01\xff",  # invalid utf-8 str body
            b"B\x00\x00\x00\x05ab",  # truncated bytes body
            b"I\x00\x00",  # truncated length prefix
            b"I\x00\x00\x00\x02+5",  # non-canonical int spelling
            b"I\x00\x00\x00\x03" + b"5_0",  # underscore int spelling
            b"I\x00\x00\x00\x64" + b"5",  # int body longer than the frame
            b"S\x00\x00\x00\x64" + b"ab",  # str body longer than the frame
        ],
    )
    def test_malformed_inputs_raise_the_module_error(self, junk):
        """Low-level struct/unicode errors are translated, never leaked."""
        with pytest.raises(MalformedMessageError):
            decode_canonical(junk)

    def test_legacy_context_is_reentrant(self):
        with legacy_json_encoding():
            with legacy_json_encoding():
                assert codec.LEGACY.enabled
            assert codec.LEGACY.enabled  # inner exit must not clear the outer scope
        assert not codec.LEGACY.enabled

    def test_unknown_type_rejected(self):
        with pytest.raises(MalformedMessageError):
            encode_canonical(object())

    def test_registry_contains_the_protocol_message_set(self):
        names = set(registered_wire_types())
        assert {"Transaction", "ClientRequest", "Forward", "Commit", "Block", "Signature"} <= names


class TestCanonicalForm:
    """Decode must be the exact inverse of encode: every value has ONE frame."""

    def test_negative_zero_encodes_like_positive_zero(self):
        assert encode_canonical(-0.0) == encode_canonical(0.0)
        assert encode_canonical({"k": -0.0}) == encode_canonical({"k": 0.0})

    def test_nan_is_rejected(self):
        with pytest.raises(MalformedMessageError):
            encode_canonical(float("nan"))
        with pytest.raises(MalformedMessageError):
            encode_canonical({float("nan"): "v"})

    def test_decoder_rejects_negative_zero_and_nan_frames(self):
        with pytest.raises(MalformedMessageError):
            decode_canonical(b"D" + struct.pack(">d", -0.0))
        with pytest.raises(MalformedMessageError):
            decode_canonical(b"D" + struct.pack(">d", float("nan")))

    def test_decoder_rejects_out_of_order_dict_entries(self):
        frame = encode_canonical({"a": 1, "b": 2})
        # Splice the two entries into reverse order: same logical value,
        # different bytes -- decode must refuse rather than collapse them.
        header = frame[:5]
        entry_a = encode_canonical("a") + encode_canonical(1)
        entry_b = encode_canonical("b") + encode_canonical(2)
        assert frame == header + entry_a + entry_b
        with pytest.raises(MalformedMessageError):
            decode_canonical(header + entry_b + entry_a)

    def test_decoder_rejects_duplicate_dict_keys(self):
        frame = encode_canonical({"a": 1})
        header = b"M" + frame[1:5].replace(b"\x01", b"\x02")
        entry = frame[5:]
        with pytest.raises(MalformedMessageError):
            decode_canonical(header + entry + entry)

    def test_decoder_rejects_out_of_order_frozenset_elements(self):
        frame = encode_canonical(frozenset({1, 2}))
        header = frame[:5]
        one, two = encode_canonical(1), encode_canonical(2)
        assert frame == header + one + two
        with pytest.raises(MalformedMessageError):
            decode_canonical(header + two + one)

    def test_decoder_rejects_duplicate_frozenset_elements(self):
        header = b"Z\x00\x00\x00\x02"
        one = encode_canonical(1)
        with pytest.raises(MalformedMessageError):
            decode_canonical(header + one + one)

    def test_mixed_key_dict_order_is_validated_with_the_encoders_order(self):
        value = {1: "x", "1": "y", b"1": "z"}
        assert decode_canonical(encode_canonical(value)) == value

    def test_decoder_rejects_reordered_object_fields(self):
        good = _object_frame([(b"shard", 1), (b"index", 2)])
        assert good == encode_canonical(ReplicaId(shard=1, index=2))
        assert decode_canonical(good) == ReplicaId(shard=1, index=2)
        with pytest.raises(MalformedMessageError):
            decode_canonical(_object_frame([(b"index", 2), (b"shard", 1)]))

    def test_decoder_rejects_duplicate_and_missing_object_fields(self):
        with pytest.raises(MalformedMessageError):
            decode_canonical(_object_frame([(b"shard", 1), (b"shard", 1)]))
        with pytest.raises(MalformedMessageError):
            decode_canonical(_object_frame([(b"shard", 1)]))
        with pytest.raises(MalformedMessageError):
            decode_canonical(_object_frame([(b"shard", 1), (b"index", 2), (b"extra", 3)]))

    def test_decoder_rejects_enum_frame_naming_a_non_enum(self):
        name = b"ReplicaId"
        frame = b"E" + struct.pack(">I", len(name)) + name + encode_canonical(1)
        with pytest.raises(MalformedMessageError):
            decode_canonical(frame)


class TestObjectFrameLength:
    """The u32 after the class name is the body length, checked exactly."""

    def test_frame_size_is_unchanged_by_the_length_field(self):
        rid = ReplicaId(shard=1, index=2)
        frame = encode_canonical(rid)
        # tag + name + u32 + two (u32 + name + int) fields: the length field
        # replaced the old u32 field count byte for byte.
        assert len(frame) == 1 + 4 + 9 + 4 + (4 + 5 + 6) + (4 + 5 + 6)
        assert struct.unpack_from(">I", frame, 14)[0] == len(frame) - 18

    def test_body_length_overrunning_the_buffer_is_rejected(self):
        frame = encode_canonical(ReplicaId(shard=1, index=2))
        with pytest.raises(MalformedMessageError, match="remain"):
            decode_canonical(_with_body_length(frame, 1))
        with pytest.raises(MalformedMessageError):
            decode_canonical(frame[:-1])

    def test_body_length_overrunning_the_enclosing_frame_is_rejected(self):
        """A nested object that is well-formed on its own but runs past the
        end its parent claims fails the parent."""
        signature = Signature(signer="r0@S0", value=b"\x02" * 32)
        commit = Commit(
            sender=ReplicaId(0, 0), view=0, sequence=1, batch_digest=b"\x01" * 32,
            signature=signature,
        )
        frame = encode_canonical(commit)
        assert frame.endswith(encode_canonical(signature))
        for delta in (-1, -len(encode_canonical(signature)) // 2):
            with pytest.raises(MalformedMessageError):
                decode_canonical(_with_body_length(frame, delta))

    def test_body_length_shorter_than_the_fields_is_rejected(self):
        fields = [(b"shard", 1), (b"index", 2)]
        size = len(_object_frame(fields)) - 18
        for short in (0, 4, size - 7, size - 1):
            frame = _object_frame(fields, body_length=short)
            with pytest.raises(MalformedMessageError):
                decode_canonical(frame)

    def test_body_length_longer_than_the_fields_is_rejected(self):
        fields = [(b"shard", 1), (b"index", 2)]
        size = len(_object_frame(fields)) - 18
        for padding in (1, 9):
            frame = _object_frame(fields, body_length=size + padding) + b"I" * padding
            with pytest.raises(MalformedMessageError, match="fields span"):
                decode_canonical(frame)

    def test_decoded_values_carry_the_slice_they_came_from(self):
        requests = _requests("slice", 2)
        frame = encode_canonical(_proof(requests))
        decoded = decode_canonical(frame)
        assert decoded.__dict__["_wire_memo"] == frame
        for original, request in zip(requests, decoded.requests):
            assert request.__dict__["_wire_memo"] == encode_canonical(original)
            operation = request.transaction.operations[0]
            assert operation.__dict__["_wire_memo"] == encode_canonical(
                original.transaction.operations[0]
            )


class TestNestedEncodeMemo:
    def test_frozen_values_are_encoded_once(self):
        rid = ReplicaId(shard=3, index=1)
        assert encode_canonical(rid) is encode_canonical(rid)

    def test_nested_memos_are_spliced_verbatim(self):
        """An outer encode copies a nested value's recorded bytes instead of
        walking it again (the memo below is planted to make that visible)."""
        request, stand_in = _requests("splice", 2)
        object.__setattr__(request, "_wire_memo", encode_canonical(stand_in))
        assert encode_canonical(stand_in) in encode_canonical(_proof((request,)))

    def test_non_frozen_dataclasses_are_not_memoised(self):
        from repro.common.messages import MessageStats

        stats = MessageStats()
        first = encode_canonical(stats)
        stats.sent_count["Prepare"] = 1
        assert encode_canonical(stats) != first
        assert "_wire_memo" not in vars(stats)


class TestInternTable:
    """Nested immutable values are shared per process, within fixed bounds."""

    @pytest.fixture(autouse=True)
    def _empty_table(self):
        codec.INTERN.clear()
        yield
        codec.INTERN.clear()

    def test_interned_names_are_registered_frozen_dataclasses(self):
        registry = registered_wire_types()
        for name in codec.INTERNED_WIRE_TYPES:
            cls = registry[name]
            assert codec._dataclass_plan(cls).interned, name

    def test_nested_values_are_shared_between_decodes(self):
        frame = encode_canonical(_proof(_requests("shared", 2)))
        before = codec.STATS.snapshot()
        first = decode_canonical(frame)
        second = decode_canonical(frame)
        assert first is not second  # the top-level value is always fresh
        assert first.requests[0] is second.requests[0]
        delta = codec.STATS.delta_since(before)["intern"]
        assert delta == {"hits": 2, "misses": 4, "evictions": 0}  # request + txn, x2

    def test_a_hit_keeps_memos_warm(self):
        frame = encode_canonical(_proof(_requests("warm", 1)))
        digest = decode_canonical(frame).requests[0].transaction.digest()
        before = codec.STATS.snapshot()
        again = decode_canonical(frame).requests[0].transaction.digest()
        assert again is digest
        assert codec.STATS.delta_since(before)["digest"] == {"hits": 1, "misses": 0}

    def test_top_level_values_are_never_interned(self):
        request = _requests("top", 1)[0]
        frame = encode_canonical(request)
        assert decode_canonical(frame) is not decode_canonical(frame)
        assert codec.INTERN.get(frame) is None
        assert codec.INTERN.get(encode_canonical(request.transaction)) is not None

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda frame: frame + b"N",  # trailing bytes after a complete value
            lambda frame: frame[:-1],  # last nested field cut short
            lambda frame: _with_body_length(frame, 1) + b"N",  # body longer than fields
        ],
    )
    def test_a_malformed_frame_leaves_the_table_unchanged(self, corrupt):
        requests = _requests("malformed", 3)
        frame = encode_canonical(_proof(requests))
        size, nbytes = len(codec.INTERN), codec.INTERN.nbytes
        with pytest.raises(MalformedMessageError):
            decode_canonical(corrupt(frame))
        assert (len(codec.INTERN), codec.INTERN.nbytes) == (size, nbytes)
        assert all(codec.INTERN.get(encode_canonical(r)) is None for r in requests)
        decode_canonical(frame)  # control: the valid frame does intern them
        assert all(codec.INTERN.get(encode_canonical(r)) is not None for r in requests)

    def test_a_flood_of_distinct_values_stays_within_the_entry_bound(self):
        before = codec.STATS.snapshot()
        for batch in range(5):
            decode_canonical(encode_canonical(_proof(_requests(f"flood-{batch}", 600))))
            assert len(codec.INTERN) <= codec.INTERN_MAX_ENTRIES
            assert codec.INTERN.nbytes <= codec.INTERN_MAX_BYTES
        assert len(codec.INTERN) == codec.INTERN_MAX_ENTRIES
        evicted = codec.STATS.delta_since(before)["intern"]["evictions"]
        assert evicted == 5 * 600 * 2 - codec.INTERN_MAX_ENTRIES

    def test_a_flood_of_large_values_stays_within_the_byte_bound(self):
        big = "x" * (256 * 1024)
        for batch in range(6):
            decode_canonical(encode_canonical(_proof(_requests(f"big-{batch}", 4, big))))
            assert codec.INTERN.nbytes <= codec.INTERN_MAX_BYTES
        assert codec.INTERN.nbytes > codec.INTERN_MAX_BYTES // 2
        # The newest entries survive, the oldest went first.
        newest = _requests("big-5", 4, big)[-1]
        assert codec.INTERN.get(encode_canonical(newest)) is not None
        oldest = _requests("big-0", 4, big)[0]
        assert codec.INTERN.get(encode_canonical(oldest)) is None

    def test_a_value_larger_than_the_byte_bound_is_not_stored(self):
        table = codec.InternTable(max_entries=8, max_bytes=100)
        table.add_all({b"k" * 101: object(), b"small": object()})
        assert len(table) == 1 and table.nbytes == 5


class TestDigestInjectivityRegression:
    """Adversarial field values that collided under JSON canonicalization."""

    def test_int_vs_str_write_set_keys_digest_differently(self):
        base = dict(sender=ReplicaId(1, 0), batch_digest=b"\x03" * 32, txn_ids=("t1",), origin_shard=1)
        int_keys = Execute(write_sets={0: {"k": "v"}}, **base)
        str_keys = Execute(write_sets={"0": {"k": "v"}}, **base)
        assert int_keys.digest() != str_keys.digest()
        # The legacy JSON path collides -- which is exactly why it is
        # quarantined to benchmarks.
        with legacy_json_encoding():
            assert int_keys.digest() == str_keys.digest()

    def test_bytes_vs_stringified_bytes_digest_differently(self):
        raw = Checkpoint(sender=ReplicaId(0, 0), sequence=4, state_digest=b"\xab" * 32)
        impostor = Checkpoint(sender=ReplicaId(0, 0), sequence=4, state_digest=(b"\xab" * 32).hex())
        assert raw.digest() != impostor.digest()
        with legacy_json_encoding():
            assert raw.digest() == impostor.digest()

    def test_transaction_digest_distinguishes_value_types(self):
        a = Transaction("t", "c", (Operation(shard=0, key="k", op_type=OpType.WRITE, value="7"),))
        b = Transaction("t", "c", (Operation(shard=0, key="k", op_type=OpType.WRITE, value=7),))
        assert a.digest() != b.digest()


class TestMemoisation:
    def test_payload_bytes_encoded_once_per_object(self):
        txn = _txn()
        first = txn.payload_bytes()
        assert txn.payload_bytes() is first  # same object, not merely equal

    def test_digest_hashed_once_per_object(self):
        message = Checkpoint(sender=ReplicaId(0, 0), sequence=4, state_digest=b"\x01" * 32)
        assert message.digest() is message.digest()

    def test_stats_count_hits_and_misses(self):
        before = codec.STATS.snapshot()
        txn = _txn("memo-stats")
        txn.digest()
        txn.digest()
        delta = codec.STATS.delta_since(before)
        assert delta["digest"]["misses"] == 1
        assert delta["digest"]["hits"] == 1

    def test_batch_digest_reuses_transaction_digests(self):
        requests = tuple(
            ClientRequest(sender="client-0", transaction=_txn(f"b-{i}")) for i in range(3)
        )
        first = batch_digest(requests)
        before = codec.STATS.snapshot()
        assert batch_digest(requests) == first
        delta = codec.STATS.delta_since(before)
        assert delta["digest"]["misses"] == 0  # every leaf came from the memo

    def test_prime_payload_seeds_the_memo(self):
        source = _txn("prime-src")
        payload = source.payload_bytes()
        clone = Transaction(source.txn_id, source.client_id, source.operations)
        codec.prime_payload(clone, payload)
        assert clone.payload_bytes() is payload

    def test_legacy_mode_bypasses_memos_but_is_self_consistent(self):
        txn = _txn("legacy")
        with legacy_json_encoding():
            one = txn.payload_bytes()
            two = txn.payload_bytes()
            assert one == two
            assert one is not two  # recomputed per call, like the pre-codec path
        assert txn.payload_bytes() != one  # binary codec differs from JSON
