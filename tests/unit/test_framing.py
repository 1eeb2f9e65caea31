"""Adversarial tests for the frame protocol and the wire envelopes.

A socket transport is fed attacker-controlled bytes; every malformed input --
truncated frames, oversized length headers, version mismatches, mid-stream
garbage -- must surface as :class:`MalformedMessageError` (so the transport
drops the connection) and never as a crash or a silently wrong decode.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import codec
from repro.common.crypto import Signature
from repro.common.messages import ClientRequest, Prepare
from repro.common.types import ReplicaId
from repro.errors import MalformedMessageError
from repro.net.framing import (
    FRAME_HEADER_SIZE,
    PROTOCOL_MAGIC,
    PROTOCOL_VERSION,
    FrameDecoder,
    encode_frame,
)
from repro.net.wire import (
    ControlReply,
    ControlRequest,
    decode_wire_payload,
    encode_envelope,
    encode_envelope_control,
    encode_envelope_multi,
)
from repro.txn.transaction import TransactionBuilder


def _frame(payload: bytes = b"S\x00\x00\x00\x02hi") -> bytes:
    return encode_frame(payload)


def _message() -> Prepare:
    return Prepare(
        sender=ReplicaId(shard=0, index=1), view=0, sequence=3, batch_digest=b"\x07" * 32
    )


class TestFrameRoundTrip:
    def test_single_frame_round_trips(self):
        body = codec.encode_canonical({"k": "v"})
        decoder = FrameDecoder()
        assert decoder.feed(encode_frame(body)) == [body]
        assert decoder.pending_bytes == 0

    def test_multiple_frames_in_one_feed(self):
        bodies = [codec.encode_canonical(i) for i in range(5)]
        stream = b"".join(encode_frame(b) for b in bodies)
        assert FrameDecoder().feed(stream) == bodies

    def test_split_at_every_byte_boundary(self):
        """A frame chopped anywhere -- even inside the header -- reassembles."""
        body = codec.encode_canonical(("x", {"a": 1}, b"\x00\x01"))
        frame = encode_frame(body)
        for cut in range(1, len(frame)):
            decoder = FrameDecoder()
            first = decoder.feed(frame[:cut])
            second = decoder.feed(frame[cut:])
            assert first + second == [body], f"split at byte {cut} lost the frame"

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_arbitrary_chunking_preserves_frames(self, data):
        bodies = [
            codec.encode_canonical(value)
            for value in data.draw(
                st.lists(st.binary(min_size=0, max_size=40), min_size=1, max_size=6)
            )
        ]
        stream = b"".join(encode_frame(b) for b in bodies)
        # Chop the stream at a random ascending set of positions.
        cuts = sorted(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=len(stream)), max_size=10
                )
            )
        )
        decoder = FrameDecoder()
        out = []
        previous = 0
        for cut in cuts + [len(stream)]:
            out.extend(decoder.feed(stream[previous:cut]))
            previous = cut
        assert out == bodies
        assert decoder.pending_bytes == 0

    def test_coalesced_read_of_many_frames_leaves_only_the_tail(self):
        bodies = [codec.encode_canonical(i) for i in range(128)]
        stream = b"".join(encode_frame(b) for b in bodies)
        decoder = FrameDecoder()
        assert decoder.feed(stream + stream[:3]) == bodies
        assert decoder.pending_bytes == 3
        assert decoder.frames_decoded == 128
        assert decoder.bytes_consumed == len(stream)
        assert decoder.feed(stream[3:]) == bodies
        assert decoder.pending_bytes == 0

    def test_truncated_stream_yields_nothing_until_completed(self):
        frame = _frame()
        decoder = FrameDecoder()
        assert decoder.feed(frame[: FRAME_HEADER_SIZE - 2]) == []
        assert decoder.feed(frame[FRAME_HEADER_SIZE - 2 : -1]) == []
        assert decoder.pending_bytes == len(frame) - 1


class TestFrameRejection:
    def test_empty_body_cannot_be_framed(self):
        with pytest.raises(MalformedMessageError):
            encode_frame(b"")

    def test_encode_respects_max_frame(self):
        with pytest.raises(MalformedMessageError):
            encode_frame(b"x" * 11, max_frame=10)

    def test_bad_magic_rejected(self):
        with pytest.raises(MalformedMessageError, match="magic"):
            FrameDecoder().feed(b"HTTP/1.1 200 OK\r\n\r\n")

    def test_version_mismatch_rejected(self):
        frame = struct.pack(">2sBI", PROTOCOL_MAGIC, PROTOCOL_VERSION + 1, 2) + b"hi"
        with pytest.raises(MalformedMessageError, match="version"):
            FrameDecoder().feed(frame)

    def test_previous_version_header_is_rejected_and_poisons_the_stream(self):
        """A v1 peer (object frames carrying a field count) fails at the
        header, never deep inside a body."""
        assert PROTOCOL_VERSION == 2
        body = codec.encode_canonical(_message())
        decoder = FrameDecoder()
        valid = encode_frame(body)
        v1 = struct.pack(">2sBI", PROTOCOL_MAGIC, 1, len(body)) + body
        with pytest.raises(MalformedMessageError, match="version 1"):
            decoder.feed(valid + v1)
        with pytest.raises(MalformedMessageError, match="reconnect"):
            decoder.feed(valid)

    def test_zero_length_frame_rejected(self):
        frame = struct.pack(">2sBI", PROTOCOL_MAGIC, PROTOCOL_VERSION, 0)
        with pytest.raises(MalformedMessageError, match="zero-length"):
            FrameDecoder().feed(frame)

    def test_oversized_length_header_rejected_before_buffering(self):
        """A hostile 4 GiB length prefix fails on the header alone."""
        frame = struct.pack(">2sBI", PROTOCOL_MAGIC, PROTOCOL_VERSION, 0xFFFFFFFF)
        decoder = FrameDecoder()
        with pytest.raises(MalformedMessageError, match="limit"):
            decoder.feed(frame)

    def test_max_frame_is_configurable(self):
        body = b"x" * 100
        frame = encode_frame(body)
        with pytest.raises(MalformedMessageError, match="limit"):
            FrameDecoder(max_frame=50).feed(frame)

    def test_garbage_after_valid_frame_poisons_the_stream(self):
        body = codec.encode_canonical("ok")
        decoder = FrameDecoder()
        with pytest.raises(MalformedMessageError):
            decoder.feed(encode_frame(body) + b"\xde\xad\xbe\xef\xde\xad\xbe")
        # Nothing more can come out of a poisoned decoder.
        with pytest.raises(MalformedMessageError, match="reconnect"):
            decoder.feed(b"")

    def test_garbage_before_poison_still_yields_valid_prefix(self):
        body = codec.encode_canonical("ok")
        decoder = FrameDecoder()
        frames = decoder.feed(encode_frame(body))
        assert frames == [body]
        with pytest.raises(MalformedMessageError):
            decoder.feed(b"garbage!" * 4)


class TestDeliverEnvelope:
    def test_envelope_round_trips_message_and_tags(self):
        message = _message()
        message.attach_auth("peer:r0@S0", b"\x01" * 32)
        message.attach_auth("peer:r2@S0", b"\x02" * 32)
        dst = ReplicaId(shard=0, index=2)
        decoded_dst, decoded = decode_wire_payload(encode_envelope(dst, message))
        assert decoded_dst == dst
        assert decoded == message
        assert decoded is not message  # a genuine per-receiver copy
        assert decoded.auth_tag("peer:r0@S0") == b"\x01" * 32
        assert decoded.auth_tag("peer:r2@S0") == b"\x02" * 32

    def test_client_string_addresses_round_trip(self):
        dst, decoded = decode_wire_payload(encode_envelope("client-7", _message()))
        assert dst == "client-7"
        assert decoded == _message()

    def test_message_encoding_is_memoised_but_tags_stay_live(self):
        """Re-encoding a reused message skips the codec walk, yet tags
        attached *after* a first send still reach later envelopes."""
        message = _message()
        first = encode_envelope("client-0", message)
        assert message.__dict__.get("_wire_memo") is not None
        message.attach_auth("peer:r3@S0", b"\x09" * 32)
        second = encode_envelope("client-0", message)
        assert first != second  # the new tag is part of the later envelope
        _, decoded = decode_wire_payload(second)
        assert decoded.auth_tag("peer:r3@S0") == b"\x09" * 32

    def test_decoded_messages_never_share_tag_vectors(self):
        """Two decodes of one envelope give two message objects with their
        own tags -- even for an interned type (a client's ClientRequest) --
        while the immutable values nested inside are shared."""
        txn = TransactionBuilder("alias-0", "client-0").read_modify_write(0, "k", "v").build()
        request = ClientRequest(
            sender="client-0", transaction=txn, signature=Signature("client-0", b"\x04" * 32)
        )
        request.attach_auth("peer:r0@S0", b"\x01" * 32)
        body = encode_envelope(ReplicaId(shard=0, index=0), request)
        _, first = decode_wire_payload(body)
        _, second = decode_wire_payload(body)
        assert first == second == request
        assert first is not second
        first.attach_auth("peer:r1@S0", b"\x02" * 32)
        assert second.auth_tag("peer:r1@S0") is None
        assert second.auth_tags() == {"peer:r0@S0": b"\x01" * 32}
        assert first.transaction is second.transaction
        assert first.signature is second.signature

    def test_multicast_bodies_match_unicast_encodings(self):
        """The encode-once fast path must be byte-identical per destination."""
        message = _message()
        message.attach_auth("peer:r2@S0", b"\x03" * 32)
        dsts = [ReplicaId(shard=0, index=i) for i in range(4)] + ["client-0"]
        bodies = encode_envelope_multi(dsts, message)
        assert bodies == [encode_envelope(dst, message) for dst in dsts]

    def test_non_envelope_payload_rejected(self):
        with pytest.raises(MalformedMessageError, match="neither"):
            decode_wire_payload(codec.encode_canonical(42))

    def test_wrong_arity_tuple_rejected(self):
        with pytest.raises(MalformedMessageError):
            decode_wire_payload(codec.encode_canonical(("dst", {})))

    def test_non_message_payload_rejected(self):
        with pytest.raises(MalformedMessageError, match="non-message"):
            decode_wire_payload(codec.encode_canonical(("dst", {}, "not a message")))

    def test_invalid_destination_types_rejected(self):
        """A crafted (even unhashable) destination is garbage, not a TypeError."""
        for dst in ({"a": 1}, 7, ["x"], None):
            body = codec.encode_canonical((dst, {}, _message()))
            with pytest.raises(MalformedMessageError, match="destination"):
                decode_wire_payload(body)

    def test_malformed_tag_vector_rejected(self):
        body = codec.encode_canonical(("dst", {"peer:x": "not-bytes"}, _message()))
        with pytest.raises(MalformedMessageError, match="tag vector"):
            decode_wire_payload(body)

    def test_truncated_envelope_raises_malformed(self):
        body = encode_envelope("client-0", _message())
        for cut in range(1, len(body), 7):
            with pytest.raises(MalformedMessageError):
                decode_wire_payload(body[:cut])


class TestTransportFrameLimit:
    def test_send_respects_the_transport_max_frame(self):
        """A transport's frame limit binds its *own* sends too, so a
        misconfigured fleet fails loudly instead of poisoning receivers."""
        import asyncio

        from repro.net.transport import SocketTransport
        from repro.rt.transport import RealTimeScheduler

        loop = asyncio.new_event_loop()
        try:
            scheduler = RealTimeScheduler(loop, seed=1)
            transport = SocketTransport(
                scheduler, loop, address_map={"peer": ("127.0.0.1", 1)}, max_frame=64
            )
            with pytest.raises(MalformedMessageError, match="limit"):
                transport.send("me", "peer", _message())
        finally:
            loop.close()


class TestTransportFaultInjection:
    def test_conditions_suppress_sends_like_the_sim_network(self):
        """Injected faults are honoured (not silently ignored) on sockets."""
        import asyncio

        from repro.net.transport import SocketTransport
        from repro.rt.transport import RealTimeScheduler

        loop = asyncio.new_event_loop()
        try:
            scheduler = RealTimeScheduler(loop, seed=1)
            transport = SocketTransport(
                scheduler, loop, address_map={"peer": ("127.0.0.1", 1)}
            )
            transport.conditions.block_link("me", "peer")
            transport.send("me", "peer", _message())
            transport.multicast("me", ["peer"], _message())
            assert transport.stats.faults_injected == 2
            assert transport.stats.bytes_sent == 0
            transport.conditions.unblock_link("me", "peer")
            transport.conditions.drop_probability = 1.0
            transport.send("me", "peer", _message())
            assert transport.stats.faults_injected == 3
        finally:
            loop.close()


class TestTransportDeliveryErrors:
    def test_handler_exception_is_counted_not_fatal(self, capsys):
        """A node handler that raises must not kill the reader silently."""
        import asyncio

        from repro.net.transport import SocketTransport
        from repro.rt.transport import RealTimeScheduler

        class _ExplodingNode:
            address = "boom"
            region = "local"
            crashed = False

            def deliver(self, message):
                raise RuntimeError("handler bug")

        loop = asyncio.new_event_loop()
        try:
            scheduler = RealTimeScheduler(loop, seed=1)
            transport = SocketTransport(scheduler, loop)
            transport.register(_ExplodingNode())
            payload = decode_wire_payload(encode_envelope("boom", _message()))
            loop.run_until_complete(transport._dispatch(payload, None))
            assert transport.stats.delivery_errors == 1
            assert transport.stats.delivered == 1
            assert "handler bug" in capsys.readouterr().err
        finally:
            loop.close()


class TestControlMessages:
    def test_control_request_round_trips(self):
        request = ControlRequest(op="stats", data={"window": 3})
        assert decode_wire_payload(encode_envelope_control(request)) == request

    def test_control_reply_round_trips(self):
        reply = ControlReply(op="stats", ok=False, data={"error": "boom"})
        assert decode_wire_payload(encode_envelope_control(reply)) == reply
