"""Wire envelopes: what actually travels inside a frame.

Two kinds of payload share the frame protocol:

* **Deliver envelopes** -- a 3-tuple ``(dst, tags, message)`` in canonical
  encoding.  ``dst`` is the destination address (a
  :class:`~repro.common.types.ReplicaId` or a client-id string), ``tags`` is
  the sender's *full* MAC vector (labels -> tag bytes; RingBFT's local relay
  means every receiver may need every tag, not just its own), and ``message``
  is the registered protocol dataclass itself.  Decoding rebuilds the message
  as a fresh object and re-attaches the tags, so the receiving replica
  verifies exactly as it would in-process -- per-receiver deserialised copies
  carry the vector with them, which is what the in-process design promised a
  socket transport would need.  The values nested inside the message
  (requests, transactions, certificates, signatures, replica ids) may be
  objects the codec shares with earlier decodes, as the simulator shares
  them between receivers.

* **Control messages** -- :class:`ControlRequest`/:class:`ControlReply`,
  the tiny coordinator-to-replica plane (readiness pings, metrics scrapes,
  shutdown) used by the multi-process launcher.  They are ordinary registered
  wire types encoded directly as the frame body.

The multicast fast path mirrors the in-process transports: the expensive
shared suffix (tags + message, i.e. effectively the whole body) is encoded
once per fan-out and only the per-destination address is encoded per copy --
:func:`repro.common.codec.tuple_frame` reassembles bytes identical to a
direct :func:`~repro.common.codec.encode_canonical` of the tuple.  The message
bytes themselves are memoised by the codec on the frozen message, so a
retransmission or a relay of a received message re-sends cached bytes.  The
MAC tag vector is never memoised: tags accrue per audience and are encoded per
envelope.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Hashable

from repro.common import codec
from repro.common.codec import register_wire_type
from repro.common.messages import Message
from repro.common.types import ReplicaId
from repro.errors import MalformedMessageError
from repro.net.framing import FrameDecoder, encode_frame

#: How long the control client waits for a TCP connect + reply by default.
CONTROL_TIMEOUT_S = 10.0


@register_wire_type
@dataclass(frozen=True)
class ControlRequest:
    """Coordinator -> replica-process control message.

    ``op`` is one of the launcher's verbs (``ping`` / ``stats`` /
    ``shutdown``); ``data`` carries op-specific parameters.  Control traffic
    rides the same frame protocol as consensus traffic but never enters the
    protocol dispatch path -- the transport hands it to the process's control
    handler and writes the reply back on the same connection.
    """

    op: str
    data: dict = field(default_factory=dict)


@register_wire_type
@dataclass(frozen=True)
class ControlReply:
    """Replica-process -> coordinator answer to a :class:`ControlRequest`."""

    op: str
    ok: bool = True
    data: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# deliver envelopes
# ---------------------------------------------------------------------------


def encode_envelope(dst: Hashable, message: Message) -> bytes:
    """Canonical body of one deliver envelope (unframed)."""
    return encode_envelope_multi((dst,), message)[0]


def encode_envelope_multi(dsts, message: Message) -> list[bytes]:
    """Bodies for a fan-out of ``message``: shared suffix encoded once.

    Returns one body per destination, each byte-identical to
    ``encode_envelope(dst, message)``; only the destination address is
    encoded per copy.
    """
    encoded_tags = codec.encode_canonical(message.auth_tags())
    encoded_message = codec.encode_canonical(message)
    return [
        codec.tuple_frame((codec.encode_canonical(dst), encoded_tags, encoded_message))
        for dst in dsts
    ]


def decode_wire_payload(body: bytes) -> Any:
    """Decode one frame body into a control message or a deliver triple.

    Returns a :class:`ControlRequest`/:class:`ControlReply` as-is, or a
    ``(dst, message)`` pair for deliver envelopes -- with the MAC vector
    already re-attached to the rebuilt message object.  Anything else is a
    malformed frame.
    """
    value = codec.decode_canonical(body)
    if isinstance(value, (ControlRequest, ControlReply)):
        return value
    if not (isinstance(value, tuple) and len(value) == 3):
        raise MalformedMessageError(
            f"frame body is neither a control message nor a deliver envelope: "
            f"{type(value).__name__}"
        )
    dst, tags, message = value
    if not isinstance(dst, (str, ReplicaId)):
        # Every address in this stack is a replica id or a client-id string;
        # anything else (say, an unhashable dict) must fail as garbage here,
        # not as a TypeError deep in the transport's routing table.
        raise MalformedMessageError(
            f"deliver envelope carries an invalid destination: {type(dst).__name__}"
        )
    if not isinstance(message, Message):
        raise MalformedMessageError(
            f"deliver envelope carries a non-message payload: {type(message).__name__}"
        )
    if not isinstance(tags, dict):
        raise MalformedMessageError("deliver envelope tag vector is not a mapping")
    for label, tag in tags.items():
        if not isinstance(label, str) or not isinstance(tag, bytes):
            raise MalformedMessageError("deliver envelope tag vector is malformed")
        message.attach_auth(label, tag)
    return dst, message


# ---------------------------------------------------------------------------
# control-plane client
# ---------------------------------------------------------------------------


async def control_roundtrip(
    host: str,
    port: int,
    request: ControlRequest,
    *,
    timeout: float = CONTROL_TIMEOUT_S,
) -> ControlReply:
    """Open a connection, send one control request, await its reply.

    One short-lived connection per call keeps the control plane trivially
    robust (no multiplexing, no reply routing); the launcher only issues a
    handful of these per deployment.
    """

    async def _exchange() -> ControlReply:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(encode_frame(encode_envelope_control(request)))
            await writer.drain()
            decoder = FrameDecoder()
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    raise MalformedMessageError(
                        f"control connection to {host}:{port} closed before a reply"
                    )
                bodies = decoder.feed(chunk)
                if bodies:
                    reply = decode_wire_payload(bodies[0])
                    if not isinstance(reply, ControlReply):
                        raise MalformedMessageError(
                            f"expected a ControlReply, got {type(reply).__name__}"
                        )
                    return reply
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    return await asyncio.wait_for(_exchange(), timeout)


def encode_envelope_control(message: ControlRequest | ControlReply) -> bytes:
    """Canonical body of one control message (unframed)."""
    return codec.encode_canonical(message)
