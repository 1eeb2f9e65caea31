"""Real TCP networking: framed wire protocol, socket transport, launcher.

This package turns the canonical binary codec into a genuine networked
execution path:

* :mod:`repro.net.framing` -- the length-prefixed frame protocol (magic,
  version, max-frame guard, incremental decode tolerant of partial reads);
* :mod:`repro.net.wire` -- message envelopes and the control-plane
  request/reply pair carried inside frames;
* :mod:`repro.net.transport` -- the asyncio TCP :class:`SocketTransport`,
  the wire back end under the link front end it shares with the simulator's
  network (:class:`~repro.netem.fabric.LinkFabric`), with per-peer
  reconnect/backoff and the multicast encode-once fast path;
* :mod:`repro.net.launcher` -- the multi-process deployment harness behind
  ``ringbft serve`` / ``ringbft deploy-local``.
"""

from repro.net.framing import (
    FRAME_HEADER_SIZE,
    MAX_FRAME_BYTES,
    PROTOCOL_MAGIC,
    PROTOCOL_VERSION,
    FrameDecoder,
    encode_frame,
)
from repro.net.transport import SocketStats, SocketTransport
from repro.net.wire import (
    ControlReply,
    ControlRequest,
    decode_wire_payload,
    encode_envelope,
    encode_envelope_multi,
)

__all__ = [
    "ControlReply",
    "ControlRequest",
    "FRAME_HEADER_SIZE",
    "FrameDecoder",
    "MAX_FRAME_BYTES",
    "PROTOCOL_MAGIC",
    "PROTOCOL_VERSION",
    "SocketStats",
    "SocketTransport",
    "decode_wire_payload",
    "encode_envelope",
    "encode_envelope_multi",
    "encode_frame",
]
