"""Length-prefixed frame protocol over the canonical binary codec.

A TCP stream is just bytes; frames restore message boundaries.  Every frame
is::

    +-------+---------+------------+------------------------+
    | magic | version | length u32 | body (``length`` bytes) |
    | 2 B   | 1 B     | 4 B BE     | canonical encoding      |
    +-------+---------+------------+------------------------+

The body is one :func:`repro.common.codec.encode_canonical` value (see
:mod:`repro.net.wire` for the envelope shapes).  The header carries:

* **magic** (``RB``) -- rejects streams that are not speaking this protocol
  at all (port scanners, misrouted HTTP) on the first two bytes;
* **version** -- a peer from an incompatible build fails fast instead of
  producing confusing codec errors deep in a body;
* **length** -- bounded by ``max_frame`` so a hostile 4 GiB length prefix
  cannot balloon the receive buffer; the guard fires before any body bytes
  are buffered.

:class:`FrameDecoder` is incremental: feed it whatever ``read()`` returned --
half a header, ten frames and a partial eleventh -- and it yields exactly the
completed frame bodies, keeping the tail buffered.  Every malformed input
raises :class:`~repro.errors.MalformedMessageError`; the transport responds by
dropping the connection, never by crashing the peer.
"""

from __future__ import annotations

import struct

from repro.errors import MalformedMessageError

#: First bytes of every frame; anything else on the stream is garbage.
PROTOCOL_MAGIC = b"RB"
#: Bumped whenever the envelope shapes or the codec change incompatibly
#: (2: object frames carry their body length instead of a field count).
PROTOCOL_VERSION = 2
#: Default ceiling on one frame's body.  Generous -- a full state-transfer
#: snapshot fits -- while still rejecting absurd length prefixes outright.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_HEADER = struct.Struct(">2sBI")
FRAME_HEADER_SIZE = _HEADER.size


def encode_frame(body: bytes, *, max_frame: int = MAX_FRAME_BYTES) -> bytes:
    """Wrap one canonical-encoding body into a wire frame."""
    if not body:
        raise MalformedMessageError("cannot frame an empty body")
    if len(body) > max_frame:
        raise MalformedMessageError(
            f"frame body of {len(body)} bytes exceeds the {max_frame}-byte limit"
        )
    return _HEADER.pack(PROTOCOL_MAGIC, PROTOCOL_VERSION, len(body)) + body


class FrameDecoder:
    """Incremental frame reassembly for one TCP stream.

    ``feed`` accepts arbitrary chunks (partial reads, coalesced writes) and
    returns the bodies of every frame completed so far.  The decoder validates
    the header as soon as its seven bytes are available, so oversized or
    alien traffic is rejected without buffering a body.  After any
    :class:`~repro.errors.MalformedMessageError` the decoder is poisoned --
    stream synchronisation is lost for good, the only safe reaction is to
    drop the connection.
    """

    def __init__(self, *, max_frame: int = MAX_FRAME_BYTES) -> None:
        self.max_frame = max_frame
        self._buffer = bytearray()
        self._poisoned = False
        #: Running totals, surfaced through the transport's stats.
        self.frames_decoded = 0
        self.bytes_consumed = 0

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered awaiting the rest of a frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[bytes]:
        """Buffer ``data`` and return every frame body it completed.

        Frames are scanned by offset and the consumed prefix is dropped once
        per call, so a coalesced read of many frames costs one compaction,
        not one buffer shift per frame.
        """
        if self._poisoned:
            raise MalformedMessageError("frame stream already failed; reconnect")
        buffer = self._buffer
        buffer.extend(data)
        bodies: list[bytes] = []
        offset = 0
        with memoryview(buffer) as view:
            while len(buffer) - offset >= FRAME_HEADER_SIZE:
                magic, version, length = _HEADER.unpack_from(buffer, offset)
                if magic != PROTOCOL_MAGIC:
                    self._poisoned = True
                    raise MalformedMessageError(
                        f"bad frame magic {bytes(magic)!r} (expected {PROTOCOL_MAGIC!r})"
                    )
                if version != PROTOCOL_VERSION:
                    self._poisoned = True
                    raise MalformedMessageError(
                        f"unsupported frame protocol version {version} "
                        f"(this build speaks {PROTOCOL_VERSION})"
                    )
                if length == 0:
                    self._poisoned = True
                    raise MalformedMessageError("zero-length frame body")
                if length > self.max_frame:
                    self._poisoned = True
                    raise MalformedMessageError(
                        f"frame length {length} exceeds the {self.max_frame}-byte limit"
                    )
                end = offset + FRAME_HEADER_SIZE + length
                if len(buffer) < end:
                    break
                bodies.append(view[offset + FRAME_HEADER_SIZE : end].tobytes())
                self.frames_decoded += 1
                self.bytes_consumed += end - offset
                offset = end
        del buffer[:offset]
        return bodies
