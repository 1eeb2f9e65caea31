"""Messages of Sharper's cross-shard consensus (Amiri et al., 2019).

Sharper routes each cross-shard transaction through the primary of one
involved shard (the *initiator*), which proposes it to every replica of every
involved shard; the prepare and commit phases are then exchanged all-to-all
among the replicas of all involved shards -- the global quadratic
communication the RingBFT paper identifies as Sharper's bottleneck.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.codec import register_wire_type
from repro.common.messages import ClientRequest, Message


@register_wire_type
@dataclass(frozen=True)
class CrossPropose(Message):
    """Initiator primary -> all replicas of all involved shards: global proposal."""

    _unbound = ("requests",)

    requests: tuple[ClientRequest, ...]
    batch_digest: bytes
    global_sequence: int

    def wire_size(self) -> int:
        return 5408


@register_wire_type
@dataclass(frozen=True)
class CrossPrepare(Message):
    """Global prepare vote broadcast to every replica of every involved shard."""

    batch_digest: bytes
    shard: int

    def wire_size(self) -> int:
        return 216


@register_wire_type
@dataclass(frozen=True)
class CrossCommit(Message):
    """Global commit vote broadcast to every replica of every involved shard."""

    batch_digest: bytes
    shard: int

    def wire_size(self) -> int:
        return 269
