"""Messages of AHL's cross-shard path (reference committee + 2PC).

AHL (Section 2, *Designated Committee*) orders every cross-shard transaction
through a reference committee, then runs two-phase commit between the
committee and the involved shards; all of the 2PC phases use all-to-all
communication between the replicas of each shard and the committee replicas.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.codec import register_wire_type
from repro.common.messages import ClientRequest, Message


@register_wire_type
@dataclass(frozen=True)
class Prepare2PC(Message):
    """Committee -> involved shards: start local consensus and vote on the batch.

    ``shard_sequences`` maps each involved shard to this batch's dense index
    among the cross-shard batches involving that shard, in the committee's
    commit order.  Involved-shard primaries propose their local vote
    consensus in this order, which keeps lock-acquisition order consistent
    across shards -- without it, two shards receiving two prepares in
    opposite network orders lock in opposite orders and 2PC deadlocks.
    """

    _unbound = ("requests",)

    requests: tuple[ClientRequest, ...]
    batch_digest: bytes
    global_sequence: int
    shard_sequences: dict[int, int] = field(default_factory=dict)

    def wire_size(self) -> int:
        return 5408  # carries the full batch, like a PrePrepare


@register_wire_type
@dataclass(frozen=True)
class Vote2PC(Message):
    """Involved shard -> committee: this shard's commit/abort vote for the batch."""

    batch_digest: bytes
    shard: int
    commit: bool

    def wire_size(self) -> int:
        return 269


@register_wire_type
@dataclass(frozen=True)
class CommitteeVote(Message):
    """Committee-internal agreement vote on the final 2PC decision."""

    batch_digest: bytes
    commit: bool

    def wire_size(self) -> int:
        return 216


@register_wire_type
@dataclass(frozen=True)
class CommitteeDecision(Message):
    """Committee-internal broadcast installing the agreed decision."""

    batch_digest: bytes
    commit: bool

    def wire_size(self) -> int:
        return 269


@register_wire_type
@dataclass(frozen=True)
class Decide2PC(Message):
    """Committee -> involved shards: the global commit/abort decision."""

    batch_digest: bytes
    commit: bool

    def wire_size(self) -> int:
        return 269
