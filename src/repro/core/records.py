"""Per-batch bookkeeping for cross-shard transactions travelling the ring."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.common import codec
from repro.common.messages import ClientRequest
from repro.common.quorum import Tally

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.common.messages import Forward


@dataclass
class CrossShardRecord:
    """Everything one replica knows about one cross-shard batch.

    The record is keyed by the batch digest ``Delta``, which is identical at
    every involved shard because it is computed over the client-signed
    requests themselves (not over any shard-local sequence number).
    """

    batch_digest: bytes
    involved_shards: frozenset[int]
    requests: tuple[ClientRequest, ...] = ()
    #: A shard's weak quorum (f + 1): the threshold of the vote tallies below.
    weak_quorum: Callable[[int], int] = field(kw_only=True, repr=False)

    #: Local consensus progress.
    sequence: int | None = None
    commit_view: int = 0
    consensus_started: bool = False

    #: Rotation progress on this replica.
    locked: bool = False
    executed: bool = False
    replied: bool = False
    execute_sent: bool = False

    #: Forward and Execute votes, bucketed by (origin shard, ``sigma_key`` of
    #: the Sigma they carried).  A received Sigma is adopted only once a weak
    #: quorum of its origin shard carries it, so no single Byzantine sender
    #: decides what a complex transaction reads.
    forward_tally: Tally[tuple[int, bytes]] = field(init=False, repr=False)
    execute_tally: Tally[tuple[int, bytes]] = field(init=False, repr=False)
    #: Threshold 1 per origin shard: its edge is the first Forward from it.
    first_forward: Tally[int] = field(init=False, repr=False)
    #: RemoteView votes per requesting shard.
    remote_view_tally: Tally[int] = field(init=False, repr=False)

    #: Keys of this replica's shard that some transaction of the batch names
    #: in ``Operation.depends_on`` -- the only local values Sigma carries.
    dependency_keys: frozenset[str] = frozenset()
    #: Accumulated dependency values (the Sigma of the paper), per shard.
    write_sets: dict[int, dict[str, str]] = field(default_factory=dict)
    #: Bumped whenever ``write_sets`` *content* changes.  The outbound Forward
    #: is rebuilt only when this moved, so retransmissions reuse one frozen
    #: message object -- its payload memo, MAC vector, and wire encoding all
    #: amortise across the whole retransmission burst.
    write_sets_version: int = 0
    cached_forward: "Forward | None" = None
    cached_forward_version: int = -1

    #: True when an Execute quorum arrived before the local lock was acquired.
    execute_ready: bool = False

    #: Retransmission counter for the transmit timer.
    retransmissions: int = 0
    #: True once the transmit timer gave up re-sending Forward messages (the
    #: per-record cap was reached; see ``TimerConfig.max_forward_retransmissions``).
    retransmissions_exhausted: bool = False

    def __post_init__(self) -> None:
        # Closes over the lookup, not ``self``: a record must not sit in a
        # reference cycle, or a retired one (with its batch and cached
        # Forward) lingers until the cyclic collector runs.
        weak_quorum = self.weak_quorum

        def by_origin(bucket: tuple[int, bytes]) -> int:
            return weak_quorum(bucket[0])

        self.forward_tally = Tally(by_origin)
        self.execute_tally = Tally(by_origin)
        self.first_forward = Tally(1)
        self.remote_view_tally = Tally(weak_quorum)

    def merge_write_sets(self, incoming: dict[int, dict[str, str]]) -> None:
        changed = False
        for shard, writes in incoming.items():
            if not writes:
                continue
            target = self.write_sets.setdefault(shard, {})
            for key, value in writes.items():
                if target.get(key) != value:
                    target[key] = value
                    changed = True
        if changed:
            self.write_sets_version += 1

    def add_local_writes(self, shard: int, values: dict[str, str]) -> None:
        """Record this shard's own read/write values (version-tracked)."""
        self.merge_write_sets({shard: values})

    @property
    def txn_ids(self) -> tuple[str, ...]:
        return tuple(req.transaction.txn_id for req in self.requests)

    def settled(self, is_initiator: bool) -> bool:
        """Whether this replica needs nothing further from the record.

        A settled record is eligible for checkpoint-driven retirement: the
        fragment executed locally and -- on the initiator shard -- the client
        has been answered.  An unsettled record pins the garbage-collection
        watermark below its sequence so that an in-flight rotation is never
        dropped mid-ring.
        """
        if not self.executed or self.sequence is None:
            return False
        if is_initiator:
            return self.replied
        return self.execute_sent


def sigma_key(sigma: dict[int, dict[str, str]]) -> bytes:
    """Sigma's canonical bytes, its vote bucket; the empty Sigma of a batch
    with no complex transaction skips the encoder."""
    return codec.encode_canonical(sigma) if sigma else b""
