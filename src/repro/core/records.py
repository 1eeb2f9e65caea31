"""Per-batch bookkeeping for cross-shard transactions travelling the ring."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.common import codec
from repro.common.messages import ClientRequest

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

    #: Local consensus progress.
    sequence: int | None = None
    commit_view: int = 0
    consensus_started: bool = False

    #: Rotation progress on this replica.
    locked: bool = False
    executed: bool = False
    replied: bool = False
    forwarded: bool = False
    execute_sent: bool = False
    rotation_complete: bool = False

    #: Forward/Execute vote tracking: origin shard -> distinct original senders.
    forward_senders: dict[int, set[str]] = field(default_factory=dict)
    execute_senders: dict[int, set[str]] = field(default_factory=dict)
    remote_view_senders: dict[int, set[str]] = field(default_factory=dict)
    #: The same votes split by the Sigma they carried: (origin shard, Sigma
    #: key) -> distinct senders.  A received Sigma is adopted only once a weak
    #: quorum of its origin shard carries it, so no single Byzantine sender
    #: decides what a complex transaction reads.
    forward_sigma_votes: dict[tuple[int, bytes], set[str]] = field(default_factory=dict)
    execute_sigma_votes: dict[tuple[int, bytes], set[str]] = field(default_factory=dict)

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

    def record_forward(
        self, origin_shard: int, sender: str, read_sets: dict[int, dict[str, str]]
    ) -> int:
        """Count a Forward message; returns how many distinct senders of
        ``origin_shard`` carried these same ``read_sets``."""
        self.forward_senders.setdefault(origin_shard, set()).add(sender)
        return _vote(self.forward_sigma_votes, origin_shard, sender, read_sets)

    def record_execute(
        self, origin_shard: int, sender: str, write_sets: dict[int, dict[str, str]]
    ) -> int:
        """Count an Execute message; returns how many distinct senders of
        ``origin_shard`` carried these same ``write_sets``."""
        self.execute_senders.setdefault(origin_shard, set()).add(sender)
        return _vote(self.execute_sigma_votes, origin_shard, sender, write_sets)

    def forward_agreement(self, origin_shard: int) -> int:
        """Most distinct senders of ``origin_shard`` whose Forwards agree on Sigma."""
        return max(
            (len(s) for (origin, _), s in self.forward_sigma_votes.items() if origin == origin_shard),
            default=0,
        )

    def record_remote_view(self, origin_shard: int, sender: str) -> int:
        senders = self.remote_view_senders.setdefault(origin_shard, set())
        senders.add(sender)
        return len(senders)

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


def _vote(
    table: dict[tuple[int, bytes], set[str]],
    origin_shard: int,
    sender: str,
    sigma: dict[int, dict[str, str]],
) -> int:
    """Add ``sender`` to the voters for ``sigma`` from ``origin_shard``; return their count.

    Sigma is keyed by its canonical bytes; the empty Sigma of a batch with no
    complex transaction skips the encoder.
    """
    key = (origin_shard, codec.encode_canonical(sigma) if sigma else b"")
    senders = table.setdefault(key, set())
    senders.add(sender)
    return len(senders)
