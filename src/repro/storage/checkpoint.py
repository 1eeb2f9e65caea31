"""Periodic checkpointing (Section 5, attack A3).

A malicious primary can keep up to ``f`` non-faulty replicas "in the dark":
they never see enough Commit messages to make progress, yet the shard as a
whole keeps committing.  Checkpoint messages broadcast every
``checkpoint_interval`` sequence numbers carry the state digest, so a dark
replica sees that it lags and catches up through state transfer, and they let
all replicas truncate their message logs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from collections.abc import Hashable

from repro.common.crypto import sha256
from repro.common.quorum import Tally


@dataclass(frozen=True)
class CheckpointRecord:
    """A stable checkpoint: sequence number and state digest."""

    sequence: int
    state_digest: bytes


@dataclass
class CheckpointStore:
    """Checkpoint bookkeeping for one replica.

    The store is the anchor of the stack-wide garbage collection: it keeps at
    most ``keep_stable`` stable records, prunes its vote log at every stable
    checkpoint, and reports its retained sizes as gauges so a sustained run
    can assert flat memory.
    """

    interval: int
    #: Distinct voters that make a checkpoint stable.
    quorum: int = field(kw_only=True)
    #: Voters a state digest needs to be stamped into the stable record.
    digest_quorum: int = field(default=1, kw_only=True)
    #: How many stable checkpoint records to retain (the latest k).  Older
    #: records are only useful to peers that lag more than k intervals, and
    #: those catch up through state transfer instead.
    keep_stable: int = 2
    _last_stable: int = 0
    #: Checkpoint votes per sequence, and per (sequence, state digest).
    _voters: Tally[int] = field(init=False, repr=False)
    _digest_voters: Tally[tuple[int, bytes]] = field(init=False, repr=False)
    _stable: dict[int, CheckpointRecord] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._voters = Tally(self.quorum)
        self._digest_voters = Tally(self.digest_quorum)

    @property
    def last_stable_sequence(self) -> int:
        return self._last_stable

    def should_checkpoint(self, sequence: int) -> bool:
        """True when committing ``sequence`` must trigger a Checkpoint broadcast."""
        return sequence > 0 and sequence % self.interval == 0

    def state_digest(self, store_digest_input: bytes, sequence: int) -> bytes:
        return sha256(store_digest_input + sequence.to_bytes(8, "big"))

    def add_vote(
        self, sequence: int, replica: Hashable, state_digest: bytes | None = None
    ) -> bool:
        """Record a Checkpoint vote; True when the checkpoint just became stable.

        Stability requires ``quorum`` distinct voters for the sequence.  Votes
        are bucketed by digest rather than requiring unanimity because this
        reproduction executes cross-shard fragments out of band: two correct
        replicas can checkpoint sequence N with a different set of later
        rotations already applied, so their digests may legitimately differ
        without either being faulty.  The plurality digest is stamped into the
        stable :class:`CheckpointRecord` -- but only when at least
        ``digest_quorum`` replicas back it (replicas pass ``f + 1`` so a lone
        Byzantine digest can never win a tie-break); otherwise the record
        falls back to the sequence-derived placeholder.
        """
        self._digest_voters.add((sequence, state_digest or b""), replica)
        if not self._voters.add(sequence, replica) or sequence <= self._last_stable:
            return False
        # Plurality digest, ties broken deterministically by digest bytes.
        _, digest = max(
            (self._digest_voters.count(key), key[1])
            for key in self._digest_voters.buckets()
            if key[0] == sequence
        )
        if not self._digest_voters.reached((sequence, digest)):
            digest = b""
        self._make_stable(sequence, digest)
        return True

    def _make_stable(self, sequence: int, state_digest: bytes = b"") -> None:
        if not state_digest:
            # No digest threaded through (legacy callers/tests): fall back to a
            # sequence-derived placeholder so the record is still well-formed.
            state_digest = sha256(f"stable-{sequence}".encode())
        self._stable[sequence] = CheckpointRecord(sequence=sequence, state_digest=state_digest)
        self._last_stable = sequence
        # Votes at or below the stable point are garbage-collected.
        for seq in [s for s in self._voters.buckets() if s <= sequence]:
            self._voters.discard(seq)
        for key in [k for k in self._digest_voters.buckets() if k[0] <= sequence]:
            self._digest_voters.discard(key)
        # Bounded stable history: keep only the latest ``keep_stable`` records.
        if self.keep_stable > 0:
            for seq in sorted(self._stable)[: -self.keep_stable]:
                del self._stable[seq]

    def stable_record(self, sequence: int) -> CheckpointRecord | None:
        return self._stable.get(sequence)

    @property
    def stable_record_count(self) -> int:
        """Number of stable checkpoint records retained (at most ``keep_stable``)."""
        return len(self._stable)

    @property
    def pending_vote_count(self) -> int:
        """Outstanding checkpoint votes above the stable point (a memory gauge)."""
        return self._digest_voters.votes
