"""Consensus message log: one slot per (view, sequence) pair.

A slot gathers the PrePrepare proposal and the Prepare/Commit votes received
for it, and exposes the phase transitions PBFT cares about: *pre-prepared*,
*prepared* (nf Prepare votes), and *committed* (nf Commit votes on a prepared
slot).  Votes are counted per digest by a :class:`~repro.common.quorum.Tally`;
slots also retain the signed Commit messages so that RingBFT can assemble the
commit certificate attached to ``Forward`` messages.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.common.messages import Commit, CommitCertificate, PrePrepare, Prepare
from repro.common.quorum import Tally
from repro.common.types import ReplicaId
from repro.errors import ConsensusError


class SlotState(enum.Enum):
    """Lifecycle of a consensus slot."""

    EMPTY = "empty"
    PRE_PREPARED = "pre-prepared"
    PREPARED = "prepared"
    COMMITTED = "committed"
    EXECUTED = "executed"


@dataclass
class Slot:
    """All consensus evidence a replica holds for one (view, sequence)."""

    view: int
    sequence: int
    #: nf: the Prepare (and Commit) votes a digest needs.
    quorum: int
    pre_prepare: PrePrepare | None = None
    prepares: dict[ReplicaId, Prepare] = field(default_factory=dict)
    #: Keyed by (digest, sender): exactly the votes ``commit_tally`` counts,
    #: so once a digest commits its certificate can always be assembled.
    commits: dict[tuple[bytes, ReplicaId], Commit] = field(default_factory=dict)
    state: SlotState = SlotState.EMPTY
    prepare_tally: Tally[bytes] = field(init=False, repr=False)
    commit_tally: Tally[bytes] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.prepare_tally = Tally(self.quorum)
        self.commit_tally = Tally(self.quorum)

    def record_pre_prepare(self, message: PrePrepare) -> None:
        if self.pre_prepare is not None and self.pre_prepare.batch_digest != message.batch_digest:
            raise ConsensusError(
                f"conflicting PrePrepare for view {self.view} sequence {self.sequence}"
            )
        self.pre_prepare = message
        if self.state is SlotState.EMPTY:
            self.state = SlotState.PRE_PREPARED

    def record_prepare(self, message: Prepare) -> bool:
        """Keep a Prepare; True on the vote that brings its digest to quorum."""
        self.prepares[message.sender] = message
        return self.prepare_tally.add(message.batch_digest, message.sender)

    def record_commit(self, message: Commit) -> bool:
        """Keep a Commit; True on the vote that brings its digest to quorum."""
        self.commits[(message.batch_digest, message.sender)] = message
        return self.commit_tally.add(message.batch_digest, message.sender)


class ConsensusLog:
    """Per-replica log of consensus slots keyed by (view, sequence).

    ``quorum`` is the shard's nf: the votes that prepare or commit a digest.
    """

    def __init__(self, quorum: int) -> None:
        self.quorum = quorum
        self._slots: dict[tuple[int, int], Slot] = {}
        self._accepted_digest: dict[tuple[int, int], bytes] = {}
        self._truncated_below: int = 0

    def slot(self, view: int, sequence: int) -> Slot:
        key = (view, sequence)
        if key not in self._slots:
            self._slots[key] = Slot(view=view, sequence=sequence, quorum=self.quorum)
        return self._slots[key]

    def has_accepted(self, view: int, sequence: int) -> bool:
        """Whether this replica already accepted a proposal at (view, sequence)."""
        return (view, sequence) in self._accepted_digest

    def accepted_digest(self, view: int, sequence: int) -> bytes | None:
        return self._accepted_digest.get((view, sequence))

    def accept(self, view: int, sequence: int, digest: bytes) -> None:
        """Bind this replica to supporting ``digest`` at (view, sequence).

        PBFT safety requires a replica to support at most one proposal per
        (view, sequence); accepting a different digest is an error.
        """
        existing = self._accepted_digest.get((view, sequence))
        if existing is not None and existing != digest:
            raise ConsensusError(
                f"already accepted a different proposal at view {view} sequence {sequence}"
            )
        self._accepted_digest[(view, sequence)] = digest

    # -- phase checks -----------------------------------------------------

    def is_prepared(self, view: int, sequence: int, digest: bytes) -> bool:
        slot = self.slot(view, sequence)
        return (
            slot.pre_prepare is not None
            and slot.pre_prepare.batch_digest == digest
            and slot.prepare_tally.reached(digest)
        )

    def is_committed(self, view: int, sequence: int, digest: bytes) -> bool:
        return (
            self.is_prepared(view, sequence, digest)
            and self.slot(view, sequence).commit_tally.reached(digest)
        )

    def mark(self, view: int, sequence: int, state: SlotState) -> None:
        self.slot(view, sequence).state = state

    def state(self, view: int, sequence: int) -> SlotState:
        return self.slot(view, sequence).state

    # -- certificates ------------------------------------------------------

    def commit_certificate(
        self, shard: int, view: int, sequence: int, digest: bytes, quorum: int
    ) -> CommitCertificate:
        """Assemble the set ``A`` of nf signed Commit messages for a slot."""
        slot = self.slot(view, sequence)
        signatures = tuple(
            msg.signature
            for msg in slot.commits.values()
            if msg.batch_digest == digest and msg.signature is not None
        )
        if len(signatures) < quorum:
            raise ConsensusError(
                f"only {len(signatures)} signed commits available, need {quorum}"
            )
        return CommitCertificate(
            shard=shard,
            view=view,
            sequence=sequence,
            batch_digest=digest,
            signatures=signatures[:quorum],
        )

    def prepared_sequences(self) -> list[tuple[int, int, bytes]]:
        """Every (view, sequence, digest) marked prepared and not executed yet.

        A slot is marked prepared on its prepare quorum: PBFT's nf Prepares,
        or the quorum a subclass runs for the slot itself (Sharper's global
        prepare round).  Used to build ViewChange messages:
        prepared-but-not-committed requests must survive into the new view.
        """
        prepared = [
            (view, sequence, self._accepted_digest[(view, sequence)])
            for (view, sequence), slot in self._slots.items()
            if slot.state in (SlotState.PREPARED, SlotState.COMMITTED)
        ]
        return sorted(prepared, key=lambda item: item[1])

    def pre_prepare_for(self, view: int, sequence: int) -> PrePrepare | None:
        return self.slot(view, sequence).pre_prepare

    def highest_sequence(self) -> int:
        """Highest sequence this log has ever covered.

        Includes the truncation floor: after garbage collection empties the
        log, a new primary must still number fresh proposals *above* the
        truncated history, never reuse executed sequence numbers.
        """
        return max((seq for _, seq in self._slots), default=self._truncated_below)

    # -- garbage collection ------------------------------------------------

    @property
    def slot_count(self) -> int:
        """Number of slots currently retained (a steady-state memory gauge)."""
        return len(self._slots)

    def truncate_below(self, sequence: int) -> set[bytes]:
        """Drop every slot (and accepted-digest binding) at or below ``sequence``.

        This is the log-truncation step of the checkpoint protocol: once a
        checkpoint at ``sequence`` is stable, the consensus evidence for the
        sequences it covers is no longer needed (view changes restart from the
        stable checkpoint, and dark replicas catch up via state transfer).

        Returns the accepted batch digests whose evidence was dropped and that
        no *retained* slot still accepts, so the caller can release the batch
        payloads as well.  A digest that also appears above the watermark
        (e.g. re-proposed after a view change) is deliberately excluded.
        """
        self._truncated_below = max(self._truncated_below, sequence)
        for key in [k for k in self._slots if k[1] <= sequence]:
            del self._slots[key]
        dropped = {d for k, d in self._accepted_digest.items() if k[1] <= sequence}
        self._accepted_digest = {k: d for k, d in self._accepted_digest.items() if k[1] > sequence}
        return dropped - set(self._accepted_digest.values())
