"""Per-batch bookkeeping for AHL's reference-committee + 2PC path."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.common.messages import ClientRequest
from repro.common.quorum import QuorumSpec, Tally


@dataclass
class AhlRecord:
    """What one replica knows about one cross-shard batch under AHL.

    Votes that concern the whole batch (Prepare2PC, CommitteeVote, Decide2PC)
    are bucketed by its digest.
    """

    batch_digest: bytes
    involved_shards: frozenset[int]
    requests: tuple[ClientRequest, ...] = ()
    #: A shard's weak quorum (f + 1), and the reference committee's quorums:
    #: the thresholds of the vote tallies below.
    weak_quorum: Callable[[int], int] = field(kw_only=True, repr=False)
    committee: QuorumSpec = field(kw_only=True, repr=False)

    #: Committee-side state.
    global_sequence: int | None = None
    #: Dense per-involved-shard prepare indices (committee commit order),
    #: computed once when the prepare is first sent.
    shard_sequences: dict[int, int] | None = None
    prepare_sent: bool = False
    #: Vote2PC per involved shard, CommitteeVote (the decision round).
    vote_tally: Tally[int] = field(init=False, repr=False)
    committee_tally: Tally[bytes] = field(init=False, repr=False)

    #: Involved-shard-side state.
    prepare_tally: Tally[bytes] = field(init=False, repr=False)
    #: Claimed dense prepare index -> committee senders claiming it.  The
    #: index is adopted only once a weak quorum agrees, so a single
    #: Byzantine committee member cannot pin a bogus index.
    index_tally: Tally[int] = field(init=False, repr=False)
    #: This shard's quorum-confirmed dense prepare index for the batch.
    dest_sequence: int | None = None
    local_consensus_started: bool = False
    local_sequence: int | None = None
    locked: bool = False
    voted: bool = False
    decide_tally: Tally[bytes] = field(init=False, repr=False)
    executed: bool = False

    def __post_init__(self) -> None:
        self.vote_tally = Tally(self.weak_quorum)
        self.committee_tally = Tally(self.committee.commit_quorum)
        self.prepare_tally = Tally(self.committee.weak_quorum)
        self.index_tally = Tally(self.committee.weak_quorum)
        self.decide_tally = Tally(self.committee.weak_quorum)

    @property
    def txn_ids(self) -> tuple[str, ...]:
        return tuple(req.transaction.txn_id for req in self.requests)
