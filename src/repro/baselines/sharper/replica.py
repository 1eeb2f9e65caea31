"""Sharper baseline replica as described in Section 2 of the RingBFT paper.

Single-shard transactions run plain PBFT inside their shard (identical to
RingBFT and AHL).  A cross-shard transaction is coordinated by the primary of
the first involved shard (the *initiator shard*):

1. the initiator primary sends a ``CrossPropose`` to every replica of every
   involved shard;
2. every replica of every involved shard broadcasts a ``CrossPrepare`` to
   every replica of every involved shard (global all-to-all).  Each shard's
   primary first claims the batch's slot in its shard's own PBFT sequence
   space and names it in its ``CrossPrepare``; a backup accepts that slot into
   its PBFT log and echoes it in its own ``CrossPrepare``;
3. once a replica holds a prepare quorum *from each involved shard*, it marks
   its slot prepared and broadcasts a ``CrossCommit`` the same way;
4. once a replica holds a commit quorum from each involved shard, the batch is
   globally committed: each shard commits it at its slot through the same
   :meth:`PbftReplica._commit_slot` tail a local PBFT commit takes (ledger
   append, locks and execution in sequence order), and only the replicas of
   the initiator shard reply to the client.

The two rounds of global quadratic communication are precisely what the paper
measures as Sharper's scalability limit.

A lost global-round message is recovered through the client: its
retransmission of an uncommitted request makes the initiator primary re-send
its proposal, and each replica that receives the re-sent proposal re-sends
its own votes for the batch.  A replica re-sends a record's messages at most
once per client timeout, however many copies of one retransmission reach it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from repro.baselines.sharper.messages import CrossCommit, CrossPrepare, CrossPropose
from repro.common.messages import ClientRequest, batch_digest, requests_digest
from repro.common.quorum import Tally
from repro.common.types import ReplicaId
from repro.consensus.pbft.log import SlotState
from repro.consensus.pbft.replica import PbftReplica


@dataclass
class SharperRecord:
    """Per-batch state of Sharper's global consensus on one replica."""

    batch_digest: bytes
    involved_shards: frozenset[int]
    requests: tuple[ClientRequest, ...] = ()
    #: A shard's commit quorum (nf): the threshold of the vote tallies below.
    commit_quorum: Callable[[int], int] = field(kw_only=True, repr=False)
    #: The slot this shard's primary of each view claimed for the batch.
    claims: dict[int, int] = field(default_factory=dict, repr=False)
    #: The slot this replica accepted into its PBFT log for the batch.
    view: int | None = None
    sequence: int | None = None
    #: CrossPrepare and CrossCommit votes per (involved shard, its slot).
    prepare_tally: Tally[tuple[int, int]] = field(init=False, repr=False)
    commit_tally: Tally[tuple[int, int]] = field(init=False, repr=False)
    prepared: bool = False
    committed: bool = False
    #: This replica's own global-round messages for the batch, in send order
    #: (the initiator primary's starts with its ``CrossPropose``); re-sent
    #: with their tags when the client retransmits, since a replica that
    #: missed them has no other way to get them.
    sent: list[CrossPropose | CrossPrepare | CrossCommit] = field(
        default_factory=list, repr=False
    )
    #: When this replica last re-sent ``sent``.
    resent_at: float = field(default=float("-inf"), repr=False)

    def __post_init__(self) -> None:
        # Closes over the lookup, not ``self``: a record in a reference cycle
        # would outlive its retirement until the cyclic collector runs.
        commit_quorum = self.commit_quorum

        def threshold(bucket: tuple[int, int]) -> int:
            return commit_quorum(bucket[0])

        self.prepare_tally = Tally(threshold)
        self.commit_tally = Tally(threshold)


class SharperReplica(PbftReplica):
    """One replica participating in Sharper."""

    #: Sharper's global rounds are always broadcast by their actual sender
    #: with a MAC vector covering every receiving replica, so the tag is
    #: mandatory -- omitting it must not skip the gate.
    _MAC_REQUIRED_TYPES = PbftReplica._MAC_REQUIRED_TYPES + (
        CrossPropose,
        CrossPrepare,
        CrossCommit,
    )

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._records: dict[bytes, SharperRecord] = {}
        #: Digests of records dropped by GC -> the watermark that dropped
        #: them, so straggling votes do not re-create them.
        self._retired_digests: dict[bytes, int] = {}
        self._commit_quorums = {
            shard: self.directory.quorum(shard).commit_quorum
            for shard in self.directory.shard_ids()
        }

    # ------------------------------------------------------------------
    # client request routing
    # ------------------------------------------------------------------

    def _initiator_shard(self, involved: frozenset[int]) -> int:
        return self.directory.ring.first_in_ring_order(involved)

    def _accepts_client_request(self, request: ClientRequest) -> bool:
        txn = request.transaction
        if not txn.is_cross_shard:
            return self.shard_id in txn.involved_shards
        # Cross-shard requests are handled out of band by the initiator primary.
        return False

    def _handle_client_request(self, request: ClientRequest) -> None:
        txn = request.transaction
        if not txn.is_cross_shard or self.executor.already_executed(txn.txn_id):
            # The base path also answers a retransmission of an executed request.
            super()._handle_client_request(request)
        elif self._initiator_shard(txn.involved_shards) != self.shard_id:
            self._redirect_client_request(request)
        elif self.is_primary and not self.byzantine_silent:
            self._propose_cross_shard(request)
        else:
            self.send(self.primary, request)

    def _redirect_client_request(self, request: ClientRequest) -> None:
        if not self.is_primary:
            return
        txn = request.transaction
        if txn.is_cross_shard:
            target = self._initiator_shard(txn.involved_shards)
        else:
            target = next(iter(txn.involved_shards))
        if target != self.shard_id:
            self.send(self.directory.primary_of(target, view=0), request)

    def _reply_to_clients(self, requests: Iterable[ClientRequest], sequence: int) -> None:
        """Every involved shard executes a cross-shard batch; only the
        initiator shard answers the client."""
        super()._reply_to_clients(
            [
                request
                for request in requests
                if not request.transaction.is_cross_shard
                or self._initiator_shard(request.transaction.involved_shards) == self.shard_id
            ],
            sequence,
        )

    # ------------------------------------------------------------------
    # records
    # ------------------------------------------------------------------

    def _record(
        self,
        digest: bytes,
        requests: tuple[ClientRequest, ...] = (),
        involved: frozenset[int] | None = None,
    ) -> SharperRecord:
        record = self._records.get(digest)
        if record is None:
            record = SharperRecord(
                batch_digest=digest,
                involved_shards=involved or frozenset(),
                requests=tuple(requests),
                commit_quorum=self._commit_quorums.__getitem__,
            )
            self._records[digest] = record
        if requests and not record.requests:
            record.requests = tuple(requests)
        if involved and not record.involved_shards:
            record.involved_shards = involved
        return record

    def sharper_record(self, digest: bytes) -> SharperRecord | None:
        """Accessor used by tests."""
        return self._records.get(digest)

    def _involved_replicas(self, record: SharperRecord) -> list[ReplicaId]:
        replicas: list[ReplicaId] = []
        for shard in sorted(record.involved_shards):
            replicas.extend(self.directory.replicas_of(shard))
        return replicas

    def _broadcast_to_involved(self, record: SharperRecord, message) -> None:
        self._authenticate_cross_shard_broadcast(message, record.involved_shards)
        self.broadcast(self._involved_replicas(record), message, include_self=True)
        record.sent.append(message)

    def _resend(self, record: SharperRecord) -> None:
        """Send this replica's global-round messages for ``record`` again, tags and all.

        One client retransmission reaches the initiator primary several
        times (straight, and forwarded by each backup), and each re-sent
        proposal reaches every involved replica.  Re-sending at most once
        per client timeout, the client's retransmission interval, answers
        each round once.
        """
        if self.now - record.resent_at < self.timers_config.client_timeout:
            return
        record.resent_at = self.now
        replicas = self._involved_replicas(record)
        for message in record.sent:
            self.broadcast(replicas, message)

    # ------------------------------------------------------------------
    # global consensus phases
    # ------------------------------------------------------------------

    def _propose_cross_shard(self, request: ClientRequest) -> None:
        """Initiator primary: propose the batch to every involved replica."""
        requests = (request,)
        digest = batch_digest(requests)
        record = self._records.get(digest)
        if request.transaction.txn_id in self._committed_txn_ids:
            return
        if record is not None and record.requests:
            self._resend(record)
            return
        record = self._record(digest, requests, request.transaction.involved_shards)
        message = CrossPropose(sender=self.replica_id, requests=requests, batch_digest=digest)
        self._broadcast_to_involved(record, message)

    def _handle_cross_propose(self, message: CrossPropose) -> None:
        if requests_digest(message) != message.batch_digest:
            return
        involved = message.requests[0].transaction.involved_shards
        if self.shard_id not in involved or message.batch_digest in self._retired_digests:
            return
        initiator = self._initiator_shard(involved)
        if (
            message.sender != self.directory.primary_of(initiator, view=0)
            and message.sender.shard != initiator
        ):
            return
        record = self._records.get(message.batch_digest)
        if record is not None and record.requests and message.sender != self.replica_id:
            # The initiator re-sent its proposal for a retransmitted request:
            # a replica that missed this one's votes may be waiting on them.
            self._resend(record)
            return
        record = self._record(message.batch_digest, message.requests, involved)
        # Votes may have raced ahead of the proposal; re-evaluate both quorums.
        self._advance_record(record)

    def _vote_record(self, message: CrossPrepare | CrossCommit) -> SharperRecord | None:
        """The record a vote counts towards; None for a vote to drop.

        A replica votes only for its own shard: a vote naming another shard's
        bucket would let one shard's replicas fill another's quorum.
        """
        if getattr(message.sender, "shard", None) != message.shard:
            return None
        if message.batch_digest in self._retired_digests:
            return None
        return self._record(message.batch_digest)

    def _handle_cross_prepare(self, message: CrossPrepare) -> None:
        record = self._vote_record(message)
        if record is None:
            return
        # Kept by view: a claim may arrive before the NewView that installs it.
        primary = self.directory.primary_of(self.shard_id, message.view)
        claimed = message.shard == self.shard_id and message.sender == primary
        if claimed:
            record.claims.setdefault(message.view, message.sequence)
        if record.prepare_tally.add((message.shard, message.sequence), message.sender) or (
            claimed and record.sequence is None
        ):
            self._advance_record(record)

    def _handle_cross_commit(self, message: CrossCommit) -> None:
        record = self._vote_record(message)
        if record is not None and record.commit_tally.add(
            (message.shard, message.sequence), message.sender
        ):
            self._advance_record(record)

    def _accept_slot(self, record: SharperRecord) -> bool:
        """Bind this replica to the batch at its shard's slot, as a PrePrepare would.

        The primary takes its next sequence; a backup takes its primary's
        claim, unless it already accepted another digest there.  A backup left
        without an acceptable claim arms a timer that replaces its primary.
        """
        proposer = self.is_primary and not self.byzantine_silent
        sequence = self.next_sequence if proposer else record.claims.get(self.view)
        if sequence is None or self.log.accepted_digest(self.view, sequence) not in (
            None,
            record.batch_digest,
        ):
            self._start_claim_timer(record)
            return False
        if proposer:
            self.next_sequence += 1
        self.cancel_timer(f"claim-{record.batch_digest.hex()}")
        self.log.accept(self.view, sequence, record.batch_digest)
        self.log.mark(self.view, sequence, SlotState.PRE_PREPARED)
        self.batches[record.batch_digest] = record.requests
        record.view, record.sequence = self.view, sequence
        return True

    def _start_claim_timer(self, record: SharperRecord) -> None:
        name = f"claim-{record.batch_digest.hex()}"
        if not self.has_timer(name):
            armed_view = self.view
            self.set_timer(
                name, self._local_timeout(), lambda: self._on_claim_timeout(record, armed_view)
            )

    def _on_claim_timeout(self, record: SharperRecord, armed_view: int) -> None:
        if record.sequence is not None:
            return
        if armed_view == self.view:
            self._initiate_view_change()
        else:
            self._start_claim_timer(record)

    def _quorum_from_every_shard(
        self, record: SharperRecord, tally: Tally[tuple[int, int]]
    ) -> bool:
        """Each involved shard reached a quorum at some slot, this shard at ours."""
        slots = dict(bucket for bucket in tally.buckets() if tally.reached(bucket))
        return (
            slots.get(self.shard_id) == record.sequence
            and record.involved_shards <= slots.keys()
        )

    def _advance_record(self, record: SharperRecord) -> None:
        """Advance the global consensus state machine as far as its inputs allow.

        Runs when the proposal or this shard's slot claim arrives, on each
        quorum edge and after a view change: the only events that can move it.
        """
        if not record.requests:
            return
        if record.sequence is None:
            if not self._accept_slot(record):
                return
            prepare = CrossPrepare(
                sender=self.replica_id,
                batch_digest=record.batch_digest,
                shard=self.shard_id,
                view=record.view,
                sequence=record.sequence,
            )
            self._broadcast_to_involved(record, prepare)
        if not record.prepared and self._quorum_from_every_shard(record, record.prepare_tally):
            record.prepared = True
            self.log.mark(record.view, record.sequence, SlotState.PREPARED)
            commit = CrossCommit(
                sender=self.replica_id,
                batch_digest=record.batch_digest,
                shard=self.shard_id,
                sequence=record.sequence,
            )
            self._broadcast_to_involved(record, commit)
        if (
            not record.committed
            and record.prepared
            and self._quorum_from_every_shard(record, record.commit_tally)
        ):
            record.committed = True
            if record.sequence not in self._committed_sequences:
                self._commit_slot(record.view, record.sequence, record.batch_digest)

    def _resubmit_pending_requests(self) -> None:
        """After a view change, settle every uncommitted record's slot in the new view.

        A slot the new view re-proposed for the batch stays the batch's slot;
        any other is void (abandoned, or free for a new proposal), so the
        record waits for a fresh claim, which the new primary makes here.
        """
        super()._resubmit_pending_requests()
        for record in list(self._records.values()):
            stale = not record.committed and record.view not in (None, self.view)
            kept = self.log.accepted_digest(self.view, record.sequence) == record.batch_digest
            if stale and kept:
                record.view = self.view
            elif stale:
                record.view = record.sequence = None
                record.prepared = False
            if record.sequence is None:
                self._advance_record(record)

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------

    def _truncate_below(self, watermark: int) -> None:
        for digest in [
            digest
            for digest, record in self._records.items()
            if record.sequence is not None and record.sequence <= watermark
        ]:
            del self._records[digest]
            self._retired_digests[digest] = watermark
        # Straggling votes arrive within a round trip; two checkpoint
        # windows is ample.
        horizon = watermark - 2 * self.checkpoints.interval
        for digest in [d for d, seq in self._retired_digests.items() if seq <= horizon]:
            del self._retired_digests[digest]
        super()._truncate_below(watermark)

    def retained_state(self) -> dict[str, int]:
        gauges = super().retained_state()
        gauges["sharper_records"] = len(self._records)
        gauges["retired_digests"] = len(self._retired_digests)
        return gauges

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def _handle_protocol_message(self, message) -> None:
        if isinstance(message, CrossPropose):
            self._handle_cross_propose(message)
        elif isinstance(message, CrossPrepare):
            self._handle_cross_prepare(message)
        elif isinstance(message, CrossCommit):
            self._handle_cross_commit(message)
