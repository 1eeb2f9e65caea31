"""Sharper baseline replica as described in Section 2 of the RingBFT paper.

Single-shard transactions run plain PBFT inside their shard (identical to
RingBFT and AHL).  A cross-shard transaction is coordinated by the primary of
the first involved shard (the *initiator shard*):

1. the initiator primary sends a ``CrossPropose`` to every replica of every
   involved shard;
2. every replica of every involved shard broadcasts a ``CrossPrepare`` to
   every replica of every involved shard (global all-to-all);
3. once a replica holds a prepare quorum *from each involved shard*, it
   broadcasts a ``CrossCommit`` the same way;
4. once a replica holds a commit quorum from each involved shard, the batch is
   globally committed: every shard executes its fragment and the replicas of
   the initiator shard reply to the client.

The two rounds of global quadratic communication are precisely what the paper
measures as Sharper's scalability limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.sharper.messages import CrossCommit, CrossPrepare, CrossPropose
from repro.common.messages import ClientRequest, batch_digest, requests_digest
from repro.consensus.pbft.replica import PbftReplica


@dataclass
class SharperRecord:
    """Per-batch state of Sharper's global consensus on one replica."""

    batch_digest: bytes
    involved_shards: frozenset[int]
    requests: tuple[ClientRequest, ...] = ()
    global_sequence: int | None = None
    prepare_votes: dict[int, set[str]] = field(default_factory=dict)
    commit_votes: dict[int, set[str]] = field(default_factory=dict)
    prepared: bool = False
    committed: bool = False
    executed: bool = False
    replied: bool = False

    def record_vote(self, table: dict[int, set[str]], shard: int, sender: str) -> int:
        votes = table.setdefault(shard, set())
        votes.add(sender)
        return len(votes)


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
        self._global_sequence = 0

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
        if txn.is_cross_shard:
            if self._initiator_shard(txn.involved_shards) != self.shard_id:
                self._redirect_client_request(request)
                return
            if self.is_primary and not self.byzantine_silent:
                self._propose_cross_shard(request)
            else:
                self.send(self.primary, request)
            return
        super()._handle_client_request(request)

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

    def _involved_replicas(self, record: SharperRecord) -> list:
        replicas = []
        for shard in sorted(record.involved_shards):
            replicas.extend(self.directory.replicas_of(shard))
        return replicas

    # ------------------------------------------------------------------
    # global consensus phases
    # ------------------------------------------------------------------

    def _propose_cross_shard(self, request: ClientRequest) -> None:
        """Initiator primary: propose the batch to every involved replica."""
        requests = (request,)
        digest = batch_digest(requests)
        if digest in self._records and self._records[digest].global_sequence is not None:
            return
        self._global_sequence += 1
        record = self._record(digest, requests, request.transaction.involved_shards)
        record.global_sequence = self._global_sequence
        message = CrossPropose(
            sender=self.replica_id,
            requests=requests,
            batch_digest=digest,
            global_sequence=self._global_sequence,
        )
        self._authenticate_cross_shard_broadcast(message, record.involved_shards)
        self.broadcast(self._involved_replicas(record), message, include_self=True)

    def _handle_cross_propose(self, message: CrossPropose) -> None:
        if requests_digest(message) != message.batch_digest:
            return
        involved = message.requests[0].transaction.involved_shards
        if self.shard_id not in involved:
            return
        initiator = self._initiator_shard(involved)
        if message.sender != self.directory.primary_of(initiator, view=0) and message.sender.shard != initiator:
            return
        record = self._record(message.batch_digest, message.requests, involved)
        if record.global_sequence is None:
            record.global_sequence = message.global_sequence
        prepare = CrossPrepare(
            sender=self.replica_id, batch_digest=message.batch_digest, shard=self.shard_id
        )
        self._authenticate_cross_shard_broadcast(prepare, record.involved_shards)
        self.broadcast(self._involved_replicas(record), prepare, include_self=True)
        # Votes may have raced ahead of the proposal; re-evaluate both quorums.
        self._advance_record(record)

    def _quorum_from_every_shard(
        self, record: SharperRecord, votes: dict[int, set[str]]
    ) -> bool:
        if not record.involved_shards:
            return False
        for shard in record.involved_shards:
            needed = self.directory.quorum(shard).commit_quorum
            if len(votes.get(shard, set())) < needed:
                return False
        return True

    def _handle_cross_prepare(self, message: CrossPrepare) -> None:
        record = self._record(message.batch_digest)
        record.record_vote(record.prepare_votes, message.shard, str(message.sender))
        self._advance_record(record)

    def _handle_cross_commit(self, message: CrossCommit) -> None:
        record = self._record(message.batch_digest)
        record.record_vote(record.commit_votes, message.shard, str(message.sender))
        self._advance_record(record)

    def _advance_record(self, record: SharperRecord) -> None:
        """Advance the global consensus state machine as far as its quorums allow."""
        if not record.requests:
            return
        if not record.prepared and self._quorum_from_every_shard(record, record.prepare_votes):
            record.prepared = True
            commit = CrossCommit(
                sender=self.replica_id, batch_digest=record.batch_digest, shard=self.shard_id
            )
            self._authenticate_cross_shard_broadcast(commit, record.involved_shards)
            self.broadcast(self._involved_replicas(record), commit, include_self=True)
        if (
            not record.committed
            and record.prepared
            and self._quorum_from_every_shard(record, record.commit_votes)
        ):
            record.committed = True
            self._execute_cross_shard(record)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def _execute_cross_shard(self, record: SharperRecord) -> None:
        if record.executed or self.shard_id not in record.involved_shards:
            return
        record.executed = True
        transactions = [req.transaction for req in record.requests]
        self.executor.execute_batch(transactions)
        self.executed_txn_count += len(transactions)
        sequence = record.global_sequence or 0
        self.ledger.append_batch(sequence, str(self.primary), transactions)
        self._maybe_checkpoint(sequence, tuple(transactions))
        if self._initiator_shard(record.involved_shards) == self.shard_id and not record.replied:
            record.replied = True
            for request in record.requests:
                self._reply_to_client(request, sequence)

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
