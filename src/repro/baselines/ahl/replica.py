"""AHL baseline replica (Dang et al., "Towards Scaling Blockchain Systems via
Sharding", SIGMOD 2019) as described in Section 2 of the RingBFT paper.

Single-shard transactions run plain PBFT inside their shard, exactly as in
RingBFT -- the paper makes all three protocols share this path.  Cross-shard
transactions take the *designated committee* path:

1. the client's transaction is routed to the **reference committee** (here:
   the shard with the lowest identifier), which orders it globally with PBFT;
2. the committee starts **two-phase commit**: every committee replica sends a
   ``Prepare2PC`` to every replica of every involved shard (all-to-all);
3. each involved shard runs local PBFT to agree on its vote, locks the data,
   and sends ``Vote2PC`` back to every committee replica;
4. the committee agrees on the global decision (a propose/vote round among
   committee replicas standing in for its second PBFT instance) and sends
   ``Decide2PC`` to every replica of every involved shard;
5. involved shards execute their fragments and release locks; the committee
   replies to the client.

The all-to-all communication and the extra committee consensus are exactly
what the paper blames for AHL's poor cross-shard scalability.
"""

from __future__ import annotations

from repro.baselines.ahl.messages import (
    CommitteeDecision,
    CommitteeVote,
    Decide2PC,
    Prepare2PC,
    Vote2PC,
)
from repro.baselines.ahl.records import AhlRecord
from repro.common.messages import ClientRequest, requests_digest
from repro.consensus.pbft.replica import PbftReplica


class AhlReplica(PbftReplica):
    """One replica participating in AHL; committee membership is by shard id."""

    #: AHL's 2PC messages are always broadcast by their actual sender with a
    #: MAC vector covering every receiving replica (and carry no signatures),
    #: so the tag is mandatory for them too -- omitting it must not skip the
    #: gate.
    _MAC_REQUIRED_TYPES = PbftReplica._MAC_REQUIRED_TYPES + (
        Prepare2PC,
        Vote2PC,
        CommitteeVote,
        CommitteeDecision,
        Decide2PC,
    )

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._records: dict[bytes, AhlRecord] = {}
        #: Committee side: cross-shard prepares sent per destination shard,
        #: in commit order -- every committee replica derives the identical
        #: counts from the identical committed log.
        self._cross_dest_counts: dict[int, int] = {}
        #: Involved-shard side: prepares ready for local vote consensus,
        #: keyed by their dense per-shard index, proposed strictly in order.
        self._ready_cross: dict[int, AhlRecord] = {}
        self._next_cross_proposal = 1
        #: Set when this replica adopts state via transfer: its dense-index
        #: bookkeeping skipped every batch in the adopted window, so it can
        #: no longer claim indices (committee side) or trust its cursor
        #: (involved side).  See :meth:`_install_state`.
        self._cross_order_stale = False

    # ------------------------------------------------------------------
    # roles
    # ------------------------------------------------------------------

    @property
    def committee_shard(self) -> int:
        """The shard acting as AHL's reference committee (lowest identifier)."""
        return min(self.directory.shard_ids())

    @property
    def is_committee_member(self) -> bool:
        return self.shard_id == self.committee_shard

    def _record(
        self,
        digest: bytes,
        requests: tuple[ClientRequest, ...] = (),
        involved: frozenset[int] | None = None,
    ) -> AhlRecord:
        record = self._records.get(digest)
        if record is None:
            record = AhlRecord(
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

    def ahl_record(self, digest: bytes) -> AhlRecord | None:
        """Accessor used by tests."""
        return self._records.get(digest)

    def _install_state(self, reply) -> None:
        super()._install_state(reply)
        # The adopted window bypassed _on_batch_committed, so the dense
        # prepare-index bookkeeping skipped an unknown number of batches.
        # Committee side: abstain from claiming indices from now on (the
        # up-to-date honest majority still reaches the weak quorum that
        # confirms them).  Involved side: drain whatever is queued and fall
        # back to arrival-order proposal -- the missed indices belong to
        # batches that settled while this replica lagged and will never be
        # retransmitted, so a strict cursor would stall the shard if this
        # replica were later promoted primary.
        self._cross_order_stale = True
        for record in sorted(self._ready_cross.values(), key=lambda r: r.dest_sequence or 0):
            self._admit(record.requests)
        self._ready_cross.clear()

    # ------------------------------------------------------------------
    # client request routing
    # ------------------------------------------------------------------

    def _accepts_client_request(self, request: ClientRequest) -> bool:
        txn = request.transaction
        if txn.is_cross_shard:
            return self.is_committee_member
        return self.shard_id in txn.involved_shards

    def _redirect_client_request(self, request: ClientRequest) -> None:
        if not self.is_primary:
            return
        txn = request.transaction
        if txn.is_cross_shard:
            target = self.committee_shard
        else:
            target = next(iter(txn.involved_shards))
        if target != self.shard_id:
            self.send(self.directory.primary_of(target, view=0), request)

    # ------------------------------------------------------------------
    # commit hook: branch on single-shard vs committee vs involved shard
    # ------------------------------------------------------------------

    def _on_batch_committed(self, view, sequence, digest, batch) -> None:
        if not batch:
            return
        txn = batch[0].transaction
        if not txn.is_cross_shard:
            # Single-shard path: sequence-ordered locking, execute, release.
            self._acquire_locks_then(
                sequence, digest, batch, lambda: self._execute_local(sequence, digest, batch)
            )
            return
        involved = txn.involved_shards
        record = self._record(digest, requests=batch, involved=involved)
        if self.is_committee_member and not record.prepare_sent:
            # The committee just globally ordered the batch: start 2PC.
            record.global_sequence = sequence
            record.prepare_sent = True
            # Assign each involved shard this batch's dense prepare index
            # (identical on every committee replica: derived from the
            # committed log order).  Involved primaries propose in this
            # order, keeping cross-shard lock acquisition deadlock-free.
            record.shard_sequences = {}
            if not self._cross_order_stale:
                for shard in sorted(involved):
                    if shard == self.shard_id:
                        continue
                    self._cross_dest_counts[shard] = self._cross_dest_counts.get(shard, 0) + 1
                    record.shard_sequences[shard] = self._cross_dest_counts[shard]
            self._send_prepare_2pc(record, sequence)
            if self.shard_id in involved:
                # The committee shard also owns part of the data: vote as well.
                record.local_sequence = sequence
                self._acquire_locks_then(
                    sequence, digest, batch, lambda: self._cast_vote(digest)
                )
            self._check_decision(record)
        elif not self.is_committee_member:
            # An involved shard finished its local vote consensus.
            record.local_sequence = sequence
            self._acquire_locks_then(
                sequence, digest, batch, lambda: self._cast_vote(digest)
            )

    def _execute_local(self, sequence: int, digest: bytes, batch) -> None:
        self._execute_batch(sequence, digest, batch)
        self.last_executed = max(self.last_executed, sequence)
        self._release_lock_token(digest.hex())

    # ------------------------------------------------------------------
    # 2PC: prepare phase
    # ------------------------------------------------------------------

    def _send_prepare_2pc(self, record: AhlRecord, global_sequence: int) -> None:
        """Committee -> every replica of every involved shard (all-to-all)."""
        message = Prepare2PC(
            sender=self.replica_id,
            requests=record.requests,
            batch_digest=record.batch_digest,
            global_sequence=global_sequence,
            shard_sequences=dict(record.shard_sequences or {}),
        )
        audience = [s for s in sorted(record.involved_shards) if s != self.shard_id]
        self._authenticate_cross_shard_broadcast(message, audience)
        for shard in audience:
            self.broadcast(list(self.directory.replicas_of(shard)), message)

    def _handle_prepare_2pc(self, message: Prepare2PC) -> None:
        if requests_digest(message) != message.batch_digest:
            return
        involved = message.requests[0].transaction.involved_shards
        if self.shard_id not in involved:
            return
        record = self._record(message.batch_digest, requests=message.requests, involved=involved)
        record.prepare_senders.add(str(message.sender))
        committee_weak = self.directory.quorum(self.committee_shard).weak_quorum
        claimed = message.shard_sequences.get(self.shard_id)
        if claimed is not None and record.dest_sequence is None:
            # Adopt the dense index only once a weak quorum of committee
            # replicas claims the *same* value: the MAC authenticates each
            # claim's sender, but a Byzantine sender signs whatever it wants,
            # so the f+1 agreement is what actually defends the order.
            claimants = record.dest_sequence_claims.setdefault(claimed, set())
            claimants.add(str(message.sender))
            if len(claimants) >= committee_weak:
                record.dest_sequence = claimed
        if len(record.prepare_senders) < committee_weak:
            return
        if record.local_consensus_started:
            return
        if record.dest_sequence is None or self._cross_order_stale:
            if record.dest_sequence is None and record.dest_sequence_claims:
                # Ordering info exists but no value is quorum-confirmed yet
                # (a Byzantine claim among the first f+1): wait for further
                # honest prepares instead of proposing out of order.
                return
            # Arrival-order fallback, used when no sender claimed an index
            # (pre-ordering committee, stripped messages) and by a replica
            # whose cursor went stale through state transfer -- indices it
            # missed will never be retransmitted, so strict ordering would
            # trade the deadlock risk for a certain stall.
            record.local_consensus_started = True
            self._admit(message.requests)
            return
        # Queue for local vote consensus strictly in the committee-assigned
        # per-shard order: every involved shard then locks the same two
        # batches in the same relative order, which is what makes the
        # sequence-ordered LockManager deadlock-free across shards.
        record.local_consensus_started = True
        self._ready_cross[record.dest_sequence] = record
        self._drain_cross_proposals()

    def _drain_cross_proposals(self) -> None:
        """Consume contiguous ready prepares; only the primary proposes.

        Every replica advances the cursor identically (backups would
        otherwise accumulate ``_ready_cross`` entries forever, and a backup
        promoted by a view change would replay every historical batch from
        index 1); proposing is the primary's job alone.
        """
        while self._next_cross_proposal in self._ready_cross:
            record = self._ready_cross.pop(self._next_cross_proposal)
            self._next_cross_proposal += 1
            self._admit(record.requests)

    def _resubmit_pending_requests(self) -> None:
        """After a view change, also re-drive 2PC batches that stalled.

        Every replica advances the dense-index cursor but only the primary
        proposes, so a batch the old primary queued or proposed without
        committing is known here and owed to the committee: the new primary
        re-drives it, oldest index first, through the admission point.
        """
        super()._resubmit_pending_requests()
        stalled = [
            record
            for record in self._records.values()
            if record.local_consensus_started and record.local_sequence is None
        ]
        for record in sorted(stalled, key=lambda r: r.dest_sequence or 0):
            self._admit(record.requests)

    # ------------------------------------------------------------------
    # 2PC: vote phase
    # ------------------------------------------------------------------

    def _cast_vote(self, digest: bytes) -> None:
        record = self._records.get(digest)
        if record is None or record.voted:
            return
        record.locked = True
        record.voted = True
        vote = Vote2PC(
            sender=self.replica_id,
            batch_digest=digest,
            shard=self.shard_id,
            commit=True,
        )
        committee = self.directory.replicas_of(self.committee_shard)
        self._authenticate_cross_shard_broadcast(vote, (self.committee_shard,))
        self.broadcast(list(committee), vote, include_self=self.is_committee_member)
        if record.decided:
            # The global decision raced ahead of our local locking.
            self._finish_cross_shard(record)

    def _handle_vote_2pc(self, message: Vote2PC) -> None:
        if not self.is_committee_member:
            return
        record = self._record(message.batch_digest)
        count = record.record_shard_vote(message.shard, str(message.sender))
        shard_weak = self.directory.quorum(message.shard).weak_quorum
        if count < shard_weak:
            return
        self._check_decision(record)

    def _all_votes_collected(self, record: AhlRecord) -> bool:
        if not record.involved_shards:
            return False
        for shard in record.involved_shards:
            weak = self.directory.quorum(shard).weak_quorum
            if len(record.shard_votes.get(shard, set())) < weak:
                return False
        return True

    def _check_decision(self, record: AhlRecord) -> None:
        """Once every involved shard voted, run the committee's decision round."""
        if not self._all_votes_collected(record) or record.decision_sent:
            return
        vote = CommitteeVote(sender=self.replica_id, batch_digest=record.batch_digest, commit=True)
        self._authenticate_cross_shard_broadcast(vote, (self.committee_shard,))
        self.broadcast(list(self.directory.replicas_of(self.committee_shard)), vote, include_self=True)

    def _handle_committee_vote(self, message: CommitteeVote) -> None:
        if not self.is_committee_member:
            return
        record = self._record(message.batch_digest)
        record.committee_votes.add(str(message.sender))
        if record.decision_sent:
            return
        if len(record.committee_votes) < self.quorum.commit_quorum:
            return
        record.decision_sent = True
        self._send_decision(record)

    # ------------------------------------------------------------------
    # 2PC: decide phase
    # ------------------------------------------------------------------

    def _send_decision(self, record: AhlRecord) -> None:
        decision = Decide2PC(sender=self.replica_id, batch_digest=record.batch_digest, commit=True)
        self._authenticate_cross_shard_broadcast(decision, record.involved_shards)
        for shard in sorted(record.involved_shards):
            self.broadcast(
                list(self.directory.replicas_of(shard)),
                decision,
                include_self=(shard == self.shard_id),
            )
        if not record.replied:
            record.replied = True
            for request in record.requests:
                self._reply_to_client(request, record.global_sequence or 0)

    def _handle_decide_2pc(self, message: Decide2PC) -> None:
        record = self._records.get(message.batch_digest)
        if record is None:
            return
        record.decide_senders.add(str(message.sender))
        committee_weak = self.directory.quorum(self.committee_shard).weak_quorum
        if len(record.decide_senders) < committee_weak or record.decided:
            return
        record.decided = True
        self._finish_cross_shard(record)

    def _finish_cross_shard(self, record: AhlRecord) -> None:
        """Execute the local fragment and release its locks after the global decision."""
        if record.executed or self.shard_id not in record.involved_shards:
            return
        if not record.locked or record.local_sequence is None:
            # Decision arrived before the local vote consensus finished; it
            # will be finished when the vote path completes.
            return
        transactions = [req.transaction for req in record.requests]
        self.executor.execute_batch(transactions)
        self.executed_txn_count += len(transactions)
        self.last_executed = max(self.last_executed, record.local_sequence)
        record.executed = True
        self._release_lock_token(record.batch_digest.hex())
        self._maybe_checkpoint(record.local_sequence, tuple(transactions))

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def _handle_protocol_message(self, message) -> None:
        if isinstance(message, Prepare2PC):
            self._handle_prepare_2pc(message)
        elif isinstance(message, Vote2PC):
            self._handle_vote_2pc(message)
        elif isinstance(message, CommitteeVote):
            self._handle_committee_vote(message)
        elif isinstance(message, Decide2PC):
            self._handle_decide_2pc(message)
