"""RingBFT replica: cross-shard consensus over a sharded ring topology.

This class layers the paper's cross-shard machinery (Sections 4.2-5.1) on top
of the intra-shard PBFT engine:

* **Process** -- the initiator shard (first involved shard in ring order) runs
  local PBFT on the cross-shard batch and locks its data fragments in
  sequence order (pending list ``pi`` handled by the lock manager).
* **Forward** -- once locked, every replica sends a ``Forward`` message to the
  replica with the *same index* in the next involved shard (the linear
  communication primitive), carrying the commit certificate ``A`` of nf signed
  Commit messages; receivers locally share the message and act once ``f + 1``
  matching Forwards from distinct senders arrive.
* **Execute / second rotation** -- when the rotation wraps back to the
  initiator, its fragments are locked everywhere; the initiator executes,
  releases its locks, and starts the Execute rotation carrying the
  accumulated write sets ``Sigma`` that resolve complex-transaction
  dependencies.  When Execute wraps back to the initiator it replies to the
  client.
* **Sigma** -- each shard contributes only the values of its keys that some
  transaction of the batch names in ``Operation.depends_on`` (committed
  values at lock time, written values at execute time), so a batch with no
  complex transaction carries an empty Sigma at every hop.  A received Sigma
  is adopted only once ``f + 1`` senders of its origin shard carry it.
* **Re-transmit** -- a transmit timer re-sends Forward messages; a remote
  timer detects partial communication and triggers a *remote view change* in
  the previous shard (Figure 6).
"""

from __future__ import annotations

from repro.common.crypto import verify_certificate
from repro.common.messages import (
    ClientRequest,
    Execute,
    Forward,
    RemoteView,
    requests_digest,
)
from repro.core.records import CrossShardRecord, sigma_key
from repro.consensus.pbft.log import SlotState
from repro.consensus.pbft.replica import PbftReplica
from repro.errors import ConfigurationError


class RingBftReplica(PbftReplica):
    """A replica of one shard participating in RingBFT."""

    #: Cross-shard messages are tagged by their original sender for *every*
    #: replica of the destination shard (not just the unicast counterpart),
    #: so local relays stay verifiable and the tag is mandatory: the f+1
    #: distinct-sender counts on Forward/Execute/RemoteView must count
    #: authenticated senders, not spoofable sender fields.
    _MAC_REQUIRED_TYPES = PbftReplica._MAC_REQUIRED_TYPES + (Forward, Execute, RemoteView)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.ring = self.directory.ring
        #: f + 1 of every shard: the threshold of each record's vote tallies.
        self._weak_quorums = {
            shard: self.directory.quorum(shard).weak_quorum for shard in self.directory.shard_ids()
        }
        self._cross_records: dict[bytes, CrossShardRecord] = {}
        #: Local-relay dedup, keyed by batch digest so retirement can drop a
        #: record's relay history with it: digest -> {(type_name, sender)}.
        self._relayed: dict[bytes, set[tuple[str, str]]] = {}
        #: Digests of records retired by checkpoint GC, mapped to the GC
        #: watermark that retired them.  Late Forward/Execute retransmissions
        #: for these digests are dropped instead of resurrecting the record;
        #: entries older than two checkpoint windows are pruned, so the map is
        #: bounded by the retirement rate of two intervals.
        self._retired_digests: dict[bytes, int] = {}
        self.cross_records_retired = 0
        #: Forward rotations abandoned after exhausting the retransmission cap.
        self.forward_give_ups = 0
        #: Byzantine knob: drop outgoing Forward messages (partial communication attack).
        self.drop_forwards = False

    # ------------------------------------------------------------------
    # client request routing (Figure 5, lines 4-9)
    # ------------------------------------------------------------------

    def _accepts_client_request(self, request: ClientRequest) -> bool:
        involved = request.transaction.involved_shards
        if self.shard_id not in involved:
            return False
        try:
            return self.ring.first_in_ring_order(involved) == self.shard_id
        except ConfigurationError:
            # The transaction also names shards outside the ring; it cannot be
            # ordered anywhere.  _redirect_client_request records the drop.
            return False

    def _redirect_client_request(self, request: ClientRequest) -> None:
        """A primary that is not first in ring order relays the request onward."""
        involved = request.transaction.involved_shards
        if self.shard_id in involved and not self.is_primary:
            # Non-primary replicas of non-initiator shards ignore client traffic.
            return
        try:
            initiator = self.ring.first_in_ring_order(involved)
        except ConfigurationError:
            # Ring lookup failed: the transaction involves shards that are not
            # part of this deployment's ring.  Count the drop instead of
            # silently swallowing it so operators can see misrouted traffic.
            self.stats.record_dropped_request("unroutable")
            return
        if initiator == self.shard_id:
            return
        self.send(self.directory.primary_of(initiator, view=0), request)

    # ------------------------------------------------------------------
    # commit hooks
    # ------------------------------------------------------------------

    def _should_sign_commit(self, digest: bytes) -> bool:
        """Sign Commit votes of cross-shard batches so Forward certificates verify."""
        batch = self.batches.get(digest, ())
        if not batch:
            return False
        return batch[0].transaction.is_cross_shard

    def _on_locks_acquired(self, view, sequence, digest, batch) -> None:
        """A single-shard batch executes; a cross-shard one forwards its locks."""
        if not batch or not batch[0].transaction.is_cross_shard:
            super()._on_locks_acquired(view, sequence, digest, batch)
            return
        record = self._record_for(digest, batch[0].transaction.involved_shards, batch)
        record.sequence = sequence
        record.commit_view = view
        record.locked = True
        # Attach the committed values of the keys complex transactions depend
        # on, so they can resolve cross-shard dependencies from the
        # accumulated Sigma.  Every local dependency key is also a lock key,
        # so the values are stable until this fragment executes.
        record.dependency_keys = self._dependency_keys_for(batch)
        local_reads = {
            key: self.store.read(key) for key in record.dependency_keys if key in self.store
        }
        record.add_local_writes(self.shard_id, local_reads)
        self._send_forward(record)
        if record.execute_ready:
            # An Execute quorum arrived while we were still locking.
            self._execute_cross_fragment(record)

    def _dependency_keys_for(self, batch: tuple[ClientRequest, ...]) -> frozenset[str]:
        """Keys of this shard that some transaction of ``batch`` depends on."""
        return frozenset(
            key
            for request in batch
            for op in request.transaction.operations
            for shard, key in op.depends_on
            if shard == self.shard_id
        )

    # ------------------------------------------------------------------
    # cross-shard records
    # ------------------------------------------------------------------

    def _record_for(
        self,
        digest: bytes,
        involved: frozenset[int],
        requests: tuple[ClientRequest, ...] = (),
    ) -> CrossShardRecord:
        record = self._cross_records.get(digest)
        if record is None:
            record = CrossShardRecord(
                batch_digest=digest,
                involved_shards=involved,
                weak_quorum=self._weak_quorums.__getitem__,
            )
            self._cross_records[digest] = record
        if requests and not record.requests:
            record.requests = tuple(requests)
        if involved and not record.involved_shards:
            record.involved_shards = involved
        return record

    def cross_record(self, digest: bytes) -> CrossShardRecord | None:
        """Public accessor used by tests and the fault injector."""
        return self._cross_records.get(digest)

    # ------------------------------------------------------------------
    # Forward: process & forward (Figure 5, lines 15-31)
    # ------------------------------------------------------------------

    def _next_shard_for(self, record: CrossShardRecord) -> int:
        return self.ring.next_in_ring_order(self.shard_id, record.involved_shards)

    def _counterpart(self, shard_id: int):
        """The replica of ``shard_id`` paired with this one by the linear primitive."""
        return self.directory.peer_with_index(shard_id, self.replica_id.index)

    def _send_forward(self, record: CrossShardRecord) -> None:
        if record.sequence is None or self.drop_forwards:
            return
        # Reuse the Forward across retransmissions: rebuilding it every time
        # minted a fresh frozen object whose payload memo, MAC vector, and
        # wire encoding all started cold.  Rebuild only when the accumulated
        # read sets actually changed since the cached copy was built.
        message = record.cached_forward
        if message is None or record.cached_forward_version != record.write_sets_version:
            certificate = self.log.commit_certificate(
                self.shard_id,
                record.commit_view,
                record.sequence,
                record.batch_digest,
                self.quorum.commit_quorum,
            )
            message = Forward(
                sender=self.replica_id,
                requests=record.requests,
                certificate=certificate,
                batch_digest=record.batch_digest,
                origin_shard=self.shard_id,
                read_sets={shard: dict(values) for shard, values in record.write_sets.items()},
            )
            record.cached_forward = message
            record.cached_forward_version = record.write_sets_version
        next_shard = self._next_shard_for(record)
        # Tag every replica of the destination shard even though only the
        # counterpart receives the unicast: the local relay (Figure 5, lines
        # 29-30) forwards this same object, so the whole shard can verify the
        # original sender's MAC vector.
        self._authenticate_cross_shard_broadcast(message, (next_shard,))
        self.send(self._counterpart(next_shard), message)
        self._arm_transmit_timer(record)

    def _arm_transmit_timer(self, record: CrossShardRecord) -> None:
        digest = record.batch_digest
        self.set_timer(
            f"transmit-{digest.hex()}",
            self.timers_config.transmit_timeout,
            lambda: self._on_transmit_timeout(digest),
        )

    def _on_transmit_timeout(self, digest: bytes) -> None:
        """Re-transmit the Forward message until the rotation completes (5.1.1).

        Retransmissions are capped (``TimerConfig.max_forward_retransmissions``)
        so that a permanently unreachable next shard cannot spin this timer
        forever; giving up is surfaced in the replica's stats, and the record
        stays pending (``pending_cross_shard``) for the operator to see.
        """
        record = self._cross_records.get(digest)
        if record is None or record.executed or not record.locked:
            return
        if record.retransmissions >= self.timers_config.max_forward_retransmissions:
            if not record.retransmissions_exhausted:
                record.retransmissions_exhausted = True
                self.forward_give_ups += 1
                self.stats.record_dropped_request("forward-retransmissions-exhausted")
            return
        record.retransmissions += 1
        self._send_forward(record)

    def _handle_protocol_message(self, message) -> None:
        if isinstance(message, Forward):
            self._handle_forward(message)
        elif isinstance(message, Execute):
            self._handle_execute(message)
        elif isinstance(message, RemoteView):
            self._handle_remote_view(message)

    def _relay_locally(self, message, digest: bytes) -> None:
        """Local sharing of cross-shard messages (Figure 5, lines 29-30).

        Only the designated recipient (same replica index as the sender)
        relays, and each (type, digest, original sender) is relayed once.
        """
        sender = message.sender
        if getattr(sender, "shard", self.shard_id) == self.shard_id:
            return
        if sender.index != self.replica_id.index:
            return
        seen = self._relayed.setdefault(digest, set())
        key = (message.type_name, sender)
        if key in seen:
            return
        seen.add(key)
        peers = [r for r in self.shard_peers if r != self.replica_id]
        # The relayed message keeps its *original* cross-shard sender, and it
        # already carries that sender's MAC vector for every replica of this
        # shard (minted at _send_forward/_send_execute time), so each peer
        # verifies the original sender directly -- the relayer adds nothing.
        self.broadcast(peers, message)

    def _verify_forward(self, message: Forward) -> bool:
        """Well-formedness of a Forward: digest matches and the certificate verifies."""
        if requests_digest(message) != message.batch_digest:
            return False
        certificate = message.certificate
        if certificate.batch_digest != message.batch_digest:
            return False
        origin_quorum = self.directory.quorum(message.origin_shard).commit_quorum
        return verify_certificate(
            self.signer,
            certificate.signed_payload(),
            certificate.signatures,
            origin_quorum,
        )

    def _handle_forward(self, message: Forward) -> None:
        if message.batch_digest in self._retired_digests:
            # Late retransmission for a rotation this replica already completed
            # and garbage-collected; resurrecting the record would re-propose
            # an executed batch.
            return
        if not self._verify_forward(message):
            return
        digest = message.batch_digest
        involved = message.requests[0].transaction.involved_shards
        if self.shard_id not in involved:
            return
        self._relay_locally(message, digest)
        record = self._record_for(digest, involved, message.requests)
        origin = message.origin_shard
        if record.first_forward.add(origin, message.sender) and not record.locked:
            self._arm_remote_timer(record, origin)
        if not record.forward_tally.add((origin, sigma_key(message.read_sets)), message.sender):
            return
        record.merge_write_sets(message.read_sets)
        self.cancel_timer(f"remote-{digest.hex()}")
        if record.locked:
            # The rotation wrapped back to us: we are the initiator, locked
            # before any Forward arrived.  Execute our fragment, which starts
            # the Execute rotation.
            self._execute_cross_fragment(record)
            return
        if not record.consensus_started:
            record.consensus_started = True
            self._admit(message.requests)
            if not self.is_primary:
                # Expect our primary to propose the forwarded batch; otherwise
                # view-change (attack A2 applied to forwarded requests).
                self.set_timer(
                    f"forwarded-{digest.hex()}",
                    self._local_timeout(),
                    lambda: self._on_forwarded_timeout(digest),
                )

    def _on_forwarded_timeout(self, digest: bytes) -> None:
        record = self._cross_records.get(digest)
        if record is not None and not record.locked:
            self._initiate_view_change()

    def _arm_remote_timer(self, record: CrossShardRecord, origin: int) -> None:
        digest = record.batch_digest
        self.set_timer(
            f"remote-{digest.hex()}",
            self.timers_config.remote_timeout,
            lambda: self._on_remote_timeout(digest, origin),
        )

    def _on_remote_timeout(self, digest: bytes, origin: int) -> None:
        """Partial-communication attack detected: ask the previous shard to view-change.

        No Forward quorum arrived from ``origin`` since the timer was armed:
        the quorum's edge in ``_handle_forward`` cancels this timer.
        """
        if digest not in self._cross_records:
            return
        message = RemoteView(
            sender=self.replica_id,
            batch_digest=digest,
            target_shard=origin,
        )
        self._authenticate_cross_shard_broadcast(message, (origin,))
        self.send(self._counterpart(origin), message)

    # ------------------------------------------------------------------
    # Execution rotation (Figure 5, lines 32-44)
    # ------------------------------------------------------------------

    def _execute_cross_fragment(self, record: CrossShardRecord) -> None:
        if record.executed or record.sequence is None:
            return
        record.executed = True
        self.log.mark(record.commit_view, record.sequence, SlotState.EXECUTED)
        self.cancel_timer(f"transmit-{record.batch_digest.hex()}")
        results = self._execute_fragment(
            record.sequence, record.batch_digest, record.requests, record.write_sets
        )
        record.add_local_writes(
            self.shard_id,
            {
                key: value
                for result in results
                for key, value in result.writes.items()
                if key in record.dependency_keys
            },
        )
        self._send_execute(record)
        self._maybe_retire_record(record)

    def _send_execute(self, record: CrossShardRecord) -> None:
        if record.execute_sent:
            return
        record.execute_sent = True
        message = Execute(
            sender=self.replica_id,
            batch_digest=record.batch_digest,
            txn_ids=record.txn_ids,
            write_sets={shard: dict(w) for shard, w in record.write_sets.items()},
            origin_shard=self.shard_id,
        )
        next_shard = self._next_shard_for(record)
        # Same pattern as _send_forward: the vector covers the whole
        # destination shard so the local relay stays verifiable.
        self._authenticate_cross_shard_broadcast(message, (next_shard,))
        self.send(self._counterpart(next_shard), message)

    def _handle_execute(self, message: Execute) -> None:
        digest = message.batch_digest
        if digest in self._retired_digests:
            return
        record = self._cross_records.get(digest)
        if record is None:
            # Execute for a batch we have not locked yet; remember the writes.
            record = self._record_for(digest, frozenset())
        self._relay_locally(message, digest)
        bucket = (message.origin_shard, sigma_key(message.write_sets))
        if not record.execute_tally.add(bucket, message.sender):
            return
        record.merge_write_sets(message.write_sets)
        if record.executed:
            # We are the initiator and the Execute rotation wrapped back:
            # every shard has executed, reply to the client (Figure 5, 41-42).
            self._reply_for_record(record)
            return
        if record.locked:
            self._execute_cross_fragment(record)
        else:
            record.execute_ready = True

    def _reply_for_record(self, record: CrossShardRecord) -> None:
        if record.replied or record.sequence is None:
            return
        is_initiator = self.ring.first_in_ring_order(record.involved_shards) == self.shard_id
        if not is_initiator:
            return
        record.replied = True
        self._reply_to_clients(record.requests, record.sequence)
        self._maybe_retire_record(record)

    # ------------------------------------------------------------------
    # Remote view change (Figure 6)
    # ------------------------------------------------------------------

    def _handle_remote_view(self, message: RemoteView) -> None:
        if message.target_shard != self.shard_id:
            return
        digest = message.batch_digest
        if digest in self._retired_digests:
            # The rotation completed here before GC retired it; a view change
            # on its behalf would be pure churn.
            return
        record = self._record_for(digest, frozenset())
        self._relay_locally(message, digest)
        sender = message.sender
        sender_shard = getattr(sender, "shard", None)
        if sender_shard is None or sender_shard == self.shard_id:
            return
        if record.remote_view_tally.add(sender_shard, sender):
            self._initiate_view_change()

    # ------------------------------------------------------------------
    # state-transfer integration
    # ------------------------------------------------------------------

    def _install_state(self, reply) -> None:
        """Also retire rotations the adopted snapshot already covers.

        A replica that missed a rotation's Forward/Execute quorums never
        executes the record locally -- its effects arrive wholesale with the
        snapshot.  Left in place, that permanently unsettled record would pin
        the GC floor below its sequence and this replica would never truncate
        again, so it is retired here and the truncation sweep re-run.
        """
        super()._install_state(reply)
        stale = [
            digest
            for digest, record in self._cross_records.items()
            if record.requests
            and all(self.executor.already_executed(txn_id) for txn_id in record.txn_ids)
            and not record.settled(self._is_initiator(record))
        ]
        for digest in stale:
            self._retire_record(digest, self.last_executed)
        if stale:
            self._on_stable_checkpoint(self.checkpoints.last_stable_sequence)

    # ------------------------------------------------------------------
    # view-change integration
    # ------------------------------------------------------------------

    def _resubmit_pending_requests(self) -> None:
        """After a view change, also re-drive cross-shard batches that stalled.

        A batch whose Forward quorum arrived under the previous primary may
        never have been proposed locally (that primary was faulty), so the new
        primary re-proposes every known cross-shard batch that has not locked
        its data yet.
        """
        super()._resubmit_pending_requests()
        for record in self._cross_records.values():
            if not record.requests or record.locked:
                continue
            if self.is_primary and not self.byzantine_silent:
                record.consensus_started = True
                self._admit(record.requests)
            elif not self.is_primary and record.consensus_started:
                # Give the new primary a chance before escalating again.
                self.set_timer(
                    f"forwarded-{record.batch_digest.hex()}",
                    self._local_timeout(),
                    lambda digest=record.batch_digest: self._on_forwarded_timeout(digest),
                )

    # ------------------------------------------------------------------
    # garbage collection (checkpoint-driven record retirement)
    # ------------------------------------------------------------------

    def _is_initiator(self, record: CrossShardRecord) -> bool:
        if not record.involved_shards:
            return False
        return self.ring.first_in_ring_order(record.involved_shards) == self.shard_id

    def _gc_floor(self, stable_sequence: int) -> int:
        """Never truncate at or above an unsettled cross-shard record.

        An in-flight rotation still needs its consensus slot (the commit
        certificate inside retransmitted Forward messages is assembled from
        the slot's signed Commit votes), so the watermark stays strictly below
        the earliest unsettled record.  A record whose retransmission cap was
        exhausted no longer pins the floor: nothing will re-send its Forward,
        so keeping its evidence would silently re-disable GC for the rest of
        the run; the record itself stays (small, and visible to operators via
        ``pending_cross_shard``).
        """
        floor = super()._gc_floor(stable_sequence)
        for record in self._cross_records.values():
            if record.sequence is None or record.retransmissions_exhausted:
                continue
            if not record.settled(self._is_initiator(record)):
                floor = min(floor, record.sequence - 1)
        return floor

    def _retire_record(self, digest: bytes, retired_at: int) -> None:
        del self._cross_records[digest]
        self._relayed.pop(digest, None)
        self._retired_digests[digest] = retired_at
        self.cancel_timer(f"transmit-{digest.hex()}")
        self.cancel_timer(f"forwarded-{digest.hex()}")
        self.cancel_timer(f"remote-{digest.hex()}")
        self.cross_records_retired += 1

    def _maybe_retire_record(self, record: CrossShardRecord) -> None:
        """Retire a record the moment it settles below the stable checkpoint.

        Most records settle *after* the checkpoint covering them stabilises
        (execution trails consensus), so the checkpoint-time sweep would hold
        them for one extra interval; retiring eagerly keeps the retained set
        tight to the genuinely in-flight rotations.
        """
        if record.sequence is None:
            return
        if record.sequence > self.checkpoints.last_stable_sequence:
            return
        if not record.settled(self._is_initiator(record)):
            return
        if record.batch_digest in self._cross_records:
            # Stamp the *current* stable sequence, not the record's own (it
            # may lie far below after a long stall): the dedup entry must
            # survive two checkpoint windows from now to absorb stragglers.
            self._retire_record(record.batch_digest, self.checkpoints.last_stable_sequence)

    def _truncate_below(self, watermark: int) -> None:
        retired = [
            digest
            for digest, record in self._cross_records.items()
            if record.sequence is not None
            and record.sequence <= watermark
            and record.settled(self._is_initiator(record))
        ]
        for digest in retired:
            self._retire_record(digest, watermark)
        # The retirement dedup map only needs to outlive straggling
        # retransmissions; two checkpoint windows is ample.
        horizon = watermark - 2 * self.checkpoints.interval
        for digest in [d for d, seq in self._retired_digests.items() if seq <= horizon]:
            del self._retired_digests[digest]
        super()._truncate_below(watermark)

    def retained_state(self) -> dict[str, int]:
        gauges = super().retained_state()
        gauges["cross_records"] = len(self._cross_records)
        gauges["relayed_keys"] = sum(len(keys) for keys in self._relayed.values())
        gauges["retired_digests"] = len(self._retired_digests)
        return gauges

    # ------------------------------------------------------------------
    # introspection helpers used by tests and experiments
    # ------------------------------------------------------------------

    def pending_cross_shard(self) -> tuple[str, ...]:
        return tuple(
            record.txn_ids[0] if record.txn_ids else record.batch_digest.hex()[:8]
            for record in self._cross_records.values()
            if not record.executed
        )
