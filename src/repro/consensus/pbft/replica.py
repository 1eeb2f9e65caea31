"""PBFT replica: the intra-shard consensus engine every protocol builds on.

RingBFT is a *meta* protocol -- inside each shard it runs an ordinary
primary-backup BFT protocol, and the paper (like this reproduction) uses PBFT.
The replica implemented here provides:

* the three normal-case phases (PrePrepare -> Prepare -> Commit) over request
  batches, with out-of-order consensus but in-order execution;
* request batching at the primary;
* periodic checkpoints for log truncation and dark-replica catch-up;
* the PBFT view-change / new-view sub-protocol to replace a faulty primary;
* per-shard ledger, key-value store, and execution engine.

Subclasses (RingBFT, AHL, Sharper) override a small set of hooks --
:meth:`_should_sign_commit`, :meth:`_on_batch_committed`, and
:meth:`_accepts_client_request` -- to layer their cross-shard machinery on top
without touching the intra-shard core, and hand any batch they want ordered
locally to :meth:`_admit` rather than proposing it themselves.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Sequence

from repro.common import codec
from repro.common.batching import Batcher
from repro.common.crypto import KeyStore, MacAuthenticator, SignatureScheme
from repro.common.crypto import sha256
from repro.common.messages import (
    Checkpoint,
    ClientRequest,
    ClientResponse,
    Commit,
    NewView,
    PrePrepare,
    Prepare,
    PreparedProof,
    StateTransferReply,
    StateTransferRequest,
    Message,
    ViewChange,
    batch_digest,
    requests_digest,
)
from repro.common.types import ReplicaId
from repro.config import PipelineConfig, TimerConfig
from repro.consensus.directory import Directory
from repro.consensus.pbft.log import ConsensusLog, SlotState
from repro.consensus.pbft.pacing import ArrivalRateEstimator
from repro.sim.network import Network
from repro.sim.node import Node
from repro.storage.checkpoint import CheckpointStore
from repro.storage.executor import ExecutionEngine
from repro.storage.kvstore import KeyValueStore
from repro.storage.ledger import Ledger
from repro.storage.locks import LockManager
from repro.txn.transaction import Transaction

#: Delay after which a primary proposes a partially filled batch rather than
#: waiting for it to fill completely.
BATCH_FLUSH_DELAY = 0.05


class PbftReplica(Node):
    """One replica of one shard running PBFT."""

    def __init__(
        self,
        replica_id: ReplicaId,
        directory: Directory,
        network: Network,
        keystore: KeyStore,
        *,
        timers: TimerConfig | None = None,
        batch_size: int | None = None,
        initial_records: dict[str, str] | None = None,
    ) -> None:
        region = directory.region_of(replica_id.shard)
        super().__init__(replica_id, region, network)
        self.replica_id = replica_id
        self.shard_id = replica_id.shard
        self.directory = directory
        self.quorum = directory.quorum(self.shard_id)
        self.timers_config = timers or directory.config.timers
        self.keystore = keystore
        self.signer = SignatureScheme(keystore)
        self.mac = MacAuthenticator(owner=str(replica_id), keystore=keystore)
        self._signing_key = keystore.signing_key(str(replica_id))

        # Broadcast authentication (intra-shard MACs, Section 3) -----------
        #: Label under which this replica looks up its own tag in a received
        #: message's MAC vector.
        self.auth_label = f"peer:{replica_id}"
        self.auth_tags_created = 0
        self.auth_verifications = 0
        self.auth_rejections = 0

        # Consensus state -------------------------------------------------
        self.view = 0
        self.next_sequence = 1
        self.log = ConsensusLog()
        self.batcher = Batcher(batch_size or directory.config.workload.batch_size)
        #: Proposal pipelining (PBFT's multiple-sequences-in-flight window).
        #: depth=1 reproduces the classic propose-on-fill behaviour exactly.
        self.pipeline: PipelineConfig = (
            getattr(directory.config, "pipeline", None) or PipelineConfig()
        )
        #: Sequences this replica proposed that have not committed or been
        #: abandoned yet -- the occupied part of the proposal window.
        self._open_slots: set[int] = set()
        self.peak_open_slots = 0
        #: Batches waiting for a free window slot, in arrival order: everything
        #: that reaches :meth:`_admit` while the window is full.
        self._admission_queue: deque[tuple[ClientRequest, ...]] = deque()
        #: Offered-load estimate that picks the pump's batching rule.  Only
        #: fed on the depth>1 path, so depth=1 stays byte-identical.
        self.pacing = ArrivalRateEstimator()
        #: txn_id -> stage time at this primary, consumed at proposal time to
        #: derive the per-batch queue delay (time a request waited for its
        #: batch to open a slot).
        self._enqueue_times: dict[str, float] = {}
        self.queue_delay_total = 0.0
        self.proposed_batch_count = 0
        #: Requests proposed across all batches (includes forwarded
        #: cross-shard requests that never queued at this primary).
        self.proposed_txn_count = 0
        #: Requests with a recorded queue delay (staged at this primary).
        self.proposed_request_count = 0
        self.batches: dict[bytes, tuple[ClientRequest, ...]] = {}
        self.last_executed = 0
        self._pending_execution: dict[int, bytes] = {}
        self._ledger_pending: dict[int, bytes] = {}
        self._ledger_appended = 0
        self._pending_client_requests: dict[str, ClientRequest] = {}
        self._committed_sequences: set[int] = set()
        self._committed_txn_ids: set[str] = set()
        self._abandoned_sequences: set[int] = set()
        #: Transactions this replica (as primary) has already batched/proposed
        #: and that have not executed yet -- prevents client retransmissions
        #: from being ordered twice.
        self._enqueued_txns: set[str] = set()

        # View change state -------------------------------------------------
        self._view_change_votes: dict[int, dict[ReplicaId, ViewChange]] = {}
        self._view_change_target: int | None = None
        self.view_changes_completed = 0
        self._future_pre_prepares: list[PrePrepare] = []
        self._future_votes: list[Prepare | Commit] = []
        self._last_view_install_time = float("-inf")

        # Storage -----------------------------------------------------------
        self.store = KeyValueStore(self.shard_id)
        if initial_records:
            self.store.load(initial_records)
        self.executor = ExecutionEngine(self.shard_id, self.store)
        self.ledger = Ledger(self.shard_id)
        self.locks = LockManager(self.shard_id)
        self.checkpoints = CheckpointStore(self.timers_config.checkpoint_interval)

        # Lock-ordered continuations (shared by the sharded protocol subclasses).
        self._lock_continuations: dict[str, object] = {}

        # State transfer (dark-replica catch-up) ------------------------------
        self._state_transfer_in_flight = False
        self._state_replies: dict[bytes, dict[ReplicaId, StateTransferReply]] = {}
        self.state_transfers_completed = 0

        # Byzantine behaviour knobs used by the fault injector ---------------
        self.byzantine_silent = False
        self.dark_targets: set[ReplicaId] = set()

        # Metrics -------------------------------------------------------------
        self.executed_txn_count = 0
        self.committed_batch_count = 0

        # Garbage collection ---------------------------------------------------
        #: When True (default), a stable checkpoint truncates the consensus
        #: log, the batch payloads, and subclass-specific records below the
        #: safe watermark.  Disabled only by diagnostics (bench_steady_state
        #: measures the growth this prevents).
        self.gc_enabled = True
        self.gc_runs = 0
        self.gc_watermark = 0

    # ------------------------------------------------------------------
    # membership helpers
    # ------------------------------------------------------------------

    @property
    def shard_peers(self) -> tuple[ReplicaId, ...]:
        """All replicas of this shard (including self)."""
        return self.directory.replicas_of(self.shard_id)

    @property
    def primary(self) -> ReplicaId:
        """The primary of this shard in the replica's current view."""
        return self.directory.primary_of(self.shard_id, self.view)

    @property
    def is_primary(self) -> bool:
        return self.primary == self.replica_id

    def _broadcast_shard(self, message: Message, include_self: bool = True) -> None:
        """Broadcast to every replica of this shard, honouring dark-target attacks."""
        targets = [r for r in self.shard_peers if r not in self.dark_targets]
        self._authenticate_for_audience(message, [r for r in targets if r != self.replica_id])
        self.broadcast(targets, message, include_self=include_self)

    # ------------------------------------------------------------------
    # broadcast authentication (pairwise MAC vector, one payload resolve)
    # ------------------------------------------------------------------

    def _authenticate_for_audience(self, message: Message, peers: Sequence[ReplicaId]) -> None:
        """Attach the PBFT authenticator (per-peer MAC vector) for a broadcast.

        The key structure stays pairwise -- a shared audience key would let a
        Byzantine shard member forge the primary's messages -- so the fast
        path optimises the bytes *under* the tags: the memoised payload is
        resolved once and shared by all ``n`` HMACs, and retransmissions of
        the same object to the same peers mint no new tags.  In the
        benchmark-only legacy mode every tag re-serialises the payload, which
        reproduces the pre-codec cost profile.
        """
        if codec.LEGACY.enabled:
            for peer in peers:
                message.attach_auth(
                    f"peer:{peer}", self.mac.tag(str(peer), message.payload_bytes())
                )
            self.auth_tags_created += len(peers)
            return
        missing = [peer for peer in peers if message.auth_tag(f"peer:{peer}") is None]
        if not missing:
            return
        vector = self.mac.tag_vector([str(peer) for peer in missing], message.payload_bytes())
        for peer in missing:
            message.attach_auth(f"peer:{peer}", vector[str(peer)])
        self.auth_tags_created += len(missing)

    def _authenticate_cross_shard_broadcast(self, message: Message, shards: Iterable[int]) -> None:
        """Authenticate a broadcast spanning several shards (AHL's 2PC and
        Sharper's global rounds fan one message out to every replica of every
        involved shard): one pairwise tag per receiving replica, all over the
        same memoised payload."""
        peers = [
            r
            for shard in sorted(shards)
            for r in self.directory.replicas_of(shard)
            if r != self.replica_id
        ]
        self._authenticate_for_audience(message, peers)

    #: Message types that are always sent with a MAC vector and therefore
    #: MUST carry a valid tag for the receiver -- a sender cannot opt out of
    #: authentication by omitting the tag.  State transfer is included: its
    #: f+1 agreement counts *distinct senders*, which only means anything if
    #: the sender fields are authenticated.  Every other type is covered by
    #: its own mechanism (client signatures on requests, subclass-specific
    #: certificates) or is client traffic; subclasses extend this set with
    #: their own always-tagged broadcast types.
    _MAC_REQUIRED_TYPES = (
        PrePrepare,
        Prepare,
        Commit,
        Checkpoint,
        ViewChange,
        NewView,
        StateTransferRequest,
        StateTransferReply,
    )

    def _verify_broadcast_auth(self, message: Message) -> bool:
        """Check the MAC vector riding on a delivered message.

        The receiver verifies *its own* pairwise tag against the claimed
        sender's key -- one HMAC over the memoised payload.  The verdict is
        never cached on the shared object, so no other receiver (honest or
        Byzantine) can vouch for it.  The sender field earns no trust here --
        a received message claiming *this* replica as sender is checked like
        any other (genuine loopbacks bypass the gate via
        :meth:`deliver_loopback` and never reach it).
        """
        tag = message.auth_tag(self.auth_label)
        if tag is None:
            if isinstance(message, self._MAC_REQUIRED_TYPES):
                self.auth_rejections += 1
                return False
            return True
        ok = self.mac.verify(str(message.sender), message.payload_bytes(), tag)
        self.auth_verifications += 1
        if not ok:
            self.auth_rejections += 1
        return ok

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def on_message(self, message: Message) -> None:
        if not self._verify_broadcast_auth(message):
            return
        self._dispatch(message)

    def deliver_loopback(self, message: Message) -> None:
        """This replica's own broadcast looping back: no network hop, no MAC
        gate (the gate would otherwise reject it -- a sender does not tag
        itself, and a *received* message naming us as sender is spoofable)."""
        if self.crashed:
            return
        self._dispatch(message)

    def _dispatch(self, message: Message) -> None:
        if isinstance(message, ClientRequest):
            self._handle_client_request(message)
        elif isinstance(message, PrePrepare):
            self._handle_pre_prepare(message)
        elif isinstance(message, Prepare):
            self._handle_prepare(message)
        elif isinstance(message, Commit):
            self._handle_commit(message)
        elif isinstance(message, Checkpoint):
            self._handle_checkpoint(message)
        elif isinstance(message, ViewChange):
            self._handle_view_change(message)
        elif isinstance(message, NewView):
            self._handle_new_view(message)
        elif isinstance(message, StateTransferRequest):
            self._handle_state_request(message)
        elif isinstance(message, StateTransferReply):
            self._handle_state_reply(message)
        else:
            self._handle_protocol_message(message)

    def _handle_protocol_message(self, message: Message) -> None:
        """Hook for subclass-specific messages (Forward, Execute, 2PC votes, ...)."""

    # ------------------------------------------------------------------
    # client requests and batching
    # ------------------------------------------------------------------

    def _accepts_client_request(self, request: ClientRequest) -> bool:
        """Whether this shard should order ``request``.

        The base (fully intra-shard) protocol accepts any request touching
        this shard; RingBFT narrows this to requests for which this shard is
        first in ring order.
        """
        return self.shard_id in request.transaction.involved_shards

    def _handle_client_request(self, request: ClientRequest) -> None:
        txn = request.transaction
        if self.executor.already_executed(txn.txn_id):
            # Retransmission of an executed request: reply with the stored result.
            self._reply_to_client(request, self._sequence_of_txn(txn.txn_id))
            return
        if txn.txn_id in self._committed_txn_ids:
            # Already ordered locally; it executes (and is answered) as soon as
            # earlier transactions release their locks.  Re-ordering it would
            # both duplicate work and needlessly trigger view changes.
            return
        if not self._accepts_client_request(request):
            self._redirect_client_request(request)
            return
        self._pending_client_requests[txn.txn_id] = request
        if self.is_primary:
            if self.byzantine_silent:
                return
            self._enqueue_for_proposal(request)
        else:
            # A non-primary replica relays the request to its primary and
            # expects consensus to start before its local timer fires (A1).
            self.send(self.primary, request)
            self._start_request_timer(txn.txn_id)

    def _redirect_client_request(self, request: ClientRequest) -> None:
        """Hook: base protocol drops requests for other shards."""

    def _enqueue_for_proposal(self, request: ClientRequest, *, fresh: bool = True) -> None:
        txn_id = request.transaction.txn_id
        if (
            txn_id in self._enqueued_txns
            or txn_id in self._committed_txn_ids
            or self.executor.already_executed(txn_id)
        ):
            # Retransmission of a transaction that is already being ordered,
            # already ordered (committed but not yet executed), or finished.
            # The committed check matters after a view change: a new primary
            # that lagged behind the old view's commits re-stages its pending
            # backlog, and ordering an already-committed transaction a second
            # time would duplicate it in the chain.
            return
        self._enqueued_txns.add(txn_id)
        self._enqueue_times[txn_id] = self.now
        if self.pipeline.depth <= 1:
            # Classic propose-on-fill: one batch in flight per fill/flush.
            batch = self.batcher.add(request)
            if batch is not None:
                self._propose(tuple(batch))
            elif not self.has_timer("batch-flush"):
                self.set_timer("batch-flush", BATCH_FLUSH_DELAY, self._flush_batches)
            return
        if fresh:
            # Re-staged requests (a new primary resubmitting the old view's
            # backlog) are not offered load: thousands of same-instant
            # zero gaps would collapse the interarrival EWMA and pin the
            # rate estimate at infinity for the rest of the run.
            self.pacing.note_arrival(self.now)
        self.batcher.stage(request)
        self._pump_pipeline("arrival")

    def _flush_batches(self) -> None:
        if self.pipeline.depth <= 1:
            for batch in self.batcher.flush():
                self._propose(tuple(batch))
            return
        self._pump_pipeline("flush")

    # ------------------------------------------------------------------
    # pipelined proposal window (depth > 1)
    # ------------------------------------------------------------------

    def _admit(self, batch: tuple[ClientRequest, ...]) -> None:
        """The admission point for every batch that bypasses the batcher.

        Forward-quorum batches, new-view resubmissions and AHL's 2PC batches
        arrive ready-made; they take a window slot like any client batch, so
        ``len(_open_slots) <= depth`` holds whoever proposes.  A full window
        queues the batch, and :meth:`_pump_pipeline` serves that queue before
        the batcher: a queued batch already holds locks or votes elsewhere.
        Only a primary proposes; depth=1 keeps its classic direct proposal.
        A batch this primary is already ordering is dropped: a NewView
        re-proposes prepared batches and marks them enqueued before the
        subclasses re-drive their stalled records, and the re-proposal has
        not committed yet, so :meth:`_propose`'s committed filter cannot see it.
        """
        if not self.is_primary or self.byzantine_silent:
            return
        if any(request.transaction.txn_id in self._enqueued_txns for request in batch):
            return
        if self.pipeline.depth <= 1 or len(self._open_slots) < self.pipeline.depth:
            self._propose(batch)
        else:
            self._admission_queue.append(batch)

    def _max_adaptive_batch(self) -> int:
        return self.pipeline.max_batch_size or self.batcher.batch_size

    def _pump_pipeline(self, reason: str) -> None:
        """Fill free window slots: queued admissions first, then the batcher.

        ``reason`` names the triggering event: ``"arrival"`` (a request was
        staged), ``"slot"`` (the window changed) or ``"flush"`` (the
        queue-delay timer fired).  A group holding a full ``max_batch`` always
        ships.  A partial batch ships when waiting cannot fill it:

        * the flush timer fired -- the bound on how long a request may wait;
        * arrivals are too slow to fill a batch inside that bound
          (:meth:`ArrivalRateEstimator.fills_within` false), so holding buys
          nothing: ship when the window is idle, and while a round is in
          flight let it act as the batching clock (ship when its slot
          closes).

        Under sustained load only full batches and timer flushes go out, so
        freeing slots at local commit cannot shred the queue into crumbs.
        """
        if not self.is_primary:
            # A demoted primary's flush timer: its staged requests are the
            # new primary's to order (they were resubmitted to it).
            return
        depth = self.pipeline.depth
        while self._admission_queue and len(self._open_slots) < depth:
            self._propose(self._admission_queue.popleft())
        batcher = self.batcher
        max_batch = self._max_adaptive_batch()
        sustained = self.pacing.fills_within(max_batch, self.pipeline.target_queue_delay)
        while batcher.pending and len(self._open_slots) < depth:
            batch = batcher.take_full(max_batch)
            if batch is None and (
                reason == "flush"
                or (
                    not sustained
                    and batcher.pending >= self.pipeline.min_batch_size
                    and (reason == "slot" or not self._open_slots)
                )
            ):
                # Fewest even chunks within max_batch: a deep queue never
                # leaves as one-request crumbs.
                size = Batcher.even_split(batcher.pending, max_batch)[0]
                batch = batcher.take(max(size, self.pipeline.min_batch_size))
            if batch is None:
                break
            self._propose(tuple(batch))
        if batcher.pending and not self.has_timer("batch-flush"):
            self.set_timer(
                "batch-flush", self.pipeline.target_queue_delay, self._flush_batches
            )

    def _record_proposed_batch(self, sequence: int, batch: tuple[ClientRequest, ...]) -> None:
        """Track window occupancy and queue delay for a freshly proposed batch."""
        self._open_slots.add(sequence)
        if len(self._open_slots) > self.peak_open_slots:
            self.peak_open_slots = len(self._open_slots)
        self.proposed_batch_count += 1
        self.proposed_txn_count += len(batch)
        now = self.now
        for request in batch:
            staged_at = self._enqueue_times.pop(request.transaction.txn_id, None)
            if staged_at is not None:
                self.queue_delay_total += now - staged_at
                self.proposed_request_count += 1

    def _close_slot(self, sequence: int) -> None:
        """A slot left the window (committed or abandoned): refill it."""
        if sequence in self._open_slots:
            self._open_slots.discard(sequence)
            if self.pipeline.depth > 1:
                self._pump_pipeline("slot")

    @property
    def open_slot_count(self) -> int:
        """Number of this replica's proposals currently in flight."""
        return len(self._open_slots)

    @property
    def avg_queue_delay(self) -> float:
        """Mean time a request waited at this primary before being proposed."""
        if not self.proposed_request_count:
            return 0.0
        return self.queue_delay_total / self.proposed_request_count

    def _local_timeout(self) -> float:
        """Local timeout with exponential backoff over successive views.

        PBFT doubles its view-change timer each view so that a burst of
        timeouts during recovery does not cascade into further view changes.
        """
        return self.timers_config.local_timeout * (2 ** min(self.view, 4))

    def _start_request_timer(self, txn_id: str) -> None:
        armed_view = self.view
        self.set_timer(
            f"request-{txn_id}",
            self._local_timeout(),
            lambda: self._on_request_timeout(txn_id, armed_view),
        )

    def _on_request_timeout(self, txn_id: str, armed_view: int) -> None:
        if txn_id not in self._pending_client_requests:
            return
        if armed_view != self.view:
            # A view change already happened; give the new primary a fresh timeout.
            self._start_request_timer(txn_id)
            return
        self._initiate_view_change()

    # ------------------------------------------------------------------
    # normal-case phases
    # ------------------------------------------------------------------

    def _propose(self, batch: tuple[ClientRequest, ...]) -> None:
        """Primary-only: assign a sequence number and broadcast a PrePrepare."""
        # Last-line exactly-once guard: a request staged before a view change
        # can commit (via the new view's re-proposals) while it still sits in
        # the batcher queue.  Healthy runs never hit this filter, so the
        # proposal stream -- and the depth=1 chain identity -- is unchanged.
        batch = tuple(
            request
            for request in batch
            if request.transaction.txn_id not in self._committed_txn_ids
            and not self.executor.already_executed(request.transaction.txn_id)
        )
        if not batch:
            return
        digest = batch_digest(batch)
        sequence = self.next_sequence
        self.next_sequence += 1
        self._record_proposed_batch(sequence, batch)
        message = PrePrepare(
            sender=self.replica_id,
            view=self.view,
            sequence=sequence,
            batch_digest=digest,
            requests=batch,
        )
        self._broadcast_shard(message)

    def _handle_pre_prepare(self, message: PrePrepare) -> None:
        if message.view > self.view:
            # Proposal from a view we have not installed yet (the NewView is
            # still in flight); buffer it and replay once the view installs.
            self._future_pre_prepares.append(message)
            return
        if message.view != self.view:
            return
        if message.sender != self.directory.primary_of(self.shard_id, message.view):
            return
        if requests_digest(message) != message.batch_digest:
            return
        if self.log.has_accepted(message.view, message.sequence):
            if self.log.accepted_digest(message.view, message.sequence) != message.batch_digest:
                # Equivocating primary: refuse the second proposal.
                return
        self.log.accept(message.view, message.sequence, message.batch_digest)
        slot = self.log.slot(message.view, message.sequence)
        slot.record_pre_prepare(message)
        self.batches[message.batch_digest] = message.requests
        self._start_slot_timer(message.sequence)
        prepare = Prepare(
            sender=self.replica_id,
            view=message.view,
            sequence=message.sequence,
            batch_digest=message.batch_digest,
        )
        self._broadcast_shard(prepare)
        self._check_prepared(message.view, message.sequence, message.batch_digest)

    def _start_slot_timer(self, sequence: int) -> None:
        armed_view = self.view
        self.set_timer(
            f"slot-{sequence}",
            self._local_timeout(),
            lambda: self._on_slot_timeout(sequence, armed_view),
        )

    def _on_slot_timeout(self, sequence: int, armed_view: int) -> None:
        if sequence in self._committed_sequences or sequence in self._abandoned_sequences:
            return
        if armed_view != self.view:
            # The slot belongs to an old view; the new view's re-proposals or
            # abandonments supersede it.
            return
        self._initiate_view_change()

    def _handle_prepare(self, message: Prepare) -> None:
        if message.view > self.view:
            # Vote from a view whose NewView has not reached us yet: replicas
            # install a new view at slightly different times, so early votes
            # must be buffered rather than lost (they are replayed on install).
            self._future_votes.append(message)
            return
        if message.view != self.view:
            return
        slot = self.log.slot(message.view, message.sequence)
        slot.record_prepare(message)
        self._check_prepared(message.view, message.sequence, message.batch_digest)

    def _check_prepared(self, view: int, sequence: int, digest: bytes) -> None:
        slot = self.log.slot(view, sequence)
        if slot.state not in (SlotState.PRE_PREPARED, SlotState.EMPTY):
            return
        if not self.log.is_prepared(view, sequence, digest, self.quorum.commit_quorum):
            return
        self.log.mark(view, sequence, SlotState.PREPARED)
        commit = self._make_commit(view, sequence, digest)
        self._broadcast_shard(commit)
        self._check_committed(view, sequence, digest)

    def _make_commit(self, view: int, sequence: int, digest: bytes) -> Commit:
        commit = Commit(sender=self.replica_id, view=view, sequence=sequence, batch_digest=digest)
        if self._should_sign_commit(digest):
            signature = self.signer.sign(str(self.replica_id), commit.signed_payload(), self._signing_key)
            commit = Commit(
                sender=self.replica_id,
                view=view,
                sequence=sequence,
                batch_digest=digest,
                signature=signature,
            )
        return commit

    def _should_sign_commit(self, digest: bytes) -> bool:
        """Whether Commit votes for this batch need digital signatures.

        The base protocol never needs non-repudiation; RingBFT signs commits
        of cross-shard batches so the next shard can verify the certificate.
        """
        return False

    def _handle_commit(self, message: Commit) -> None:
        if message.view > self.view:
            self._future_votes.append(message)
            return
        if message.view != self.view:
            return
        slot = self.log.slot(message.view, message.sequence)
        slot.record_commit(message)
        self._check_committed(message.view, message.sequence, message.batch_digest)

    def _check_committed(self, view: int, sequence: int, digest: bytes) -> None:
        slot = self.log.slot(view, sequence)
        if slot.state in (SlotState.COMMITTED, SlotState.EXECUTED):
            return
        if sequence in self._committed_sequences:
            # Already committed under an earlier view (re-proposal after a view change).
            return
        if not self.log.is_committed(view, sequence, digest, self.quorum.commit_quorum):
            return
        self.log.mark(view, sequence, SlotState.COMMITTED)
        self._committed_sequences.add(sequence)
        self.committed_batch_count += 1
        self.cancel_timer(f"slot-{sequence}")
        batch = self.batches.get(digest, ())
        for request in batch:
            self._committed_txn_ids.add(request.transaction.txn_id)
            self._pending_client_requests.pop(request.transaction.txn_id, None)
            self.cancel_timer(f"request-{request.transaction.txn_id}")
        self._ledger_pending[sequence] = digest
        self._drain_ledger()
        self._close_slot(sequence)
        self._on_batch_committed(view, sequence, digest, batch)

    def _drain_ledger(self) -> None:
        """Append committed batches to the ledger strictly in sequence order.

        The block order therefore reflects the shard's commit order (the
        paper's "each k-th block represents a batch committed at sequence
        k") and is identical on every replica, independent of when the
        batches finish executing.
        """
        while True:
            sequence = self._ledger_appended + 1
            if sequence in self._ledger_pending:
                digest = self._ledger_pending.pop(sequence)
                batch = self.batches.get(digest, ())
                transactions = [request.transaction for request in batch]
                if transactions:
                    self.ledger.append_batch(sequence, str(self.primary), transactions)
                self._ledger_appended = sequence
                continue
            if sequence in self._abandoned_sequences:
                self._ledger_appended = sequence
                continue
            break

    # ------------------------------------------------------------------
    # execution (in sequence order)
    # ------------------------------------------------------------------

    def _on_batch_committed(
        self, view: int, sequence: int, digest: bytes, batch: tuple[ClientRequest, ...]
    ) -> None:
        """Base behaviour: queue the batch and execute strictly in sequence order."""
        self._pending_execution[sequence] = digest
        self._execute_ready_batches()

    def _execute_ready_batches(self) -> None:
        while True:
            sequence = self.last_executed + 1
            if sequence in self._pending_execution:
                digest = self._pending_execution.pop(sequence)
                batch = self.batches.get(digest, ())
                self._execute_batch(sequence, digest, batch)
                self.last_executed = sequence
                continue
            if sequence in self._abandoned_sequences:
                # A view change declared this sequence a no-op; skip the gap.
                self.last_executed = sequence
                continue
            break

    def _execute_batch(
        self,
        sequence: int,
        digest: bytes,
        batch: tuple[ClientRequest, ...],
        remote_values: dict[int, dict[str, str]] | None = None,
    ) -> None:
        """Execute every transaction in the batch, append the block, reply to clients."""
        transactions = [request.transaction for request in batch]
        if not transactions:
            return
        self.executor.execute_batch(transactions, remote_values)
        self.executed_txn_count += len(transactions)
        self.log.mark(self.view, sequence, SlotState.EXECUTED)
        for request in batch:
            self._reply_to_client(request, sequence)
        self._maybe_checkpoint(sequence, tuple(transactions))

    def _reply_to_client(self, request: ClientRequest, sequence: int) -> None:
        txn = request.transaction
        if self.executor.already_executed(txn.txn_id):
            result = dict(self.executor.result_for(txn.txn_id).writes)
        else:
            result = {}
        response = ClientResponse(
            sender=self.replica_id,
            txn_id=txn.txn_id,
            sequence=sequence,
            result=result,
            shard=self.shard_id,
            view=self.view,
        )
        self.send(request.transaction.client_id, response)

    def _sequence_of_txn(self, txn_id: str) -> int:
        # O(1) via the ledger's txn index (retransmitted client requests used
        # to trigger a linear scan over every block ever committed).
        return self.ledger.sequence_of(txn_id)

    # ------------------------------------------------------------------
    # sequence-ordered locking helpers (used by RingBFT, AHL, Sharper)
    # ------------------------------------------------------------------

    def _lock_keys_for(self, batch: tuple[ClientRequest, ...]) -> frozenset[str]:
        """All data items this shard must lock for a batch (reads, writes, local deps)."""
        keys: set[str] = set()
        for request in batch:
            txn = request.transaction
            keys.update(txn.keys_for(self.shard_id))
            for op in txn.operations:
                keys.update(key for shard, key in op.depends_on if shard == self.shard_id)
        return frozenset(keys)

    def _acquire_locks_then(
        self,
        sequence: int,
        digest: bytes,
        batch: tuple[ClientRequest, ...],
        continuation: Callable[[], None],
    ) -> None:
        """Acquire the batch's locks in sequence order, then run ``continuation``.

        The continuation runs immediately when the locks are granted, or later
        when earlier transactions release them (the pending-list ``pi``
        behaviour of Section 4.3.5).
        """
        token = digest.hex()
        self._lock_continuations[token] = continuation
        acquired, unblocked = self.locks.try_lock(sequence, token, self._lock_keys_for(batch))
        if acquired:
            self._run_lock_continuation(token)
        for other in unblocked:
            self._run_lock_continuation(other)

    def _run_lock_continuation(self, token: str) -> None:
        continuation = self._lock_continuations.pop(token, None)
        if continuation is not None:
            continuation()

    def _release_lock_token(self, token: str) -> None:
        """Release a batch's locks and resume any transactions they unblocked."""
        if not self.locks.holds(token):
            return
        for unblocked in self.locks.release(token):
            self._run_lock_continuation(unblocked)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def _maybe_checkpoint(self, sequence: int, transactions: tuple[Transaction, ...]) -> None:
        self.checkpoints.record_batch(sequence, transactions)
        if not self.checkpoints.should_checkpoint(sequence):
            return
        # The rolling root re-digests only buckets touched since the last
        # checkpoint; the O(n) snapshot_digest_input() canonicalization was
        # the dominant per-interval cost at paper-scale partitions.
        digest = self.checkpoints.state_digest(self.store.state_root(), sequence)
        message = Checkpoint(sender=self.replica_id, sequence=sequence, state_digest=digest)
        self._broadcast_shard(message)

    def _handle_checkpoint(self, message: Checkpoint) -> None:
        became_stable = self.checkpoints.add_vote(
            message.sequence,
            str(message.sender),
            self.quorum.commit_quorum,
            message.state_digest,
            # f + 1 backers guarantee at least one correct replica vouches for
            # the digest stamped into the stable record.
            digest_quorum=self.quorum.weak_quorum,
        )
        if became_stable:
            self._on_stable_checkpoint(message.sequence)
        # A replica kept in the dark (attack A3) sees its peers' checkpoints
        # race ahead of its own execution point; it catches up by adopting a
        # quorum-confirmed state snapshot rather than replaying every batch.
        if message.sequence >= self.last_executed + 2 * self.checkpoints.interval:
            self._request_state_transfer()

    # ------------------------------------------------------------------
    # garbage collection (checkpoint-driven log truncation)
    # ------------------------------------------------------------------

    def _on_stable_checkpoint(self, sequence: int) -> None:
        """A checkpoint became stable: truncate everything below the safe watermark."""
        if not self.gc_enabled:
            return
        watermark = self._gc_floor(sequence)
        if watermark <= 0:
            return
        self._truncate_below(watermark)
        self.gc_watermark = max(self.gc_watermark, watermark)
        self.gc_runs += 1

    def _gc_floor(self, stable_sequence: int) -> int:
        """Highest sequence this replica may safely truncate.

        Never beyond the stable checkpoint (view changes restart from it),
        never beyond this replica's own execution and ledger progress (a dark
        replica must keep the evidence it has not applied yet -- it catches up
        via state transfer, after which :meth:`_install_state` re-runs GC).
        Never at or above an open proposal slot: an uncommitted in-flight
        sequence still needs its consensus evidence (the window makes gaps
        below ``next_sequence`` normal, so this is stated explicitly rather
        than relying on open slots trailing ``last_executed``).  Subclasses
        lower the floor further for in-flight cross-shard work.
        """
        floor = min(stable_sequence, self.last_executed, self._ledger_appended)
        if self._open_slots:
            floor = min(floor, min(self._open_slots) - 1)
        return floor

    def _truncate_below(self, watermark: int) -> None:
        releasable = self.log.truncate_below(watermark)
        # A digest may still be awaiting in-order execution or ledger append
        # (RingBFT executes out of band); those payloads must survive.
        still_needed = set(self._pending_execution.values()) | set(self._ledger_pending.values())
        for digest in releasable - still_needed:
            self.batches.pop(digest, None)
        self._committed_sequences = {s for s in self._committed_sequences if s > watermark}
        self._abandoned_sequences = {s for s in self._abandoned_sequences if s > watermark}
        # Executed transactions answer retransmissions through the executor's
        # result store, so their dedup entries here are redundant.
        self._committed_txn_ids = {
            txn_id
            for txn_id in self._committed_txn_ids
            if not self.executor.already_executed(txn_id)
        }
        self._enqueued_txns = {
            txn_id
            for txn_id in self._enqueued_txns
            if not self.executor.already_executed(txn_id)
        }
        for txn_id in [t for t in self._enqueue_times if t not in self._enqueued_txns]:
            del self._enqueue_times[txn_id]

    def retained_state(self) -> dict[str, int]:
        """Gauges of retained consensus state; flat in steady state once GC runs."""
        return {
            "open_slots": len(self._open_slots),
            "log_slots": self.log.slot_count,
            "batches": len(self.batches),
            "pending_execution": len(self._pending_execution),
            "ledger_pending": len(self._ledger_pending),
            "committed_sequences": len(self._committed_sequences),
            "committed_txn_ids": len(self._committed_txn_ids),
            "checkpoint_batches": self.checkpoints.log_size,
            "stable_checkpoints": self.checkpoints.stable_record_count,
            "checkpoint_votes": self.checkpoints.pending_vote_count,
            "locked_keys": self.locks.locked_key_count,
            "lock_pending": len(self.locks.pending_sequences),
        }

    # ------------------------------------------------------------------
    # state transfer (dark-replica / recovered-replica catch-up)
    # ------------------------------------------------------------------

    def _request_state_transfer(self) -> None:
        if self._state_transfer_in_flight:
            return
        self._state_transfer_in_flight = True
        self._state_replies = {}
        request = StateTransferRequest(sender=self.replica_id, last_executed=self.last_executed)
        peers = [r for r in self.shard_peers if r != self.replica_id]
        self._authenticate_for_audience(request, peers)
        self.broadcast(peers, request)
        # Allow another attempt later if this one never completes.
        self.set_timer(
            "state-transfer",
            self.timers_config.remote_timeout,
            self._reset_state_transfer,
        )

    def _reset_state_transfer(self) -> None:
        self._state_transfer_in_flight = False
        self._state_replies = {}

    def _state_snapshot_digest(self, snapshot: dict[str, str], last_executed: int) -> bytes:
        canonical = "|".join(f"{k}={v}" for k, v in sorted(snapshot.items()))
        return sha256(canonical.encode() + last_executed.to_bytes(8, "big"))

    def _handle_state_request(self, message: StateTransferRequest) -> None:
        if message.last_executed >= self.last_executed:
            return  # the requester is not behind us; nothing useful to send
        snapshot = self.store.items()
        reply = StateTransferReply(
            sender=self.replica_id,
            last_executed=self.last_executed,
            state_digest=self._state_snapshot_digest(snapshot, self.last_executed),
            store_snapshot=snapshot,
            executed_txn_ids=self.executor.executed_txn_ids(),
            blocks=self.ledger.blocks()[1:],
        )
        self._authenticate_for_audience(reply, [message.sender])
        self.send(message.sender, reply)

    def _handle_state_reply(self, message: StateTransferReply) -> None:
        if not self._state_transfer_in_flight:
            return
        if message.last_executed <= self.last_executed:
            return
        replies = self._state_replies.setdefault(message.state_digest, {})
        replies[message.sender] = message
        if len(replies) < self.quorum.weak_quorum:
            return
        # f + 1 peers vouch for the same state: at least one of them is
        # non-faulty, so the snapshot is safe to install.
        self._install_state(next(iter(replies.values())))

    def _install_state(self, reply: StateTransferReply) -> None:
        self.cancel_timer("state-transfer")
        self._state_transfer_in_flight = False
        self._state_replies = {}
        self.store.replace(dict(reply.store_snapshot))
        self.executor.mark_executed(reply.executed_txn_ids)
        self.ledger.adopt_blocks(tuple(reply.blocks))
        self.last_executed = max(self.last_executed, reply.last_executed)
        self._ledger_appended = max(self._ledger_appended, self.ledger.head.sequence)
        self._committed_txn_ids.update(reply.executed_txn_ids)
        for sequence in [s for s in self._pending_execution if s <= reply.last_executed]:
            del self._pending_execution[sequence]
        for unblocked in self.locks.fast_forward(reply.last_executed):
            self._run_lock_continuation(unblocked)
        self.state_transfers_completed += 1
        # The adopted snapshot covers everything up to the stable point: the
        # evidence this replica buffered while it lagged can now be released.
        self._on_stable_checkpoint(self.checkpoints.last_stable_sequence)

    # ------------------------------------------------------------------
    # view change
    # ------------------------------------------------------------------

    def _initiate_view_change(self) -> None:
        if self.now - self._last_view_install_time < self._local_timeout():
            # A new view was installed moments ago; give its primary a full
            # timeout period before escalating again (prevents view-change
            # cascades while the backlog from the previous view drains).
            return
        target = self.view + 1
        self._send_view_change(target)

    def _send_view_change(self, target: int) -> None:
        if self._view_change_target is not None and self._view_change_target >= target:
            return
        self._view_change_target = target
        prepared = tuple(
            PreparedProof(
                sequence=seq,
                view=view,
                batch_digest=digest,
                prepares=self.quorum.commit_quorum,
                requests=self.batches.get(digest, ()),
            )
            for view, seq, digest in self.log.prepared_sequences(self.quorum.commit_quorum)
        )
        message = ViewChange(
            sender=self.replica_id,
            new_view=target,
            last_stable_sequence=self.checkpoints.last_stable_sequence,
            prepared=prepared,
        )
        self._broadcast_shard(message)

    def _handle_view_change(self, message: ViewChange) -> None:
        if message.new_view <= self.view:
            return
        votes = self._view_change_votes.setdefault(message.new_view, {})
        votes[message.sender] = message
        # Join a view change supported by at least one non-faulty replica.
        if (
            len(votes) >= self.quorum.weak_quorum
            and (self._view_change_target or 0) < message.new_view
        ):
            self._send_view_change(message.new_view)
        new_primary = self.directory.primary_of(self.shard_id, message.new_view)
        if new_primary == self.replica_id and len(votes) >= self.quorum.view_change_quorum:
            self._install_new_view_as_primary(message.new_view, votes)

    def _install_new_view_as_primary(
        self, new_view: int, votes: dict[ReplicaId, ViewChange]
    ) -> None:
        if self.view >= new_view:
            return
        reproposals, abandoned = self._build_reproposals(new_view, votes)
        message = NewView(
            sender=self.replica_id,
            view=new_view,
            view_change_senders=tuple(str(r) for r in votes),
            reproposals=reproposals,
            abandoned=abandoned,
        )
        self._broadcast_shard(message)

    def _build_reproposals(
        self, new_view: int, votes: dict[ReplicaId, ViewChange]
    ) -> tuple[tuple[PrePrepare, ...], tuple[int, ...]]:
        """Re-propose every prepared request from the votes; abandon the gaps.

        Returns ``(reproposals, abandoned)`` where ``abandoned`` lists the
        sequence numbers below the highest known sequence for which no
        prepared certificate exists -- they are filled with no-ops so that
        in-order execution and sequence-ordered locking never stall.
        """
        prepared: dict[int, tuple[bytes, tuple[ClientRequest, ...]]] = {}
        stable = self.checkpoints.last_stable_sequence
        for vote in votes.values():
            stable = max(stable, vote.last_stable_sequence)
            for proof in vote.prepared:
                requests = proof.requests or self.batches.get(proof.batch_digest, ())
                prepared.setdefault(proof.sequence, (proof.batch_digest, requests))
        highest = max(
            [self.log.highest_sequence(), self.next_sequence - 1, *prepared.keys()], default=0
        )
        reproposals = []
        for sequence, (digest, requests) in sorted(prepared.items()):
            if sequence <= stable or not requests:
                continue
            reproposals.append(
                PrePrepare(
                    sender=self.replica_id,
                    view=new_view,
                    sequence=sequence,
                    batch_digest=digest,
                    requests=tuple(requests),
                )
            )
        abandoned = tuple(
            sequence
            for sequence in range(stable + 1, highest + 1)
            if sequence not in prepared
        )
        return tuple(reproposals), abandoned

    def _handle_new_view(self, message: NewView) -> None:
        if message.view <= self.view:
            return
        if message.sender != self.directory.primary_of(self.shard_id, message.view):
            return
        self.view = message.view
        self._view_change_target = None
        self._view_change_votes = {
            v: votes for v, votes in self._view_change_votes.items() if v > message.view
        }
        self.view_changes_completed += 1
        self._last_view_install_time = self.now
        # The old view's proposal window is void: every in-flight sequence is
        # either re-proposed below (prepared certificate survived) or
        # abandoned as a no-op, so the window restarts empty in the new view.
        # Batches queued for a slot go with it: the old primary is demoted,
        # and the new one re-drives them in _resubmit_pending_requests.
        self._open_slots.clear()
        self._admission_queue.clear()
        highest = max(
            [p.sequence for p in message.reproposals]
            + [s for s in message.abandoned]
            + [self.log.highest_sequence()],
            default=0,
        )
        if self.is_primary:
            self.next_sequence = max(self.next_sequence, highest + 1)
        if self.is_primary:
            # The re-proposed requests are already being ordered in this
            # view; without this the pending-backlog re-staging below would
            # order them a second time at a fresh sequence (the re-proposal
            # has not committed yet, so the committed-set guard cannot see
            # them).
            self._enqueued_txns.update(
                request.transaction.txn_id
                for reproposal in message.reproposals
                for request in reproposal.requests
            )
        for sequence in message.abandoned:
            self._abandon_sequence(sequence)
        for reproposal in message.reproposals:
            self._handle_pre_prepare(reproposal)
        # Replay proposals and votes from this view that raced ahead of the NewView.
        buffered, self._future_pre_prepares = self._future_pre_prepares, []
        for pre_prepare in buffered:
            self._handle_pre_prepare(pre_prepare)
        votes, self._future_votes = self._future_votes, []
        for vote in votes:
            if isinstance(vote, Prepare):
                self._handle_prepare(vote)
            else:
                self._handle_commit(vote)
        self._resubmit_pending_requests()

    def _abandon_sequence(self, sequence: int) -> None:
        """Treat ``sequence`` as a committed no-op (view-change gap fill)."""
        if sequence in self._committed_sequences or sequence <= self.last_executed:
            return
        self.cancel_timer(f"slot-{sequence}")
        self._abandoned_sequences.add(sequence)
        self._close_slot(sequence)
        self._execute_ready_batches()
        self._drain_ledger()
        for unblocked in self.locks.skip_sequence(sequence):
            self._run_lock_continuation(unblocked)

    def _resubmit_pending_requests(self) -> None:
        """After a view change, push uncommitted client requests to the new primary."""
        for request in list(self._pending_client_requests.values()):
            if self.is_primary:
                if not self.byzantine_silent:
                    self._enqueue_for_proposal(request, fresh=False)
            else:
                self.send(self.primary, request)
                self._start_request_timer(request.transaction.txn_id)
