"""Client node: submits transactions and waits for ``f + 1`` replies.

A replica answers once per client per committed batch; the reply lists the
client's transactions of that batch, and each completes on ``f + 1`` replies
from distinct replicas.

Clients sign their requests (non-repudiation, attack A1 in the paper), send
them to the primary of the first involved shard in ring order, and start a
timer.  If the timer fires before ``f + 1`` responses arrive, the client
broadcasts the request to *every* replica of that shard, which forces either a
reply (already executed) or a view change (primary withholding the request).

Every reply carries the replying replica's view.  Per shard, the client keeps
the highest view each replica of that shard has claimed and addresses the
primary of the ``(f + 1)``-th highest claim: at least one correct replica has
reached that view, so ``f`` forged claims cannot raise it.  The learned view is
only a routing hint -- a wrong one costs a backup's relay or one timeout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.common import codec
from repro.common.crypto import KeyStore, SignatureScheme
from repro.common.messages import ClientRequest, ClientResponse, Message
from repro.common.quorum import Tally
from repro.common.types import ReplicaId
from repro.config import TimerConfig
from repro.consensus.directory import Directory
from repro.netem.fabric import LinkFabric
from repro.sim.node import Node
from repro.txn.transaction import Transaction


@dataclass
class CompletedTransaction:
    """Latency record for one completed transaction."""

    txn_id: str
    submitted_at: float
    completed_at: float
    cross_shard: bool

    @property
    def latency(self) -> float:
        return self.completed_at - self.submitted_at


@dataclass
class _InFlight:
    request: ClientRequest
    target_shard: int
    submitted_at: float
    #: Replies per transaction id; f + 1 of the target shard complete it.
    replies: Tally[str]
    retransmissions: int = 0


class Client(Node):
    """An open-loop client driving one or more transactions at a time."""

    def __init__(
        self,
        client_id: str,
        directory: Directory,
        network: LinkFabric,
        keystore: KeyStore,
        *,
        region: str = "local",
        timers: TimerConfig | None = None,
        on_complete: Callable[[], None] | None = None,
    ) -> None:
        super().__init__(client_id, region, network)
        self.client_id = client_id
        self.directory = directory
        self.timers_config = timers or directory.config.timers
        self.signer = SignatureScheme(keystore)
        self._signing_key = keystore.signing_key(client_id)
        self._in_flight: dict[str, _InFlight] = {}
        self.completed: list[CompletedTransaction] = []
        #: Called once per completed transaction (the owning deployment's
        #: running count, which its drivers poll after every event).
        self._on_complete = on_complete
        #: shard -> replica of that shard -> highest view it has claimed.
        self._view_claims: dict[int, dict[ReplicaId, int]] = {}
        #: shard -> the (f + 1)-th highest claim in ``_view_claims[shard]``.
        self._views: dict[int, int] = {}

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def target_shard_for(self, txn: Transaction) -> int:
        """The shard a request is addressed to: first involved shard in ring order."""
        return self.directory.ring.first_in_ring_order(txn.involved_shards)

    def submit(self, txn: Transaction) -> ClientRequest:
        """Sign and send ``txn`` to the primary of its initiator shard."""
        request = ClientRequest(sender=self.client_id, transaction=txn)
        payload = request.payload_bytes()
        signature = self.signer.sign(self.client_id, payload, self._signing_key)
        request = ClientRequest(sender=self.client_id, transaction=txn, signature=signature)
        # The signature is excluded from the request's own payload fields, so
        # the signed bytes are also the rebuilt request's canonical payload.
        codec.prime_payload(request, payload)
        target_shard = self.target_shard_for(txn)
        self._in_flight[txn.txn_id] = _InFlight(
            request=request,
            target_shard=target_shard,
            submitted_at=self.now,
            replies=Tally(self.directory.quorum(target_shard).weak_quorum),
        )
        primary = self.directory.primary_of(target_shard, self.view_of(target_shard))
        self.send(primary, request)
        self._arm_retransmission_timer(txn.txn_id)
        return request

    def _arm_retransmission_timer(self, txn_id: str, attempt: int = 0) -> None:
        # Exponential backoff: repeated broadcasts of an unanswered request
        # would otherwise flood a recovering shard with duplicates.
        delay = self.timers_config.client_timeout * (2 ** min(attempt, 4))
        self.set_timer(
            f"client-{txn_id}",
            delay,
            lambda: self._on_timeout(txn_id),
        )

    def _on_timeout(self, txn_id: str) -> None:
        entry = self._in_flight.get(txn_id)
        if entry is None:
            return
        # Broadcast to every replica of the target shard (attack A1 recovery).
        entry.retransmissions += 1
        replicas = self.directory.replicas_of(entry.target_shard)
        self.broadcast(list(replicas), entry.request)
        self._arm_retransmission_timer(txn_id, attempt=entry.retransmissions)

    # ------------------------------------------------------------------
    # responses
    # ------------------------------------------------------------------

    def view_of(self, shard: int) -> int:
        """The view this client believes ``shard`` is in (0 until f + 1 replicas say more)."""
        return self._views.get(shard, 0)

    def on_message(self, message: Message) -> None:
        if not isinstance(message, ClientResponse):
            return
        self._learn_view(message)
        in_flight, sender = self._in_flight, message.sender
        for txn_id in message.txn_ids:
            entry = in_flight.get(txn_id)
            if entry is not None and entry.replies.add(txn_id, sender):
                self._complete(txn_id, entry)

    def _learn_view(self, message: ClientResponse) -> None:
        shard, sender, view = message.shard, message.sender, message.view
        claims = self._view_claims.get(shard)
        # Steady state: this replica already claimed this view.  Only a
        # replica of ``shard`` is ever a key, so the membership check below
        # runs once per rising claim, not once per reply.
        if claims is not None and view <= claims.get(sender, -1):
            return
        if sender not in self.directory.replicas_by_shard.get(shard, ()):
            return
        if claims is None:
            claims = self._view_claims[shard] = {}
        claims[sender] = view
        rank = self.directory.quorum(shard).weak_quorum
        # repro: allow[quorum-tally] an order statistic over the claimed views, not a vote count
        if len(claims) >= rank:
            self._views[shard] = sorted(claims.values(), reverse=True)[rank - 1]

    def _complete(self, txn_id: str, entry: _InFlight) -> None:
        del self._in_flight[txn_id]
        self.cancel_timer(f"client-{txn_id}")
        self.completed.append(
            CompletedTransaction(
                txn_id=txn_id,
                submitted_at=entry.submitted_at,
                completed_at=self.now,
                cross_shard=entry.request.transaction.is_cross_shard,
            )
        )
        if self._on_complete is not None:
            self._on_complete()

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------

    @property
    def outstanding(self) -> int:
        return len(self._in_flight)

    @property
    def completed_count(self) -> int:
        return len(self.completed)

    def latencies(self) -> list[float]:
        return [record.latency for record in self.completed]
