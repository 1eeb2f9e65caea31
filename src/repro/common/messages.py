"""Protocol messages exchanged by clients and replicas.

The message set follows Figure 5 (normal case), Figure 6 (remote view
change), and the PBFT view-change sub-protocol the paper reuses.  Each
message knows its *wire size* in bytes; the per-type sizes come straight from
Section 8 ("The sizes of messages communicated during RingBFT consensus
are ...") and feed the analytical performance model.

Canonical byte representations (for MACs, signatures, digests) go through the
binary codec in :mod:`repro.common.codec`: payload fields carry raw values
(bytes digests, int shard keys) and the codec's type-tagged encoding keeps
them injective.  ``payload_bytes``/``digest`` are memoised on the frozen
message objects, so each message is encoded and hashed at most once per
process no matter how many times it is sent, received, or retransmitted;
:func:`requests_digest` does the same for the batch a message carries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.common import codec
from repro.common.codec import register_wire_type
from repro.common.crypto import Signature, sha256
from repro.common.types import ReplicaId
from repro.txn.transaction import Transaction

#: Wire sizes (bytes) reported in Section 8 of the paper.  Messages not listed
#: there use reasonable estimates consistent with those numbers.
MESSAGE_SIZES: dict[str, int] = {
    "ClientRequest": 512,
    "PrePrepare": 5408,
    "Prepare": 216,
    "Commit": 269,
    "Forward": 6147,
    "Execute": 1732,
    "Checkpoint": 164,
    "ClientResponse": 256,
    "ViewChange": 1024,
    "NewView": 2048,
    "RemoteView": 300,
    "Vote2PC": 269,
    "Decide2PC": 269,
    "CrossPropose": 5408,
    "CrossAccept": 269,
}


@dataclass(frozen=True)
class Message:
    """Base class for every protocol message.

    ``sender`` is the authenticated origin; messages carried inside other
    messages (certificates) keep their own signatures.
    """

    sender: Any

    @property
    def type_name(self) -> str:
        return type(self).__name__

    def wire_size(self) -> int:
        """Size in bytes used by the network model and the analytical model."""
        return MESSAGE_SIZES.get(self.type_name, 512)

    def payload_bytes(self) -> bytes:
        """Canonical byte representation used for MACs/signatures.

        Encoded with the injective binary codec and memoised on the frozen
        instance: repeated sends/receptions of the same object reuse the
        cached bytes instead of re-serialising.
        """
        return codec.memoized_payload(self, self._payload_fields)

    def _payload_fields(self) -> dict[str, Any]:
        return {"type": self.type_name, "sender": str(self.sender)}

    def digest(self) -> bytes:
        return codec.memoized_digest(self, self._payload_fields)

    # ------------------------------------------------------------------
    # broadcast authentication side-channel
    # ------------------------------------------------------------------
    #
    # The sender's MAC vector (one pairwise tag per receiver, keyed
    # "peer:<replica>") rides alongside the frozen message.  Tags live outside
    # the dataclass fields so they never affect equality, hashing, or the
    # canonical payload -- exactly like a MAC trailer on a real wire frame.
    # Each receiver verifies *its own* tag against the claimed sender's
    # pairwise key; no verification verdict is ever cached on the shared
    # object, so no receiver (or Byzantine code path) can vouch a tag for
    # anyone else, and nothing depends on receivers sharing object identity
    # (a socket transport that deserialises per-receiver copies only needs to
    # carry the tag map).

    def attach_auth(self, label: str, tag: bytes) -> None:
        tags = self.__dict__.get("_auth_tags")
        if tags is None:
            tags = {}
            object.__setattr__(self, "_auth_tags", tags)
        tags[label] = tag

    def auth_tag(self, label: str) -> bytes | None:
        tags = self.__dict__.get("_auth_tags")
        return None if tags is None else tags.get(label)

    def auth_tags(self) -> dict[str, bytes]:
        """The full MAC vector riding on this message (copy).

        The socket transport ships the *whole* vector with every wire copy --
        not just the addressee's tag -- because RingBFT's local relay forwards
        a received cross-shard message to shard peers, who must verify the
        original sender's tags for themselves.
        """
        tags = self.__dict__.get("_auth_tags")
        return {} if tags is None else dict(tags)


# ---------------------------------------------------------------------------
# Client traffic
# ---------------------------------------------------------------------------


#: Packed layouts for the rich envelopes: the ``txn`` slot splices the
#: transaction's memoised canonical bytes verbatim (the codec is
#: compositional), so encoding a fresh ClientRequest costs one layout
#: assembly instead of re-walking the whole nested transaction dict.
_CLIENT_REQUEST_LAYOUT = codec.compile_fixed_dict(
    {"type": "ClientRequest"}, ("sender", "txn"), raw_keys=("txn",)
)


@register_wire_type
@dataclass(frozen=True)
class ClientRequest(Message):
    """``<T_I>_c`` -- a client-signed transaction submitted to a primary."""

    transaction: Transaction
    signature: Signature | None = None

    def _payload_fields(self) -> dict[str, Any]:
        return {
            "type": self.type_name,
            "sender": str(self.sender),
            "txn": self.transaction.to_wire(),
        }

    def payload_bytes(self) -> bytes:
        cached = self.__dict__.get("_payload_memo")
        if cached is not None and not codec.LEGACY.enabled:
            codec.STATS.payload_hits += 1
            return cached
        return codec.memoized_packed_payload(
            self,
            _CLIENT_REQUEST_LAYOUT,
            self._payload_fields,
            (str(self.sender), self.transaction.payload_bytes()),
        )


@register_wire_type
@dataclass(frozen=True)
class ClientResponse(Message):
    """Response(T, k, r) returned to the client by f+1 replicas.

    ``view`` is the replying replica's current view, so the client can track
    the shard's primary (PBFT's reply carries it for the same reason).
    """

    txn_id: str
    sequence: int
    result: dict[str, str]
    shard: int
    view: int

    def _payload_fields(self) -> dict[str, Any]:
        return {
            "type": self.type_name,
            "sender": str(self.sender),
            "txn_id": self.txn_id,
            "sequence": self.sequence,
            "result": self.result,
            "shard": self.shard,
            "view": self.view,
        }


# ---------------------------------------------------------------------------
# Intra-shard PBFT phases
# ---------------------------------------------------------------------------


@register_wire_type
@dataclass(frozen=True)
class PrePrepare(Message):
    """Primary's proposal ordering a batch of requests at sequence ``sequence``."""

    view: int
    sequence: int
    batch_digest: bytes
    requests: tuple[ClientRequest, ...]

    def _payload_fields(self) -> dict[str, Any]:
        return {
            "type": self.type_name,
            "sender": str(self.sender),
            "view": self.view,
            "sequence": self.sequence,
            "digest": self.batch_digest,
        }


# ---------------------------------------------------------------------------
# Fixed-layout fast paths for the small vote types
# ---------------------------------------------------------------------------
#
# Prepare/Commit/Checkpoint are tiny, fixed-shape, and minted fresh on every
# consensus round, so their first (and only, thanks to the memo) encode is
# pure overhead in the generic codec walker.  Each layout below is compiled
# once at import time and produces bytes *identical* to encode_canonical of
# the corresponding ``_payload_fields`` dict -- the equivalence is pinned by
# tests, so MACs/signatures/digests interoperate with generic encoders.

_PREPARE_LAYOUT = codec.compile_fixed_dict(
    {"type": "Prepare"}, ("sender", "view", "sequence", "digest")
)
_COMMIT_LAYOUT = codec.compile_fixed_dict(
    {"type": "Commit"}, ("sender", "view", "sequence", "digest")
)
_CHECKPOINT_LAYOUT = codec.compile_fixed_dict(
    {"type": "Checkpoint"}, ("sender", "sequence", "digest")
)
_COMMIT_VOTE_LAYOUT = codec.compile_fixed_dict(
    {"type": "Commit"}, ("view", "sequence", "digest")
)


def _packed_payload_bytes(
    layout: Callable[..., bytes], values_of: Callable[[Any], tuple[Any, ...]]
) -> Callable[[Any], bytes]:
    """Build a ``payload_bytes`` method over a compiled ``layout``.

    One definition of the hit-path protocol for all packed vote types: a
    broadcast vote is re-encoded once per receiver verification, so a memo
    hit must stay a bare dict lookup -- no ``str(sender)``/tuple work just to
    discover the cached bytes.  ``values_of`` extracts the dynamic values in
    the layout's declared order.
    """

    def payload_bytes(self) -> bytes:
        cached = self.__dict__.get("_payload_memo")
        if cached is not None and not codec.LEGACY.enabled:
            codec.STATS.payload_hits += 1
            return cached
        return codec.memoized_packed_payload(
            self, layout, self._payload_fields, values_of(self)
        )

    return payload_bytes


@register_wire_type
@dataclass(frozen=True)
class Prepare(Message):
    """Backup's agreement to support the primary's ``sequence``-th proposal."""

    view: int
    sequence: int
    batch_digest: bytes

    def _payload_fields(self) -> dict[str, Any]:
        return {
            "type": self.type_name,
            "sender": str(self.sender),
            "view": self.view,
            "sequence": self.sequence,
            "digest": self.batch_digest,
        }

    payload_bytes = _packed_payload_bytes(
        _PREPARE_LAYOUT,
        lambda self: (str(self.sender), self.view, self.sequence, self.batch_digest),
    )


def _commit_vote_fields(view: int, sequence: int, batch_digest: bytes) -> dict[str, Any]:
    """The fields replicas sign in a Commit vote (sender excluded on purpose:
    ``nf`` distinct signatures over the *same* bytes form a certificate)."""
    return {
        "type": "Commit",
        "view": view,
        "sequence": sequence,
        "digest": batch_digest,
    }


def _memoized_signed_payload(obj: Any, view: int, sequence: int, batch_digest: bytes) -> bytes:
    if codec.LEGACY.enabled:
        return codec.legacy_json_bytes(_commit_vote_fields(view, sequence, batch_digest))
    cached = obj.__dict__.get("_signed_payload_memo")
    if cached is None:
        cached = _COMMIT_VOTE_LAYOUT(view, sequence, batch_digest)
        object.__setattr__(obj, "_signed_payload_memo", cached)
    return cached


@register_wire_type
@dataclass(frozen=True)
class Commit(Message):
    """Commit vote; for cross-shard batches it is digitally signed so the
    signatures can later prove replication to the next shard."""

    view: int
    sequence: int
    batch_digest: bytes
    signature: Signature | None = None

    def _payload_fields(self) -> dict[str, Any]:
        return {
            "type": self.type_name,
            "sender": str(self.sender),
            "view": self.view,
            "sequence": self.sequence,
            "digest": self.batch_digest,
        }

    payload_bytes = _packed_payload_bytes(
        _COMMIT_LAYOUT,
        lambda self: (str(self.sender), self.view, self.sequence, self.batch_digest),
    )

    def signed_payload(self) -> bytes:
        """The byte string replicas sign: excludes the signature itself."""
        return _memoized_signed_payload(self, self.view, self.sequence, self.batch_digest)


@register_wire_type
@dataclass(frozen=True)
class CommitCertificate:
    """``nf`` distinct signed Commit messages proving a batch was replicated.

    This is the set ``A`` of Figure 5 line 16, attached to ``Forward``
    messages so the next shard can verify the previous shard's consensus.
    """

    shard: int
    view: int
    sequence: int
    batch_digest: bytes
    signatures: tuple[Signature, ...]

    def signed_payload(self) -> bytes:
        return _memoized_signed_payload(self, self.view, self.sequence, self.batch_digest)

    @property
    def distinct_signers(self) -> int:
        return len({sig.signer for sig in self.signatures})


# ---------------------------------------------------------------------------
# Cross-shard messages (RingBFT)
# ---------------------------------------------------------------------------


_FORWARD_LAYOUT = codec.compile_fixed_dict(
    {"type": "Forward"}, ("sender", "digest", "origin_shard", "reads", "txns")
)


@register_wire_type
@dataclass(frozen=True)
class Forward(Message):
    """Forward(<T_I>_c, A, m, Delta) -- sent replica-to-replica to the next shard.

    Carries the cross-shard batch (the client-signed requests), the commit
    certificate ``A`` proving the previous shard replicated it, the batch
    digest ``Delta`` used as the cross-shard identity of the batch, and -- for
    complex transactions -- the read/write sets accumulated so far along the
    ring (Section 8.8: "requiring each shard to send its read-write sets along
    with the Forward message").  ``read_sets`` maps shard id -> {key ->
    committed value} and holds only keys some transaction of the batch names
    in ``Operation.depends_on``: it is empty for a batch of simple
    transactions.
    """

    requests: tuple[ClientRequest, ...]
    certificate: CommitCertificate
    batch_digest: bytes
    origin_shard: int
    read_sets: dict[int, dict[str, str]] = field(default_factory=dict)
    signature: Signature | None = None

    def _payload_fields(self) -> dict[str, Any]:
        return {
            "type": self.type_name,
            "sender": str(self.sender),
            "txns": [req.transaction.txn_id for req in self.requests],
            "digest": self.batch_digest,
            "origin_shard": self.origin_shard,
            "reads": self.read_sets,
        }

    def payload_bytes(self) -> bytes:
        cached = self.__dict__.get("_payload_memo")
        if cached is not None and not codec.LEGACY.enabled:
            codec.STATS.payload_hits += 1
            return cached
        txns = [req.transaction.txn_id for req in self.requests]
        return codec.memoized_packed_payload(
            self,
            _FORWARD_LAYOUT,
            self._payload_fields,
            (str(self.sender), self.batch_digest, self.origin_shard, self.read_sets, txns),
        )


@register_wire_type
@dataclass(frozen=True)
class Execute(Message):
    """Execute(Delta, Sigma_I) -- second-rotation message carrying write sets.

    ``write_sets`` maps shard id -> {key -> committed value} and accumulates
    as the message travels the ring, resolving cross-shard dependencies of
    complex transactions.  Like ``Forward.read_sets`` it holds only
    dependency keys, so it is empty for a batch of simple transactions.
    """

    batch_digest: bytes
    txn_ids: tuple[str, ...]
    write_sets: dict[int, dict[str, str]]
    origin_shard: int
    signature: Signature | None = None

    def _payload_fields(self) -> dict[str, Any]:
        return {
            "type": self.type_name,
            "sender": str(self.sender),
            "txn_ids": list(self.txn_ids),
            "digest": self.batch_digest,
            "origin_shard": self.origin_shard,
            "writes": self.write_sets,
        }


@register_wire_type
@dataclass(frozen=True)
class RemoteView(Message):
    """RemoteView(<T_I>_c, Delta) -- asks the previous shard to view-change (Figure 6)."""

    batch_digest: bytes
    target_shard: int
    signature: Signature | None = None

    def _payload_fields(self) -> dict[str, Any]:
        return {
            "type": self.type_name,
            "sender": str(self.sender),
            "digest": self.batch_digest,
            "target_shard": self.target_shard,
        }


# ---------------------------------------------------------------------------
# Checkpointing and view changes (PBFT recovery machinery)
# ---------------------------------------------------------------------------


@register_wire_type
@dataclass(frozen=True)
class Checkpoint(Message):
    """Periodic state digest allowing log truncation and dark-replica catch-up."""

    sequence: int
    state_digest: bytes

    def _payload_fields(self) -> dict[str, Any]:
        return {
            "type": self.type_name,
            "sender": str(self.sender),
            "sequence": self.sequence,
            "digest": self.state_digest,
        }

    payload_bytes = _packed_payload_bytes(
        _CHECKPOINT_LAYOUT,
        lambda self: (str(self.sender), self.sequence, self.state_digest),
    )


@register_wire_type
@dataclass(frozen=True)
class PreparedProof:
    """Evidence that a request was prepared: the PrePrepare plus nf Prepare votes.

    ``requests`` carries the prepared batch itself so that a new primary that
    never stored the batch can still re-propose it in the new view.
    """

    sequence: int
    view: int
    batch_digest: bytes
    prepares: int
    requests: tuple[ClientRequest, ...] = ()


@register_wire_type
@dataclass(frozen=True)
class ViewChange(Message):
    """ViewChange vote asking to install ``new_view`` in the sender's shard."""

    new_view: int
    last_stable_sequence: int
    prepared: tuple[PreparedProof, ...] = ()

    def _payload_fields(self) -> dict[str, Any]:
        return {
            "type": self.type_name,
            "sender": str(self.sender),
            "new_view": self.new_view,
            "stable": self.last_stable_sequence,
            # Bind the full prepared claims, not just the sequence numbers: a
            # tag over a weaker payload could be replayed onto a forged
            # variant carrying different digests.  The batch contents are
            # bound transitively through batch_digest (collision resistance).
            "prepared": [[p.sequence, p.view, p.batch_digest] for p in self.prepared],
        }


@register_wire_type
@dataclass(frozen=True)
class NewView(Message):
    """New primary's announcement installing ``view`` with re-proposed requests.

    ``abandoned`` lists sequence numbers the new primary could not find a
    prepared certificate for; replicas treat them as no-ops so that in-order
    execution and sequence-ordered locking do not stall on the gap (the
    classic PBFT null-request fill).
    """

    view: int
    view_change_senders: tuple[str, ...]
    reproposals: tuple[PrePrepare, ...] = ()
    abandoned: tuple[int, ...] = ()

    def _payload_fields(self) -> dict[str, Any]:
        return {
            "type": self.type_name,
            "sender": str(self.sender),
            "view": self.view,
            "vc": list(self.view_change_senders),
            "abandoned": list(self.abandoned),
            # Bind the re-proposals: without this, a valid tag could be
            # replayed onto a variant of the NewView carrying attacker-chosen
            # batches.  Each re-proposal's requests are bound through its
            # batch_digest, which _handle_pre_prepare re-checks.
            "reproposals": [[p.sequence, p.view, p.batch_digest] for p in self.reproposals],
        }


# ---------------------------------------------------------------------------
# State transfer (dark-replica catch-up)
# ---------------------------------------------------------------------------


@register_wire_type
@dataclass(frozen=True)
class StateTransferRequest(Message):
    """Request from a lagging replica asking peers for their current state.

    A replica that observes stable checkpoints far beyond its own execution
    point (it was kept in the dark by a malicious primary, or it crashed and
    recovered) asks its shard peers for a state snapshot instead of replaying
    every missed batch.
    """

    last_executed: int

    def wire_size(self) -> int:
        return 128

    def _payload_fields(self) -> dict[str, Any]:
        return {
            "type": self.type_name,
            "sender": str(self.sender),
            "last_executed": self.last_executed,
        }


@register_wire_type
@dataclass(frozen=True)
class StateTransferReply(Message):
    """A peer's state snapshot: store contents, ledger blocks, execution point.

    The requester installs a snapshot only after ``f + 1`` replies agree on
    the state digest, so a single Byzantine peer cannot poison its state.
    """

    last_executed: int
    state_digest: bytes
    store_snapshot: dict[str, str]
    executed_txn_ids: tuple[str, ...]
    blocks: tuple[Any, ...] = ()

    def wire_size(self) -> int:
        # Dominated by the snapshot; approximate with one KV pair ~ 64 bytes.
        return 512 + 64 * len(self.store_snapshot)

    def _payload_fields(self) -> dict[str, Any]:
        return {
            "type": self.type_name,
            "sender": str(self.sender),
            "last_executed": self.last_executed,
            "digest": self.state_digest,
        }


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def batch_digest(requests: tuple[ClientRequest, ...] | list[ClientRequest]) -> bytes:
    """Digest of a batch of client requests (the ``Delta`` of Figure 5).

    Reuses the memoised per-transaction digests, so re-deriving the batch
    digest of a known batch (every PrePrepare reception does this) costs one
    concatenation and one hash instead of a full re-serialisation.
    """
    parts = b"".join(req.transaction.digest() for req in requests)
    return sha256(parts)


def requests_digest(message: Any) -> bytes:
    """``batch_digest(message.requests)``, hashed at most once per message object.

    Every receiver of a batch-carrying message (PrePrepare, Forward,
    Prepare2PC, CrossPropose) checks the carried requests against the
    message's claimed ``batch_digest``.  The value is a pure function of the
    frozen message's fields, so -- like the payload memo -- it is stored on
    the object: receivers that share one object (a multicast on the
    simulator, a relayed Forward) hash its batch once, and each of them
    still compares the value with the claimed digest.
    """
    if codec.LEGACY.enabled:
        return batch_digest(message.requests)
    cached = message.__dict__.get("_requests_digest_memo")
    if cached is None:
        cached = batch_digest(message.requests)
        object.__setattr__(message, "_requests_digest_memo", cached)
    return cached


@dataclass
class MessageStats:
    """Running tally of messages and bytes, grouped by message type.

    The simulator attaches one of these to every replica; unit tests use it to
    validate the analytical model's message-count formulas against the real
    protocol implementation.
    """

    sent_count: dict[str, int] = field(default_factory=dict)
    sent_bytes: dict[str, int] = field(default_factory=dict)
    #: Client requests this node dropped instead of processing, by reason
    #: (e.g. ``unroutable`` when the ring cannot route the involved shards).
    dropped_requests: dict[str, int] = field(default_factory=dict)

    def record(self, message: Message) -> None:
        name = message.type_name
        self.sent_count[name] = self.sent_count.get(name, 0) + 1
        self.sent_bytes[name] = self.sent_bytes.get(name, 0) + message.wire_size()

    def record_fanout(self, message: Message, destinations: int) -> None:
        """Tally a multicast of ``message`` to ``destinations`` peers.

        Equivalent to ``destinations`` calls to :meth:`record` but resolves
        the type name and wire size once per fan-out instead of once per copy.
        """
        if destinations <= 0:
            return
        name = message.type_name
        self.sent_count[name] = self.sent_count.get(name, 0) + destinations
        self.sent_bytes[name] = (
            self.sent_bytes.get(name, 0) + destinations * message.wire_size()
        )

    def record_dropped_request(self, reason: str) -> None:
        self.dropped_requests[reason] = self.dropped_requests.get(reason, 0) + 1

    @property
    def total_messages(self) -> int:
        return sum(self.sent_count.values())

    @property
    def total_bytes(self) -> int:
        return sum(self.sent_bytes.values())

    @property
    def total_dropped_requests(self) -> int:
        return sum(self.dropped_requests.values())

    def merged_with(self, other: "MessageStats") -> "MessageStats":
        merged = MessageStats()
        for stats in (self, other):
            for name, count in stats.sent_count.items():
                merged.sent_count[name] = merged.sent_count.get(name, 0) + count
            for name, nbytes in stats.sent_bytes.items():
                merged.sent_bytes[name] = merged.sent_bytes.get(name, 0) + nbytes
            for reason, count in stats.dropped_requests.items():
                merged.dropped_requests[reason] = merged.dropped_requests.get(reason, 0) + count
        return merged


def sender_replica(message: Message) -> ReplicaId:
    """Typed accessor for messages whose sender is a replica."""
    if not isinstance(message.sender, ReplicaId):
        raise TypeError(f"message {message.type_name} was not sent by a replica")
    return message.sender
