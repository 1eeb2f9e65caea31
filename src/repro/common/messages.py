"""Protocol messages exchanged by clients and replicas.

The message set follows Figure 5 (normal case), Figure 6 (remote view
change), and the PBFT view-change sub-protocol the paper reuses.  Each
message knows its *wire size* in bytes; the per-type sizes come straight from
Section 8 ("The sizes of messages communicated during RingBFT consensus
are ...") and feed the analytical performance model.

One rule defines the bytes a MAC covers for every message type:
:meth:`Message.payload_bytes` encodes ``{"type": <class name>, "sender":
str(sender), <field>: <value>, ...}`` over every dataclass field the class
does not list in ``_unbound``, through the binary codec in
:mod:`repro.common.codec` (type-tagged, so injective).  A field may be left
unbound only when something else binds it: a carried batch through the
message's ``batch_digest`` (every receiver re-checks it with
:func:`requests_digest`), or a signature/certificate through its own
signatures.  The payload is memoised on the frozen message object, so each
message is encoded at most once per process no matter how many times it is
sent, received, or retransmitted; :func:`requests_digest` does the same for
the batch a message carries.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Any, Callable, ClassVar

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


_PayloadPlan = tuple[Callable[..., bytes], Callable[[Any], tuple[Any, ...]]]
_PAYLOAD_PLANS: dict[type, _PayloadPlan] = {}


def _payload_plan(cls: type[Message]) -> _PayloadPlan:
    """The compiled payload layout of a message class and the getter of its
    bound field values, in the layout's order after the sender.

    Built on first use rather than in ``__init_subclass__``, which runs before
    ``@dataclass`` has collected the subclass's fields.
    """
    plan = _PAYLOAD_PLANS.get(cls)
    if plan is None:
        names = tuple(
            f.name for f in fields(cls) if f.name != "sender" and f.name not in cls._unbound
        )
        get = attrgetter(*names)
        # attrgetter returns a lone value bare; the layout call needs a tuple.
        bound_values: Callable[[Any], tuple[Any, ...]] = (
            get if len(names) > 1 else lambda message: (get(message),)
        )
        _PAYLOAD_PLANS[cls] = plan = (
            codec.compile_fixed_dict({"type": cls.__name__}, ("sender", *names)),
            bound_values,
        )
    return plan


@dataclass(frozen=True)
class Message:
    """Base class for every protocol message.

    ``sender`` is the authenticated origin; messages carried inside other
    messages (certificates) keep their own signatures.
    """

    sender: Any

    #: Fields the MAC does not cover because something else binds them (see
    #: the module docstring).  Every other field is part of the payload.
    _unbound: ClassVar[tuple[str, ...]] = ()

    @property
    def type_name(self) -> str:
        return type(self).__name__

    def wire_size(self) -> int:
        """Size in bytes used by the network model and the analytical model."""
        return MESSAGE_SIZES.get(self.type_name, 512)

    def payload_bytes(self) -> bytes:
        """Canonical byte representation used for MACs.

        Encoded once per frozen instance through the class's compiled layout;
        a broadcast message is re-checked once per receiver, so a memo hit
        stays a single ``__dict__`` lookup.
        """
        cached = self.__dict__.get("_payload_memo")
        if cached is not None:
            codec.STATS.payload_hits += 1
            return cached
        layout, bound_values = _payload_plan(type(self))
        return codec.memoized_packed_payload(
            self, layout, (str(self.sender),) + bound_values(self)
        )

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


#: ClientRequest keeps its own layout: the ``txn`` slot splices the
#: transaction's memoised canonical bytes verbatim (the codec is
#: compositional), so encoding a fresh ClientRequest costs one layout
#: assembly instead of re-walking the whole nested transaction.
_CLIENT_REQUEST_LAYOUT = codec.compile_fixed_dict(
    {"type": "ClientRequest"}, ("sender", "txn"), raw_keys=("txn",)
)


@register_wire_type
@dataclass(frozen=True)
class ClientRequest(Message):
    """``<T_I>_c`` -- a client-signed transaction submitted to a primary."""

    transaction: Transaction
    signature: Signature | None = None

    def payload_bytes(self) -> bytes:
        """The bytes the client signs and replicas MAC: sender and transaction.

        Overrides the generic rule on purpose.  The generic layout would
        encode the ``Transaction`` object frame, which the transaction
        memoises as one more copy of itself for as long as it lives; splicing
        ``transaction.payload_bytes()`` reuses the memo its digest already
        needs.  The signature is excluded because it signs these bytes.
        """
        cached = self.__dict__.get("_payload_memo")
        if cached is not None:
            codec.STATS.payload_hits += 1
            return cached
        return codec.memoized_packed_payload(
            self,
            _CLIENT_REQUEST_LAYOUT,
            (str(self.sender), self.transaction.payload_bytes()),
        )


@register_wire_type
@dataclass(frozen=True)
class ClientResponse(Message):
    """Response(T, k, r) for every transaction of one client in one batch.

    The paper (Figure 5) sends one ``Response`` per transaction; a replica
    here sends one per client per committed batch, listing that client's
    transactions in batch order with one result each.  The client still
    completes each transaction on f + 1 distinct senders.  ``view`` is the
    replying replica's current view, so the client can track the shard's
    primary (PBFT's reply carries it for the same reason).
    """

    txn_ids: tuple[str, ...]
    sequence: int
    results: tuple[dict[str, str], ...]
    shard: int
    view: int


# ---------------------------------------------------------------------------
# Intra-shard PBFT phases
# ---------------------------------------------------------------------------


@register_wire_type
@dataclass(frozen=True)
class PrePrepare(Message):
    """Primary's proposal ordering a batch of requests at sequence ``sequence``."""

    _unbound = ("requests",)

    view: int
    sequence: int
    batch_digest: bytes
    requests: tuple[ClientRequest, ...]


@register_wire_type
@dataclass(frozen=True)
class Prepare(Message):
    """Backup's agreement to support the primary's ``sequence``-th proposal."""

    view: int
    sequence: int
    batch_digest: bytes


#: What replicas sign in a Commit vote.  The sender is excluded on purpose:
#: ``nf`` distinct signatures over the *same* bytes form one certificate.
_COMMIT_VOTE_LAYOUT = codec.compile_fixed_dict(
    {"type": "Commit"}, ("view", "sequence", "digest")
)


def _memoized_signed_payload(obj: Any, view: int, sequence: int, batch_digest: bytes) -> bytes:
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

    _unbound = ("signature",)

    view: int
    sequence: int
    batch_digest: bytes
    signature: Signature | None = None

    def signed_payload(self) -> bytes:
        """The byte string replicas sign: excludes the sender and the signature."""
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

    _unbound = ("requests", "certificate")

    requests: tuple[ClientRequest, ...]
    certificate: CommitCertificate
    batch_digest: bytes
    origin_shard: int
    read_sets: dict[int, dict[str, str]] = field(default_factory=dict)


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


@register_wire_type
@dataclass(frozen=True)
class RemoteView(Message):
    """RemoteView(<T_I>_c, Delta) -- asks the previous shard to view-change (Figure 6)."""

    batch_digest: bytes
    target_shard: int


# ---------------------------------------------------------------------------
# Checkpointing and view changes (PBFT recovery machinery)
# ---------------------------------------------------------------------------


@register_wire_type
@dataclass(frozen=True)
class Checkpoint(Message):
    """Periodic state digest allowing log truncation and dark-replica catch-up."""

    sequence: int
    state_digest: bytes


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


@register_wire_type
@dataclass(frozen=True)
class StateTransferReply(Message):
    """A peer's state snapshot: store contents, ledger blocks, execution point.

    ``store_versions`` holds every non-zero key version: the state root
    hashes each key's version, so values alone would not reproduce it.

    The requester recomputes ``state_digest`` over everything it would
    install (snapshot, execution point, executed ids, blocks), drops a reply
    whose claim disagrees, and installs only after ``f + 1`` replies agree,
    so a single Byzantine peer cannot poison its state.
    """

    last_executed: int
    state_digest: bytes
    store_snapshot: dict[str, str]
    store_versions: dict[str, int]
    executed_txn_ids: tuple[str, ...]
    blocks: tuple[Any, ...] = ()

    def wire_size(self) -> int:
        # Dominated by the snapshot; approximate with one KV pair ~ 64 bytes
        # and one version ~ 16 bytes.
        return 512 + 64 * len(self.store_snapshot) + 16 * len(self.store_versions)


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
