"""Deterministic transactions with declared read/write sets.

RingBFT (like AHL, Sharper, Calvin, and Q-Store) assumes *deterministic*
transactions: the data items a transaction reads and writes are known before
consensus starts (Section 3, *Deterministic Transactions*).  A replica can
therefore decide purely from the transaction envelope which fragment belongs
to its shard, which shards are involved, and whether dependencies on remote
data exist (making the transaction a *complex* cross-shard transaction).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.common import codec
from repro.common.codec import register_wire_type
from repro.errors import MalformedMessageError


@register_wire_type
class OpType(enum.Enum):
    """The two YCSB operation kinds used in the evaluation (read-modify-write)."""

    READ = "read"
    WRITE = "write"


@register_wire_type
@dataclass(frozen=True)
class Operation:
    """A single read or write of one data item.

    ``shard`` is the owner shard of ``key``.  For writes, ``value`` carries
    the new value; for reads it is ignored.  ``depends_on`` lists keys (in
    *other* shards) whose current value is needed to compute this write --
    the presence of any such dependency makes the enclosing transaction a
    complex cross-shard transaction that needs a second rotation.
    """

    shard: int
    key: str
    op_type: OpType
    value: str = ""
    depends_on: tuple[tuple[int, str], ...] = ()

    def to_wire(self) -> dict:
        return {
            "shard": self.shard,
            "key": self.key,
            "op": self.op_type.value,
            "value": self.value,
            "deps": list(list(d) for d in self.depends_on),
        }

    def packed_bytes(self) -> bytes:
        """Canonical bytes of :meth:`to_wire` via the compiled fixed layout."""
        deps = (
            _EMPTY_DEPS
            if not self.depends_on
            else codec.encode_canonical([list(d) for d in self.depends_on])
        )
        return _OP_LAYOUT(deps, self.key, self.op_type.value, self.shard, self.value)


# Fixed layouts for the envelope hot path (see compile_fixed_dict): keys are
# emitted in canonical (sorted) order, and the encoders accept dynamic values
# in the declared order below.  ``deps``/``operations`` are splice slots fed
# pre-encoded canonical frames.
_OP_LAYOUT = codec.compile_fixed_dict(
    {}, ("deps", "key", "op", "shard", "value"), raw_keys=("deps",)
)
_EMPTY_DEPS = codec.encode_canonical([])
_TXN_LAYOUT = codec.compile_fixed_dict(
    {}, ("client_id", "operations", "txn_id"), raw_keys=("operations",)
)


@register_wire_type
@dataclass(frozen=True)
class Transaction:
    """A client transaction ``T_I`` over one or more shards.

    The envelope is immutable; every field needed by the protocol is derived
    at most once per object and memoised (involved shards, canonical payload,
    digest) -- the routing layer, the batcher, and every ``batch_digest``
    recomputation hit the caches instead of re-deriving.
    """

    txn_id: str
    client_id: str
    operations: tuple[Operation, ...]

    def __post_init__(self) -> None:
        if not self.operations:
            raise MalformedMessageError(f"transaction {self.txn_id} has no operations")

    @property
    def involved_shards(self) -> frozenset[int]:
        """Set of shard identifiers the transaction touches (``I`` in the paper)."""
        cached = self.__dict__.get("_involved_memo")
        if cached is None:
            shards = {op.shard for op in self.operations}
            for op in self.operations:
                shards.update(shard for shard, _ in op.depends_on)
            cached = frozenset(shards)
            object.__setattr__(self, "_involved_memo", cached)
        return cached

    @property
    def is_cross_shard(self) -> bool:
        """True when more than one shard is involved."""
        return len(self.involved_shards) > 1

    @property
    def is_complex(self) -> bool:
        """True when any fragment needs data from another shard to execute."""
        return any(op.depends_on for op in self.operations)

    @property
    def is_simple(self) -> bool:
        """A simple cst executes each fragment independently after one rotation."""
        return not self.is_complex

    def fragment_for(self, shard: int) -> tuple[Operation, ...]:
        """Operations of this transaction that live in ``shard``."""
        return tuple(op for op in self.operations if op.shard == shard)

    def keys_for(self, shard: int) -> frozenset[str]:
        """Data-item keys this transaction locks in ``shard``."""
        return frozenset(op.key for op in self.operations if op.shard == shard)

    def write_keys_for(self, shard: int) -> frozenset[str]:
        return frozenset(
            op.key for op in self.operations if op.shard == shard and op.op_type is OpType.WRITE
        )

    def read_keys_for(self, shard: int) -> frozenset[str]:
        return frozenset(
            op.key for op in self.operations if op.shard == shard and op.op_type is OpType.READ
        )

    @property
    def remote_read_count(self) -> int:
        """Number of cross-shard data dependencies (Figure 10's x-axis)."""
        return sum(len(op.depends_on) for op in self.operations)

    def to_wire(self) -> dict:
        """Canonical field representation used for digests and signing."""
        return {
            "txn_id": self.txn_id,
            "client_id": self.client_id,
            "operations": [op.to_wire() for op in self.operations],
        }

    def payload_bytes(self) -> bytes:
        """Canonical bytes of the envelope, encoded at most once per object.

        The first encode goes through the compiled fixed layouts
        (``_TXN_LAYOUT``/``_OP_LAYOUT``) instead of the generic codec walker;
        the bytes are identical by construction (pinned by the packed-codec
        equivalence tests), so digests and signatures interoperate.
        """
        if codec.LEGACY.enabled:
            return codec.legacy_json_bytes(self.to_wire())
        cached = self.__dict__.get("_payload_memo")
        if cached is None:
            cached = _TXN_LAYOUT(
                self.client_id,
                codec.list_frame([op.packed_bytes() for op in self.operations]),
                self.txn_id,
            )
            object.__setattr__(self, "_payload_memo", cached)
            codec.STATS.payload_misses += 1
        else:
            codec.STATS.payload_hits += 1
        return cached

    def digest(self) -> bytes:
        """Collision-resistant digest of the envelope, hashed at most once.

        A cold payload memo (every decoded transaction has one) is filled
        through the compiled layout first, so the digest never falls back to
        the generic walker over :meth:`to_wire`.
        """
        if "_payload_memo" not in self.__dict__ and not codec.LEGACY.enabled:
            self.payload_bytes()
        return codec.memoized_digest(self, self.to_wire)

    def conflicts_with(self, other: "Transaction") -> bool:
        """True when the two transactions access a common data item with at least one write."""
        for shard in self.involved_shards & other.involved_shards:
            mine = self.keys_for(shard)
            theirs = other.keys_for(shard)
            overlap = mine & theirs
            if not overlap:
                continue
            my_writes = self.write_keys_for(shard)
            their_writes = other.write_keys_for(shard)
            if overlap & (my_writes | their_writes):
                return True
        return False


@dataclass
class TransactionBuilder:
    """Fluent helper for building transactions in examples and tests."""

    txn_id: str
    client_id: str
    _operations: list[Operation] = field(default_factory=list)

    def read(self, shard: int, key: str) -> "TransactionBuilder":
        self._operations.append(Operation(shard=shard, key=key, op_type=OpType.READ))
        return self

    def write(
        self,
        shard: int,
        key: str,
        value: str,
        depends_on: tuple[tuple[int, str], ...] = (),
    ) -> "TransactionBuilder":
        self._operations.append(
            Operation(shard=shard, key=key, op_type=OpType.WRITE, value=value, depends_on=depends_on)
        )
        return self

    def read_modify_write(self, shard: int, key: str, value: str) -> "TransactionBuilder":
        """The YCSB access pattern used in the paper's evaluation."""
        return self.read(shard, key).write(shard, key, value)

    def build(self) -> Transaction:
        return Transaction(
            txn_id=self.txn_id, client_id=self.client_id, operations=tuple(self._operations)
        )
