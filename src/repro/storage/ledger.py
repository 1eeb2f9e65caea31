"""Per-shard partial blockchain (Section 7, *Blockchain*).

Each shard maintains its own append-only ledger; a block ``B_k = {k, Delta,
p_S, H(B_{k-1})}`` records the batch committed at sequence ``k`` under primary
``p_S`` and chains to its predecessor by hash.  Cross-shard blocks are
appended to the ledger of *every* involved shard; the union of the per-shard
ledgers is the complete system state (equation 1 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common import codec
from repro.common.codec import register_wire_type
from repro.common.crypto import sha256
from repro.common.merkle import MerkleTree
from repro.errors import LedgerError
from repro.txn.transaction import Transaction

GENESIS_DIGEST = sha256(b"ringbft-genesis")


@register_wire_type
@dataclass(frozen=True)
class Block:
    """One block of a shard's partial blockchain."""

    height: int
    sequence: int
    shard_id: int
    primary: str
    merkle_root: bytes
    previous_hash: bytes
    txn_ids: tuple[str, ...]
    involved_shards: frozenset[int]

    def _header_fields(self) -> dict:
        return {
            "height": self.height,
            "sequence": self.sequence,
            "shard": self.shard_id,
            "primary": self.primary,
            "root": self.merkle_root,
            "prev": self.previous_hash,
            "txns": list(self.txn_ids),
        }

    def header_bytes(self) -> bytes:
        """Canonical header encoding, built on each call (not memoised)."""
        return codec.encode_canonical(self._header_fields())

    def block_hash(self) -> bytes:
        """Hash of the immutable header, computed at most once per object.

        Chain validation, ledger appends (parent hash), and the deployment's
        consistency sweeps all re-ask for block hashes; memoisation turns the
        repeated header re-serialisations into dictionary lookups.  Only the
        32-byte digest is kept on the block, not the header bytes.
        """
        return codec.memoized_digest(self, self._header_fields)

    @property
    def is_cross_shard(self) -> bool:
        return len(self.involved_shards) > 1


def genesis_block(shard_id: int) -> Block:
    """The agreed-upon dummy block every replica starts its ledger with."""
    return Block(
        height=0,
        sequence=0,
        shard_id=shard_id,
        primary="genesis",
        merkle_root=GENESIS_DIGEST,
        previous_hash=b"\x00" * 32,
        txn_ids=(),
        involved_shards=frozenset({shard_id}),
    )


@dataclass
class Ledger:
    """Append-only, hash-chained ledger held by every replica of a shard."""

    shard_id: int
    _blocks: list[Block] = field(default_factory=list)
    #: txn id -> commit sequence, maintained alongside the chain so that
    #: retransmission replies (and ``contains_txn``) cost one dict lookup
    #: instead of a linear scan over every block ever committed.
    _txn_sequence: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self._blocks:
            self._blocks.append(genesis_block(self.shard_id))
        for block in self._blocks:
            self._index_block(block)

    def _index_block(self, block: Block) -> None:
        for txn_id in block.txn_ids:
            self._txn_sequence[txn_id] = block.sequence

    def __len__(self) -> int:
        return len(self._blocks)

    @property
    def height(self) -> int:
        return self._blocks[-1].height

    @property
    def head(self) -> Block:
        return self._blocks[-1]

    def block_at(self, height: int) -> Block:
        if not 0 <= height < len(self._blocks):
            raise LedgerError(f"no block at height {height} (chain length {len(self._blocks)})")
        return self._blocks[height]

    def append_batch(
        self,
        sequence: int,
        primary: str,
        transactions: list[Transaction] | tuple[Transaction, ...],
    ) -> Block:
        """Create, validate, and append the block for a committed batch."""
        if not transactions:
            raise LedgerError("cannot append an empty batch")
        involved: set[int] = set()
        for txn in transactions:
            involved.update(txn.involved_shards)
        # Merkle leaves are the memoised transaction digests, so a block
        # append never re-serialises an envelope some replica already
        # hashed; proofs verify against ``txn.digest()`` as the leaf.
        tree = MerkleTree([txn.digest() for txn in transactions])
        block = Block(
            height=self.height + 1,
            sequence=sequence,
            shard_id=self.shard_id,
            primary=primary,
            merkle_root=tree.root,
            previous_hash=self.head.block_hash(),
            txn_ids=tuple(txn.txn_id for txn in transactions),
            involved_shards=frozenset(involved),
        )
        self._append(block)
        return block

    def _append(self, block: Block) -> None:
        if block.height != self.height + 1:
            raise LedgerError(
                f"block height {block.height} does not extend chain at height {self.height}"
            )
        if block.previous_hash != self.head.block_hash():
            raise LedgerError("block parent hash does not match the chain head")
        self._blocks.append(block)
        self._index_block(block)

    def adopt_blocks(self, blocks: tuple[Block, ...] | list[Block]) -> int:
        """Adopt the missing suffix of a peer's chain (state transfer).

        The peer's blocks must agree with the local chain on the common
        prefix; any block extending the local head is appended after the
        usual parent-hash validation.  Returns the number of blocks adopted.
        """
        adopted = 0
        for block in blocks:
            if block.height <= self.height:
                local = self.block_at(block.height)
                if local.block_hash() != block.block_hash():
                    raise LedgerError(
                        f"state-transfer block at height {block.height} conflicts with local chain"
                    )
                continue
            self._append(block)
            adopted += 1
        return adopted

    def verify_chain(self) -> bool:
        """Recompute the whole hash chain; True iff no block was tampered with."""
        for prev, cur in zip(self._blocks, self._blocks[1:]):
            if cur.previous_hash != prev.block_hash():
                return False
            if cur.height != prev.height + 1:
                return False
        return True

    def contains_txn(self, txn_id: str) -> bool:
        return txn_id in self._txn_sequence

    def sequence_of(self, txn_id: str) -> int:
        """Commit sequence of ``txn_id``, or 0 when it was never committed here.

        O(1): replicas answer every retransmitted-but-already-executed client
        request through this lookup, which used to scan the whole chain.
        """
        return self._txn_sequence.get(txn_id, 0)

    def blocks(self) -> tuple[Block, ...]:
        return tuple(self._blocks)

    def cross_shard_blocks(self) -> tuple[Block, ...]:
        return tuple(block for block in self._blocks if block.is_cross_shard)

    def commit_order(self, txn_ids: set[str]) -> list[str]:
        """The order in which the given transactions appear in this ledger."""
        ordered: list[str] = []
        for block in self._blocks:
            ordered.extend(tid for tid in block.txn_ids if tid in txn_ids)
        return ordered
