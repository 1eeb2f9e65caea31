"""Merkle tree used to compute per-block transaction roots (Section 7).

Each block in a shard's partial blockchain stores either the full batch of
transactions or only their Merkle root; the root is computed by pair-wise
hashing leaf digests up to a single root.  Inclusion proofs allow light
verification that a transaction belongs to a committed block.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from types import MappingProxyType
from zlib import crc32

from repro.common.crypto import sha256
from repro.errors import LedgerError

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"


def _hash_leaf(data: bytes) -> bytes:
    return sha256(_LEAF_PREFIX + data)


def _hash_node(left: bytes, right: bytes) -> bytes:
    return sha256(_NODE_PREFIX + left + right)


@dataclass(frozen=True)
class MerkleProof:
    """Inclusion proof for one leaf.

    ``path`` holds ``(sibling_digest, sibling_is_right)`` pairs from the leaf
    up to the root.
    """

    leaf_index: int
    path: tuple[tuple[bytes, bool], ...]


class MerkleTree:
    """A static Merkle tree over an ordered list of byte-string leaves.

    Odd nodes at any level are promoted unchanged (Bitcoin-style duplication
    is avoided so that a single-leaf tree has root == hash(leaf)).
    """

    def __init__(self, leaves: list[bytes] | tuple[bytes, ...]) -> None:
        if not leaves:
            raise LedgerError("cannot build a Merkle tree over zero leaves")
        # Leaves on the hot path are memoised digests shared across replicas;
        # copying them per tree would defeat the sharing, so only coerce
        # non-bytes inputs (bytearray/memoryview from tests and tools).
        self._leaves = [leaf if type(leaf) is bytes else bytes(leaf) for leaf in leaves]
        self._levels: list[list[bytes]] = [[_hash_leaf(leaf) for leaf in self._leaves]]
        while len(self._levels[-1]) > 1:
            current = self._levels[-1]
            nxt: list[bytes] = []
            for i in range(0, len(current), 2):
                if i + 1 < len(current):
                    nxt.append(_hash_node(current[i], current[i + 1]))
                else:
                    nxt.append(current[i])
            self._levels.append(nxt)

    @property
    def root(self) -> bytes:
        """The Merkle root digest of the tree."""
        return self._levels[-1][0]

    @property
    def leaf_count(self) -> int:
        return len(self._leaves)

    def proof(self, index: int) -> MerkleProof:
        """Build an inclusion proof for the leaf at ``index``."""
        if not 0 <= index < len(self._leaves):
            raise LedgerError(f"leaf index {index} out of range [0, {len(self._leaves)})")
        path: list[tuple[bytes, bool]] = []
        position = index
        for level in self._levels[:-1]:
            sibling = position ^ 1
            if sibling < len(level):
                path.append((level[sibling], sibling > position))
            position //= 2
        return MerkleProof(leaf_index=index, path=tuple(path))

    @staticmethod
    def verify_proof(leaf: bytes, proof: MerkleProof, root: bytes) -> bool:
        """Check that ``leaf`` is included under ``root`` via ``proof``."""
        digest = _hash_leaf(leaf)
        for sibling, sibling_is_right in proof.path:
            if sibling_is_right:
                digest = _hash_node(digest, sibling)
            else:
                digest = _hash_node(sibling, digest)
        return digest == root


def merkle_root(leaves: list[bytes] | tuple[bytes, ...]) -> bytes:
    """Convenience helper returning only the root of a leaf list."""
    return MerkleTree(leaves).root


def bucket_digest(leaves: Iterable[bytes]) -> bytes:
    """Digest of one bucket: its leaves in key order, ``|``-joined."""
    return sha256(b"|".join(leaves))


@dataclass(frozen=True)
class LeafBuckets:
    """A read-only keyed leaf set split into digest buckets, digested once.

    ``leaves[b]`` maps every key of bucket ``b`` to its leaf bytes, in key
    order; ``digests[b]`` is that bucket's :func:`bucket_digest`.  Many
    :class:`BucketedDigest` instances can share one base: none of them can
    write to it.
    """

    leaves: tuple[Mapping[str, bytes], ...]
    digests: tuple[bytes, ...]

    @classmethod
    def of(cls, leaves: Mapping[str, bytes], num_buckets: int = 64) -> "LeafBuckets":
        if num_buckets < 1:
            raise LedgerError("BucketedDigest needs at least one bucket")
        buckets: list[dict[str, bytes]] = [{} for _ in range(num_buckets)]
        for key in sorted(leaves):
            buckets[crc32(key.encode()) % num_buckets][key] = leaves[key]
        return cls(
            tuple(MappingProxyType(bucket) for bucket in buckets),
            tuple(bucket_digest(bucket.values()) for bucket in buckets),
        )


class BucketedDigest:
    """Rolling merkleized digest over a keyed state (checkpoint fast path).

    Keys hash into a fixed set of buckets (CRC32, deterministic across
    processes so every replica partitions identically); each bucket digests
    its key-sorted entries, and the state root is the Merkle root over the
    bucket digests.  Mutations mark only the owning bucket dirty, so a root
    request re-canonicalizes the touched buckets instead of the whole store.

    The entries are a read-only ``base`` (shared, digested once) overlaid
    with this instance's own leaves; a dirty bucket is re-digested as the
    base bucket with the own leaves on top.  The root is a pure function of
    that entry set: a replica that arrived at a state incrementally and one
    that bulk-installed it via state transfer compute the same root.
    """

    def __init__(self, num_buckets: int = 64, *, base: LeafBuckets | None = None) -> None:
        if base is None:
            base = LeafBuckets.of({}, num_buckets)
        elif len(base.leaves) != num_buckets:
            raise LedgerError(f"base has {len(base.leaves)} buckets, not {num_buckets}")
        self._num_buckets = num_buckets
        self._base = base.leaves
        self._entries: list[dict[str, bytes]] = [{} for _ in range(num_buckets)]
        self._digests: list[bytes] = list(base.digests)
        self._dirty: set[int] = set()

    def update(self, key: str, leaf: bytes) -> None:
        """Set ``key``'s leaf bytes and mark its bucket for re-digesting."""
        bucket = crc32(key.encode()) % self._num_buckets
        self._entries[bucket][key] = leaf
        self._dirty.add(bucket)

    def root(self) -> bytes:
        """Current state root; costs O(entries in dirty buckets) to refresh."""
        for bucket in self._dirty:
            own = self._entries[bucket]
            base = self._base[bucket]
            if own.keys() <= base.keys():
                # Overwrites only: the base is already in key order.
                leaves = [own.get(key, leaf) for key, leaf in base.items()]
            else:
                merged = {**base, **own}
                leaves = [merged[key] for key in sorted(merged)]
            self._digests[bucket] = bucket_digest(leaves)
        self._dirty.clear()
        return merkle_root(self._digests)

    @property
    def dirty_buckets(self) -> int:
        return len(self._dirty)
