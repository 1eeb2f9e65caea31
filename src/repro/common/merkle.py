"""Merkle trees for per-block transaction roots and replica state roots.

Each block in a shard's partial blockchain stores either the full batch of
transactions or only their Merkle root (Section 7); the root is computed by
pair-wise hashing leaf digests up to a single root.  Inclusion proofs allow
light verification that a transaction belongs to a committed block.

A replica's state root (checkpoint digests) is a :class:`BucketedDigest`: a
Merkle root over a fixed number of key buckets, each digested as its leaves
in key order, concatenated (every leaf ends its own encoding, so the
concatenation parses one way).  The shared read-only part of the state is
one :class:`LeafBuckets` per shard that stores each bucket as a single blob
of exactly those bytes; a replica's own keys are spliced into the blob of
each bucket they touched when a root is requested.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from itertools import accumulate
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


#: Given one bucket's keys in sorted order, their current leaves in that
#: order.  A leaf must be self-delimiting: a bucket digests its leaves
#: concatenated, with nothing between them.
LeafSource = Callable[[Sequence[str]], Sequence[bytes]]


def _no_leaves(keys: Sequence[str]) -> Sequence[bytes]:
    return ()


@dataclass(frozen=True)
class LeafBuckets:
    """A read-only keyed leaf set split into digest buckets, digested once.

    Bucket ``b`` is three immutable parts: ``keys[b]``, its keys in sorted
    order; ``blobs[b]``, exactly the bytes its digest covers (its leaves in
    key order, concatenated); and ``starts[b]``, a read-only view of where
    each leaf starts in the blob plus an end sentinel, so leaf ``i`` is
    ``blobs[b][starts[b][i]:starts[b][i + 1]]``.  Every bucket's view is a
    slice of one offsets buffer per image.  ``digests[b]`` is
    ``sha256(blobs[b])``.  The blob is the only per-key byte string kept: no
    leaf object and no per-key dict slot.  Many :class:`BucketedDigest`
    instances share one base; none of them can write to it.
    """

    keys: tuple[tuple[str, ...], ...]
    blobs: tuple[bytes, ...]
    starts: tuple[memoryview, ...]
    digests: tuple[bytes, ...]

    @classmethod
    def of(cls, keys: Iterable[str], leaves: LeafSource, num_buckets: int = 64) -> LeafBuckets:
        """Bucket ``keys`` and lay out each bucket's ``leaves`` as one blob."""
        if num_buckets < 1:
            raise LedgerError("BucketedDigest needs at least one bucket")
        grouped: list[list[str]] = [[] for _ in range(num_buckets)]
        appends = [bucket.append for bucket in grouped]
        for key in keys:
            appends[crc32(key.encode()) % num_buckets](key)
        blobs: list[bytes] = []
        offsets = array("I")
        bounds = [0]  # bucket b's offsets are offsets[bounds[b]:bounds[b + 1]]
        for bucket in grouped:
            bucket.sort()
            bucket_leaves = leaves(bucket)
            blobs.append(b"".join(bucket_leaves))
            offsets.extend(accumulate(map(len, bucket_leaves), initial=0))
            bounds.append(len(offsets))
        view = memoryview(offsets.tobytes()).cast("I")
        starts = tuple(view[lo:hi] for lo, hi in zip(bounds, bounds[1:]))
        return cls(tuple(map(tuple, grouped)), tuple(blobs), starts, tuple(map(sha256, blobs)))


def _splice(
    base: LeafBuckets, bucket: int, own: Sequence[str], leaves: Iterable[bytes]
) -> list[bytes | memoryview]:
    """Pieces that join to ``bucket``'s blob with ``own`` keys' leaves in.

    An own key that the base holds replaces its leaf; any other is inserted
    at its key-order position.  The base leaves between two own keys stay
    one zero-copy slice of the blob, so the Python work is O(len(own)).
    """
    keys, starts = base.keys[bucket], base.starts[bucket]
    blob = memoryview(base.blobs[bucket])
    size = len(keys)
    pieces: list[bytes | memoryview] = []
    done = 0  # base leaves [0, done) are in ``pieces`` or replaced
    for key, leaf in zip(own, leaves, strict=True):
        # A key not above the next base key goes right there, so dense runs
        # of own keys skip the search.
        at = done if done == size or keys[done] >= key else bisect_left(keys, key, done + 1)
        if at > done:
            pieces.append(blob[starts[done] : starts[at]])
        pieces.append(leaf)
        done = at + 1 if at < size and keys[at] == key else at
    if done < size:
        pieces.append(blob[starts[done] :])
    return pieces


class BucketedDigest:
    """Rolling merkleized digest over a keyed state (checkpoint fast path).

    Keys hash into a fixed set of buckets (CRC32, deterministic across
    processes so every replica partitions identically); each bucket digests
    its key-sorted leaves, concatenated, and the state root is the Merkle
    root over the bucket digests.

    The entries are a read-only ``base`` (shared, digested once) overlaid
    with this instance's own keys.  The digest stores no leaf bytes: it
    records which own keys each bucket holds, and :meth:`root` asks a
    :data:`LeafSource` for their current leaves and splices them into the
    base blob of each bucket touched since the last root.  A root therefore
    costs O(own keys in the dirty buckets) Python steps plus one join and
    one hash per dirty bucket.  It is a pure function of the entry set: a
    replica that arrived at a state incrementally and one that
    bulk-installed it via state transfer compute the same root.
    """

    def __init__(self, num_buckets: int = 64, *, base: LeafBuckets | None = None) -> None:
        if base is None:
            base = LeafBuckets.of((), _no_leaves, num_buckets)
        elif len(base.blobs) != num_buckets:
            raise LedgerError(f"base has {len(base.blobs)} buckets, not {num_buckets}")
        self._num_buckets = num_buckets
        self._base = base
        self._own: list[list[str]] = [[] for _ in range(num_buckets)]
        self._digests: list[bytes] = list(base.digests)
        self._dirty: set[int] = set()

    def update(self, key: str) -> None:
        """Record ``key`` as an own key and mark its bucket for re-digesting."""
        bucket = crc32(key.encode()) % self._num_buckets
        own = self._own[bucket]
        at = bisect_left(own, key)
        if at == len(own) or own[at] != key:
            own.insert(at, key)
        self._dirty.add(bucket)

    def root(self, leaves: LeafSource) -> bytes:
        """Current state root, with every own key's leaf taken from ``leaves``."""
        for bucket in self._dirty:
            own = self._own[bucket]
            self._digests[bucket] = sha256(b"".join(_splice(self._base, bucket, own, leaves(own))))
        self._dirty.clear()
        return merkle_root(self._digests)

    @property
    def dirty_buckets(self) -> int:
        return len(self._dirty)
