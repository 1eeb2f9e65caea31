"""YCSB-style partitioned key-value store.

The paper's evaluation uses a YCSB table with an active set of 600k records;
each shard manages a unique partition of the data and every replica of a
shard keeps an identical copy of that partition (Section 3, Section 8).
Here the identical initial copy is one read-only :class:`PartitionImage` per
shard, shared by its replicas; each replica stores only its own writes.

The state root a replica puts in its checkpoints covers every record as a
leaf ``(key, value, version)`` (see :func:`_leaves` for the bytes).  The
image holds its leaves once, as one blob per digest bucket; a replica keeps
no leaf bytes of its own and regenerates the leaves of its written keys
when a root is requested, so a root costs work in proportion to those
writes, not to the partition.

Keys are strings of the form ``"user<N>"``; partitioning is by key range so
that the owner shard of any key can be computed locally by any replica
(needed for deterministic transactions).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from itertools import repeat
from types import MappingProxyType
from typing import Any

from repro.common.merkle import BucketedDigest, LeafBuckets
from repro.errors import StorageError


def ycsb_key(index: int) -> str:
    """Canonical YCSB record name for row ``index``."""
    return f"user{index}"


_EMPTY: Mapping[str, Any] = MappingProxyType({})


class _Decimal(dict[int, str]):
    """``str(n)``, memoised for the small numbers a leaf spells out.

    Turning an int into text is most of what building a leaf costs, and the
    lengths and versions in leaves are few small numbers that repeat.
    """

    def __missing__(self, number: int) -> str:
        text = str(number)
        if number < 1024:
            self[number] = text
        return text


_DECIMAL = _Decimal()


def _leaves(keys: Sequence[str], values: Sequence[str], versions: Iterable[int]) -> list[bytes]:
    """State-root leaves, one per key, in order.

    A leaf is ``<len(key)>:<key><len(value)>:<value>#<version>|``, UTF-8
    encoded, with lengths in characters.  Keys and values may hold any
    character (``:``, ``#`` and ``|`` included), but each length says where
    its field ends and ``|`` ends the leaf, so a bucket's concatenated
    leaves parse one way and two different states never share a root.
    """
    spell = _DECIMAL.__getitem__
    key_lengths = map(spell, map(len, keys))
    value_lengths = map(spell, map(len, values))
    return [
        f"{key_length}:{key}{value_length}:{value}#{version}|".encode()
        for key_length, key, value_length, value, version in zip(
            key_lengths, keys, value_lengths, values, map(spell, versions)
        )
    ]


class PartitionImage:
    """A read-only partition: records, their versions, and their digest.

    Built once per shard and shared by every replica of it; each replica's
    :class:`KeyValueStore` keeps only its own writes on top.  ``buckets``
    holds each digest bucket as one blob of its leaves (see
    :class:`~repro.common.merkle.LeafBuckets`), built straight from the
    records, so the digest adds a few bytes per record beyond the records
    themselves.  Every mapping here is a ``MappingProxyType``, every
    sequence a tuple or ``bytes`` and every offset table a read-only view,
    so a write cannot leak into the image -- it would corrupt every replica
    of the shard identically, which no divergence check could see.
    """

    __slots__ = ("records", "versions", "buckets")

    def __init__(self, records: Mapping[str, str], versions: Mapping[str, int] = _EMPTY) -> None:
        records = dict(records)
        versions = dict(versions)
        self.records: Mapping[str, str] = MappingProxyType(records)
        #: Only the non-zero versions (keys written before the image was taken).
        self.versions: Mapping[str, int] = MappingProxyType(versions)

        def leaves(keys: Sequence[str]) -> list[bytes]:
            written = map(versions.get, keys, repeat(0)) if versions else repeat(0)
            return _leaves(keys, list(map(records.__getitem__, keys)), written)

        self.buckets = LeafBuckets.of(records, leaves)


class KeyValueStore:
    """One replica's view of its shard's partition: the image plus own writes."""

    def __init__(
        self, shard_id: int, partition: PartitionImage | Mapping[str, str] = _EMPTY
    ) -> None:
        self.shard_id = shard_id
        self.replace(partition)

    def replace(
        self, partition: PartitionImage | Mapping[str, str], versions: Mapping[str, int] = _EMPTY
    ) -> None:
        """Adopt ``partition`` wholesale, dropping every own write.

        A plain mapping (a state-transfer snapshot, a test fixture) becomes a
        private image with the given ``versions``.
        """
        if not isinstance(partition, PartitionImage):
            partition = PartitionImage(partition, versions)
        self.image = partition
        self._base = partition.records
        self._data: dict[str, str] = {}
        self._version: dict[str, int] = {}
        self._rolling = BucketedDigest(base=partition.buckets)

    def __contains__(self, key: str) -> bool:
        return key in self._data or key in self._base

    def __len__(self) -> int:
        return len(self._base) + sum(1 for key in self._data if key not in self._base)

    def read(self, key: str) -> str:
        value = self._data.get(key)
        if value is None:
            value = self._base.get(key)
            if value is None:
                raise StorageError(f"key {key!r} is not stored in shard {self.shard_id}")
        return value

    def write(self, key: str, value: str) -> None:
        """Set ``key`` (blind inserts are allowed: YCSB's insert creates rows)."""
        version = self.version(key) + 1
        self._data[key] = value
        self._version[key] = version
        self._rolling.update(key)

    def version(self, key: str) -> int:
        """Number of committed writes applied to ``key`` (0 for never-written)."""
        version = self._version.get(key)
        return self.image.versions.get(key, 0) if version is None else version

    def state_root(self) -> bytes:
        """Rolling merkleized digest of the full state.

        :meth:`write` marks the key's bucket; a root request re-digests only
        the buckets touched since the last call, splicing the current leaves
        of this replica's own keys in those buckets into the image's blobs.
        It builds one leaf per own key of those buckets, plus one join and
        one hash per bucket; the image's records cost nothing.
        """
        return self._rolling.root(self._own_leaves)

    def _own_leaves(self, keys: Sequence[str]) -> list[bytes]:
        values = list(map(self._data.__getitem__, keys))
        return _leaves(keys, values, map(self._version.__getitem__, keys))

    def items(self) -> dict[str, str]:
        return {**self._base, **self._data}

    def versions(self) -> dict[str, int]:
        """Every non-zero version (what a state-transfer snapshot carries)."""
        return {**self.image.versions, **self._version}


class ShardedKeyValueStore:
    """Global view of the partitioned table: maps keys to owner shards.

    This object is *logical* -- it never holds data itself.  It is used by
    workload generators and clients to build deterministic transactions whose
    operations carry the correct owner shard, and by the harness to build each
    replica's initial partition.
    """

    def __init__(self, shard_ids: tuple[int, ...] | list[int], num_records: int) -> None:
        if not shard_ids:
            raise StorageError("at least one shard is required")
        if num_records <= 0:
            raise StorageError("num_records must be positive")
        self._shard_ids = tuple(shard_ids)
        self._num_records = num_records

    @property
    def num_records(self) -> int:
        return self._num_records

    @property
    def num_shards(self) -> int:
        return len(self._shard_ids)

    def owner_of(self, record_index: int) -> int:
        """Owner shard of record ``record_index`` (range partitioning)."""
        if not 0 <= record_index < self._num_records:
            raise StorageError(f"record index {record_index} outside [0, {self._num_records})")
        per_shard = self._records_per_shard()
        position = min(record_index // per_shard, self.num_shards - 1)
        return self._shard_ids[position]

    def owner_of_key(self, key: str) -> int:
        if not key.startswith("user"):
            raise StorageError(f"not a YCSB key: {key!r}")
        return self.owner_of(int(key[len("user"):]))

    def _records_per_shard(self) -> int:
        return max(1, self._num_records // self.num_shards)

    def records_for(self, shard_id: int) -> range:
        """Range of record indices owned by ``shard_id``."""
        if shard_id not in self._shard_ids:
            raise StorageError(f"unknown shard {shard_id}")
        position = self._shard_ids.index(shard_id)
        per_shard = self._records_per_shard()
        start = position * per_shard
        if position == self.num_shards - 1:
            end = self._num_records
        else:
            end = min(self._num_records, (position + 1) * per_shard)
        return range(start, end)

    def local_record(self, shard_id: int, offset: int) -> str:
        """The ``offset``-th key owned by ``shard_id`` (wraps around)."""
        records = self.records_for(shard_id)
        if len(records) == 0:
            raise StorageError(f"shard {shard_id} owns no records")
        return ycsb_key(records[offset % len(records)])

    def build_partition(self, shard_id: int, initial_value: str = "init") -> dict[str, str]:
        """Initial contents of ``shard_id``'s partition, identical on every replica."""
        return {ycsb_key(i): initial_value for i in self.records_for(shard_id)}
