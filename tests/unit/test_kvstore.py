"""Unit tests for the partitioned YCSB-style key-value store."""

import sys
import tracemalloc

import pytest

from repro.config import SystemConfig
from repro.engine import Deployment
from repro.errors import StorageError
from repro.storage.kvstore import (
    KeyValueStore,
    PartitionImage,
    ShardedKeyValueStore,
    _leaves,
    ycsb_key,
)

from tests.conftest import small_workload


class TestKeyValueStore:
    def test_construct_and_read(self):
        store = KeyValueStore(0, {"user1": "a", "user2": "b"})
        assert store.read("user1") == "a"
        assert len(store) == 2

    def test_read_missing_key_raises(self):
        store = KeyValueStore(shard_id=0)
        with pytest.raises(StorageError):
            store.read("absent")

    def test_write_updates_value_and_version(self):
        store = KeyValueStore(0, {"user1": "a"})
        assert store.version("user1") == 0
        store.write("user1", "b")
        assert store.read("user1") == "b"
        assert store.version("user1") == 1

    def test_blind_insert_creates_row(self):
        store = KeyValueStore(shard_id=0)
        store.write("new-key", "value")
        assert "new-key" in store
        assert store.version("new-key") == 1
        assert len(store) == 1
        store.write("new-key", "again")
        assert len(store) == 1

    def test_state_root_changes_with_state(self):
        store = KeyValueStore(0, {"user1": "a"})
        before = store.state_root()
        store.write("user1", "b")
        assert store.state_root() != before

    def test_items_returns_copy(self):
        store = KeyValueStore(0, {"user1": "a"})
        items = store.items()
        items["user1"] = "mutated"
        assert store.read("user1") == "a"

    def test_plain_mapping_and_image_build_the_same_store(self):
        records = {f"user{i}": "init" for i in range(100)}
        from_dict = KeyValueStore(0, records)
        from_image = KeyValueStore(0, PartitionImage(records))
        assert from_dict.state_root() == from_image.state_root()
        assert from_dict.items() == from_image.items()

    def test_root_is_independent_of_how_the_state_was_reached(self):
        # Writing on top of an image and installing the result as a fresh
        # image must agree: the root is a function of (key, value, version).
        store = KeyValueStore(0, {f"user{i}": "init" for i in range(50)})
        for i in range(0, 50, 7):
            store.write(f"user{i}", f"v{i}")
        store.write("user7", "again")
        store.write("user-new", "blind")
        installed = KeyValueStore(0, PartitionImage(store.items(), store.versions()))
        assert installed.state_root() == store.state_root()
        assert installed.version("user7") == 2


class TestGoldenStateRoot:
    """Pins the state-root definition: leaf format, buckets and Merkle root.

    Every replica of a shard must compute these bytes, so a change to them
    is a change to checkpoint digests.  They last changed when leaves became
    length-prefixed (see :class:`TestInjectiveLeaves`).
    """

    def test_root_after_fixed_writes(self):
        table = ShardedKeyValueStore((0, 1), num_records=2000)
        store = KeyValueStore(0, PartitionImage(table.build_partition(0)))
        assert len(store) == 1000
        assert store.state_root().hex() == (
            "01a53b1c457912fcfaec360db44a8a43a32663bb9131ac28e92057daee6fa87c"
        )
        store.write("user0", "a")
        store.write("user7", "b")
        assert store.state_root().hex() == (
            "60223b7b56e897ac44e9a518e35c486ad7c1d685ba22374200e5959c30d4329f"
        )
        store.write("user0", "c")
        store.write("user999", "d")
        store.write("user-blind", "e")
        assert store.state_root().hex() == (
            "e38dcfaeea5baddb5794096c02525e732aeaeac74fc587c1a931bd31047ac4cb"
        )
        assert (store.version("user0"), store.version("user-blind"), len(store)) == (2, 1, 1001)


class TestInjectiveLeaves:
    def test_a_value_that_spells_another_leaf_gives_another_root(self):
        # user0 and user135 share a bucket; with unprefixed, ``|``-joined
        # leaves ``user0=x#0|user135=y#0`` was also the one leaf of a value
        # ``x#0|user135=y``, so these two states shared a root.
        common = {f"user{i}": "init" for i in range(1, 100)}
        two = PartitionImage({**common, "user0": "x", "user135": "y"})
        one = PartitionImage({**common, "user0": "x#0|user135=y"})
        assert KeyValueStore(0, two).items() != KeyValueStore(0, one).items()
        assert KeyValueStore(0, two).state_root() != KeyValueStore(0, one).state_root()


    def test_leaf_spells_every_length_and_version(self):
        # Lengths and versions past the memoised small numbers, and a
        # non-ASCII key, whose length counts characters.
        assert _leaves(["ké", "k"], ["x" * 2000, "|"], [1500, 0]) == [
            b"2:k\xc3\xa92000:" + b"x" * 2000 + b"#1500|",
            b"1:k1:|#0|",
        ]


class TestSharedImageIsolation:
    def _stores(self):
        image = PartitionImage({f"user{i}": "init" for i in range(200)})
        return image, [KeyValueStore(0, image) for _ in range(4)]

    def test_a_write_changes_no_other_replica(self):
        image, (writer, *others) = self._stores()
        before = [(s.read("user3"), s.version("user3"), s.state_root()) for s in others]
        writer.write("user3", "changed")
        writer.write("user-insert", "new")
        writer.state_root()
        after = [(s.read("user3"), s.version("user3"), s.state_root()) for s in others]
        assert after == before == [("init", 0, before[0][2])] * len(others)
        assert all("user-insert" not in s for s in others)
        assert image.records["user3"] == "init"
        assert "user-insert" not in image.records

    def test_image_is_read_only(self):
        image, _ = self._stores()
        buckets = image.buckets
        with pytest.raises(TypeError):
            image.records["user0"] = "x"
        with pytest.raises(TypeError):
            image.versions["user0"] = 1
        for field in (buckets.keys, buckets.blobs, buckets.starts, buckets.digests):
            assert type(field) is tuple
            with pytest.raises(TypeError):
                field[0] = field[1]
        assert all(type(keys) is tuple for keys in buckets.keys)
        assert all(type(blob) is bytes for blob in buckets.blobs)
        for starts in buckets.starts:
            # The view is read-only and backed by bytes, not a mutable array.
            assert starts.readonly and type(starts.obj) is bytes
            with pytest.raises(TypeError):
                starts[0] = 1
        with pytest.raises(AttributeError):
            buckets.blobs = ()

    def test_image_keeps_few_bytes_per_record_beyond_its_records(self):
        # The digest is one blob per bucket, its offsets and its key tuples;
        # a leaf object and a dict slot per record (about 77 B) are not kept.
        records = {ycsb_key(i): "init" for i in range(30_000)}
        records_dict = sys.getsizeof(dict(records))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            image = PartitionImage(records)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(image.records) == len(records)
        assert (kept - records_dict) / len(records) <= 40

    def test_replace_installs_a_private_image(self):
        image, (store, other, *_) = self._stores()
        store.replace({"user0": "adopted"}, {"user0": 3})
        assert store.image is not image
        assert store.version("user0") == 3
        assert other.read("user0") == "init"

    def test_every_replica_of_a_shard_shares_one_image(self):
        config = SystemConfig.uniform(2, 4, workload=small_workload())
        with Deployment.build(config, backend="sim") as deployment:
            for shard in (0, 1):
                images = {id(r.store.image) for r in deployment.shard_replicas(shard)}
                assert len(images) == 1
            assert deployment.replica(0, 0).store.image is not deployment.replica(1, 0).store.image
            assert len(deployment.replica(0, 0).store) == len(
                deployment.table.records_for(0)
            )


class TestShardedKeyValueStore:
    def test_ycsb_key_format(self):
        assert ycsb_key(42) == "user42"

    def test_every_record_has_exactly_one_owner(self):
        table = ShardedKeyValueStore((0, 1, 2), num_records=300)
        owners = [table.owner_of(i) for i in range(300)]
        assert set(owners) == {0, 1, 2}
        assert owners == sorted(owners)  # range partitioning

    def test_partitions_cover_all_records_without_overlap(self):
        table = ShardedKeyValueStore((0, 1, 2, 3), num_records=1000)
        seen = set()
        for shard in (0, 1, 2, 3):
            records = set(table.records_for(shard))
            assert not records & seen
            seen |= records
        assert seen == set(range(1000))

    def test_owner_of_key_matches_owner_of_index(self):
        table = ShardedKeyValueStore((0, 1, 2), num_records=600)
        assert table.owner_of_key("user250") == table.owner_of(250)

    def test_owner_of_key_rejects_non_ycsb_keys(self):
        table = ShardedKeyValueStore((0, 1), num_records=10)
        with pytest.raises(StorageError):
            table.owner_of_key("not-a-key")

    def test_out_of_range_record_rejected(self):
        table = ShardedKeyValueStore((0, 1), num_records=10)
        with pytest.raises(StorageError):
            table.owner_of(10)

    def test_local_record_wraps_offset(self):
        table = ShardedKeyValueStore((0, 1, 2), num_records=30)
        assert table.local_record(1, 0) == table.local_record(1, 10)

    def test_local_record_is_owned_by_requested_shard(self):
        table = ShardedKeyValueStore((0, 1, 2), num_records=600)
        for shard in (0, 1, 2):
            for offset in (0, 7, 199):
                key = table.local_record(shard, offset)
                assert table.owner_of_key(key) == shard

    def test_build_partition_contents(self):
        table = ShardedKeyValueStore((0, 1), num_records=20)
        partition = table.build_partition(1, initial_value="seed")
        assert len(partition) == 10
        assert all(value == "seed" for value in partition.values())
        assert all(table.owner_of_key(key) == 1 for key in partition)

    def test_non_divisible_record_count_assigns_remainder_to_last_shard(self):
        table = ShardedKeyValueStore((0, 1, 2), num_records=100)
        total = sum(len(table.records_for(s)) for s in (0, 1, 2))
        assert total == 100
        assert len(table.records_for(2)) >= len(table.records_for(0))

    def test_unknown_shard_rejected(self):
        table = ShardedKeyValueStore((0, 1), num_records=10)
        with pytest.raises(StorageError):
            table.records_for(5)

    def test_constructor_validation(self):
        with pytest.raises(StorageError):
            ShardedKeyValueStore((), num_records=10)
        with pytest.raises(StorageError):
            ShardedKeyValueStore((0,), num_records=0)
