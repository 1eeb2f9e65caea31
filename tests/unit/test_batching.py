"""Unit tests for the request batcher, including the adaptive pipelined path.

The classic path (``add``) closes a batch exactly at ``batch_size``; the
pipelined path (``stage``/``take``) sizes batches adaptively through
:meth:`Batcher.even_split`, so the proposal pump emits balanced batches
instead of one-request crumbs; ``flush`` closes every group whole.
"""

from repro.common.batching import Batcher
from repro.common.messages import ClientRequest
from repro.txn.transaction import TransactionBuilder


def _request(txn_id: str, shards=(0,)) -> ClientRequest:
    builder = TransactionBuilder(txn_id, "client-0")
    for shard in shards:
        builder.read_modify_write(shard, f"key-{shard}", f"{txn_id}-v")
    return ClientRequest(sender="client-0", transaction=builder.build())


class TestClassicFill:
    def test_batch_closes_at_fill(self):
        batcher = Batcher(batch_size=3)
        assert batcher.add(_request("a")) is None
        assert batcher.add(_request("b")) is None
        batch = batcher.add(_request("c"))
        assert [r.transaction.txn_id for r in batch] == ["a", "b", "c"]

    def test_batches_stay_homogeneous_by_shard_set(self):
        batcher = Batcher(batch_size=2)
        assert batcher.add(_request("local", shards=(0,))) is None
        assert batcher.add(_request("cross", shards=(0, 1))) is None
        batch = batcher.add(_request("local-2", shards=(0,)))
        assert [r.transaction.txn_id for r in batch] == ["local", "local-2"]


class TestStageAndTake:
    def test_take_respects_max_size_and_preserves_order(self):
        batcher = Batcher(batch_size=8)
        for name in ("a", "b", "c", "d", "e"):
            batcher.stage(_request(name))
        assert batcher.pending == 5
        first = batcher.take(3)
        assert [r.transaction.txn_id for r in first] == ["a", "b", "c"]
        assert batcher.pending == 2
        second = batcher.take(3)
        assert [r.transaction.txn_id for r in second] == ["d", "e"]
        assert batcher.take(3) is None

    def test_take_never_mixes_shard_groups(self):
        batcher = Batcher(batch_size=8)
        batcher.stage(_request("local-1", shards=(0,)))
        batcher.stage(_request("cross-1", shards=(0, 1)))
        batcher.stage(_request("local-2", shards=(0,)))
        batch = batcher.take(10)
        assert [r.transaction.txn_id for r in batch] == ["local-1", "local-2"]

    def test_take_zero_returns_none(self):
        batcher = Batcher(batch_size=4)
        batcher.stage(_request("a"))
        assert batcher.take(0) is None
        assert batcher.pending == 1


class TestTakeFull:
    def test_full_group_ships_past_an_older_partial_one(self):
        # take() pops the oldest group even when a different one is full;
        # take_full() must not let a minority shard set hold a batch back.
        batcher = Batcher(batch_size=8)
        batcher.stage(_request("cross-1", shards=(0, 1)))
        for name in ("a", "b", "c"):
            batcher.stage(_request(name))
        assert batcher.take_full(4) is None
        batcher.stage(_request("d"))
        batcher.stage(_request("e"))
        batch = batcher.take_full(4)
        assert [r.transaction.txn_id for r in batch] == ["a", "b", "c", "d"]
        assert batcher.pending == 2
        assert [r.transaction.txn_id for r in batcher.take(4)] == ["cross-1"]
        assert [r.transaction.txn_id for r in batcher.take(4)] == ["e"]
        assert batcher.pending == 0

    def test_running_count_matches_every_exit(self):
        batcher = Batcher(batch_size=3)
        for i in range(3):
            batcher.add(_request(f"a{i}"))  # closes at fill
        assert batcher.pending == 0
        for i in range(5):
            batcher.stage(_request(f"s{i}"))
        batcher.stage(_request("x", shards=(0, 1)))
        assert batcher.pending == 6
        batcher.take_full(2)
        assert batcher.pending == 4
        batcher.take(10)
        assert batcher.pending == 1
        batcher.flush()
        assert batcher.pending == 0


class TestEvenSplit:
    def test_balanced_chunks_not_remainder_crumbs(self):
        # 9 requests at max 4 become 3+3+3, never 4+4+1.
        assert Batcher.even_split(9, 4) == [3, 3, 3]

    def test_exact_multiples_fill_completely(self):
        assert Batcher.even_split(8, 4) == [4, 4]

    def test_small_counts_ship_whole(self):
        assert Batcher.even_split(1, 4) == [1]
        assert Batcher.even_split(4, 4) == [4]

    def test_uneven_split_puts_extra_in_leading_chunks(self):
        assert Batcher.even_split(5, 4) == [3, 2]
        assert Batcher.even_split(10, 3) == [3, 3, 2, 2]


class TestFlush:
    def test_flush_without_max_returns_whole_groups(self):
        batcher = Batcher(batch_size=8)
        for name in ("a", "b", "c"):
            batcher.stage(_request(name))
        batches = batcher.flush()
        assert [[r.transaction.txn_id for r in b] for b in batches] == [["a", "b", "c"]]
        assert batcher.pending == 0

    def test_flush_covers_every_group(self):
        batcher = Batcher(batch_size=16)
        batcher.stage(_request("local", shards=(0,)))
        batcher.stage(_request("cross", shards=(0, 1)))
        batches = batcher.flush()
        assert sorted(r.transaction.txn_id for b in batches for r in b) == ["cross", "local"]
