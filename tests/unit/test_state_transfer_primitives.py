"""Unit tests for the storage primitives added for state transfer."""

import pytest

from repro.errors import LedgerError
from repro.storage.executor import ExecutionEngine
from repro.storage.kvstore import KeyValueStore
from repro.storage.ledger import Ledger
from repro.storage.locks import LockManager
from repro.txn.transaction import TransactionBuilder


def _txn(txn_id, key="user1"):
    return TransactionBuilder(txn_id, "c").read_modify_write(0, key, f"{txn_id}-v").build()


class TestStoreReplace:
    def test_replace_swaps_full_contents(self):
        store = KeyValueStore(0, {"user1": "old", "user2": "old"})
        store.write("user1", "modified")
        store.replace({"user1": "adopted", "user9": "new"})
        assert store.read("user1") == "adopted"
        assert store.read("user9") == "new"
        assert "user2" not in store

    def test_replace_adopts_the_snapshot_versions(self):
        store = KeyValueStore(0, {"user1": "old"})
        store.write("user1", "v2")
        store.replace({"user1": "adopted", "user2": "same"}, {"user1": 4})
        assert store.version("user1") == 4
        assert store.version("user2") == 0
        store.write("user1", "next")
        assert store.version("user1") == 5


class TestExecutorAdoption:
    def test_mark_executed_prevents_reexecution(self):
        store = KeyValueStore(0, {"user1": "adopted-value"})
        engine = ExecutionEngine(0, store)
        engine.mark_executed(["t-old"])
        assert engine.already_executed("t-old")
        # Re-executing the adopted transaction keeps the adopted state.
        result = engine.execute_fragment(_txn("t-old"))
        assert result.writes == {}
        assert store.read("user1") == "adopted-value"

    def test_executed_txn_ids_lists_both_adopted_and_executed(self):
        store = KeyValueStore(0, {"user1": "x"})
        engine = ExecutionEngine(0, store)
        engine.execute_fragment(_txn("t-real"))
        engine.mark_executed(["t-adopted"])
        assert set(engine.executed_txn_ids()) == {"t-real", "t-adopted"}

    def test_mark_executed_does_not_override_real_results(self):
        store = KeyValueStore(0, {"user1": "x"})
        engine = ExecutionEngine(0, store)
        engine.execute_fragment(_txn("t1"))
        engine.mark_executed(["t1"])
        assert engine.writes_of("t1")  # the real writes survive


class TestLedgerAdoption:
    def _chain(self, length):
        ledger = Ledger(shard_id=0)
        for i in range(length):
            ledger.append_batch(i + 1, "p", [_txn(f"t{i}")])
        return ledger

    def test_adopt_missing_suffix(self):
        ahead = self._chain(5)
        behind = self._chain(2)
        adopted = behind.adopt_blocks(ahead.blocks()[1:])
        assert adopted == 3
        assert behind.height == 5
        assert behind.verify_chain()
        assert behind.head.block_hash() == ahead.head.block_hash()

    def test_adopt_is_idempotent_on_shared_prefix(self):
        ahead = self._chain(3)
        same = self._chain(3)
        assert same.adopt_blocks(ahead.blocks()[1:]) == 0

    def test_conflicting_prefix_is_rejected(self):
        ahead = self._chain(3)
        conflicting = Ledger(shard_id=0)
        conflicting.append_batch(1, "p", [_txn("different")])
        with pytest.raises(LedgerError):
            conflicting.adopt_blocks(ahead.blocks()[1:])


class TestLockFastForward:
    def test_fast_forward_advances_k_max_and_drops_stale_pending(self):
        locks = LockManager(shard_id=0)
        locks.try_lock(3, "t3", frozenset({"c"}))  # waits: sequence gap
        unblocked = locks.fast_forward(5)
        assert locks.k_max == 5
        assert unblocked == []
        assert locks.pending_sequences == ()

    def test_fast_forward_unblocks_later_transactions(self):
        locks = LockManager(shard_id=0)
        locks.try_lock(6, "t6", frozenset({"a"}))
        unblocked = locks.fast_forward(5)
        assert unblocked == ["t6"]
        assert locks.k_max == 6

    def test_fast_forward_backwards_is_a_noop(self):
        locks = LockManager(shard_id=0)
        locks.try_lock(1, "t1", frozenset({"a"}))
        assert locks.fast_forward(0) == []
        assert locks.k_max == 1
