"""Unit tests for the execution engine and the checkpoint store."""

from repro.storage.checkpoint import CheckpointStore
from repro.storage.executor import ExecutionEngine
from repro.storage.kvstore import KeyValueStore
from repro.txn.transaction import TransactionBuilder


def _engine(shard_id=0, records=None):
    store = KeyValueStore(shard_id, records or {"user1": "init", "user2": "init"})
    return ExecutionEngine(shard_id, store), store


class TestExecutionEngine:
    def test_read_modify_write_applies_value(self):
        engine, store = _engine()
        txn = TransactionBuilder("t1", "c").read_modify_write(0, "user1", "updated").build()
        result = engine.execute_fragment(txn)
        assert result.reads == {"user1": "init"}
        assert result.writes == {"user1": "updated"}
        assert store.read("user1") == "updated"

    def test_execution_is_idempotent(self):
        engine, store = _engine()
        txn = TransactionBuilder("t1", "c").read_modify_write(0, "user1", "v").build()
        first = engine.execute_fragment(txn)
        version = store.version("user1")
        second = engine.execute_fragment(txn)
        assert second.writes == first.writes == {"user1": "v"}
        # Nothing was applied twice.
        assert store.version("user1") == version == 1

    def test_only_the_writes_are_retained(self):
        engine, _ = _engine()
        txn = TransactionBuilder("t1", "c").read_modify_write(0, "user1", "v").build()
        assert engine.execute_fragment(txn).reads == {"user1": "init"}
        assert engine.writes_of("t1") == {"user1": "v"}
        assert engine.result_for("t1").reads == {}

    def test_only_local_fragment_is_executed(self):
        engine, store = _engine()
        txn = (
            TransactionBuilder("t1", "c")
            .read_modify_write(0, "user1", "local")
            .read_modify_write(1, "user999", "remote")
            .build()
        )
        result = engine.execute_fragment(txn)
        assert "user999" not in result.writes
        assert "user999" not in store

    def test_missing_local_read_returns_empty_string(self):
        engine, _ = _engine(records={"user1": "x"})
        txn = TransactionBuilder("t1", "c").read(0, "user404").build()
        result = engine.execute_fragment(txn)
        assert result.reads == {"user404": ""}

    def test_dependency_resolved_from_remote_values(self):
        engine, store = _engine()
        txn = (
            TransactionBuilder("t1", "c")
            .write(0, "user1", "base", depends_on=((2, "remote-key"),))
            .build()
        )
        result = engine.execute_fragment(txn, remote_values={2: {"remote-key": "rv"}})
        assert result.complete
        assert "2:remote-key=rv" in result.writes["user1"]
        assert "2:remote-key=rv" in store.read("user1")

    def test_missing_dependency_is_reported(self):
        engine, _ = _engine()
        txn = (
            TransactionBuilder("t1", "c")
            .write(0, "user1", "base", depends_on=((2, "remote-key"),))
            .build()
        )
        result = engine.execute_fragment(txn)
        assert not result.complete
        assert result.missing_dependencies == frozenset({(2, "remote-key")})

    def test_local_dependency_resolved_from_own_store(self):
        engine, _ = _engine(records={"user1": "init", "user2": "neighbour"})
        txn = (
            TransactionBuilder("t1", "c")
            .write(0, "user1", "base", depends_on=((0, "user2"),))
            .build()
        )
        result = engine.execute_fragment(txn)
        assert "0:user2=neighbour" in result.writes["user1"]

    def test_execute_batch_preserves_order(self):
        engine, store = _engine()
        first = TransactionBuilder("t1", "c").write(0, "user1", "one").build()
        second = TransactionBuilder("t2", "c").write(0, "user1", "two").build()
        engine.execute_batch([first, second])
        assert store.read("user1") == "two"
        assert engine.executed_count == 2

    def test_result_for_unknown_txn_raises(self):
        engine, _ = _engine()
        import pytest

        from repro.errors import StorageError

        with pytest.raises(StorageError):
            engine.result_for("ghost")
        with pytest.raises(StorageError):
            engine.writes_of("ghost")


class TestCheckpointStore:
    def test_should_checkpoint_every_interval(self):
        checkpoints = CheckpointStore(interval=10, quorum=3)
        assert checkpoints.should_checkpoint(10)
        assert checkpoints.should_checkpoint(20)
        assert not checkpoints.should_checkpoint(5)
        assert not checkpoints.should_checkpoint(0)

    def test_checkpoint_becomes_stable_with_quorum(self):
        checkpoints = CheckpointStore(interval=5, quorum=3)
        assert not checkpoints.add_vote(5, "r0")
        assert not checkpoints.add_vote(5, "r1")
        assert checkpoints.add_vote(5, "r2")
        assert checkpoints.last_stable_sequence == 5

    def test_duplicate_votes_do_not_reach_quorum(self):
        checkpoints = CheckpointStore(interval=5, quorum=2)
        assert not checkpoints.add_vote(5, "r0")
        assert not checkpoints.add_vote(5, "r0")

    def test_old_checkpoints_do_not_regress_stability(self):
        checkpoints = CheckpointStore(interval=2, quorum=3)
        for replica in ("r0", "r1", "r2"):
            checkpoints.add_vote(4, replica)
        assert checkpoints.last_stable_sequence == 4
        for replica in ("r0", "r1", "r2"):
            checkpoints.add_vote(2, replica)
        assert checkpoints.last_stable_sequence == 4
