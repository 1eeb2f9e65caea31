"""Per-shard storage substrates: KV store, lock manager, ledger, execution, checkpoints."""

from repro.storage.kvstore import KeyValueStore, PartitionImage, ShardedKeyValueStore
from repro.storage.locks import LockManager
from repro.storage.ledger import Block, Ledger
from repro.storage.executor import ExecutionEngine, ExecutionResult
from repro.storage.checkpoint import CheckpointStore

__all__ = [
    "KeyValueStore",
    "PartitionImage",
    "ShardedKeyValueStore",
    "LockManager",
    "Block",
    "Ledger",
    "ExecutionEngine",
    "ExecutionResult",
    "CheckpointStore",
]
