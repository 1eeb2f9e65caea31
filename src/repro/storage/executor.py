"""Deterministic transaction execution against a replica's partition.

Execution happens after consensus: every non-faulty replica applies the same
fragments in the same order, so all copies of a partition stay identical
(non-divergence).  For *complex* cross-shard transactions a fragment may
depend on values owned by other shards; those values arrive in the ``Sigma``
write-sets carried by second-rotation ``Execute`` messages and are passed in
via ``remote_values``.

A replica keeps, per executed transaction, only the writes it applied, to
answer retransmitted client requests.  They are kept as one flat
``(key, value, key, value, ...)`` tuple: a YCSB fragment writes one key, and
that tuple is about a third of the size of a one-entry dict.  The reads and
the dependency set of a result go back to the caller of
:meth:`ExecutionEngine.execute_fragment` and are not retained.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from repro.errors import StorageError
from repro.storage.kvstore import KeyValueStore
from repro.txn.transaction import OpType, Transaction


#: The dependency set of every complete result; one shared empty set instead
#: of a fresh one per executed fragment.
_NO_MISSING: frozenset[tuple[int, str]] = frozenset()


@dataclass(frozen=True, slots=True)
class ExecutionResult:
    """Outcome of executing one transaction's fragment on one shard."""

    txn_id: str
    shard_id: int
    reads: dict[str, str]
    writes: dict[str, str]
    missing_dependencies: frozenset[tuple[int, str]] = _NO_MISSING

    @property
    def complete(self) -> bool:
        """True when every cross-shard dependency was satisfied."""
        return not self.missing_dependencies


@dataclass
class ExecutionEngine:
    """Executes transaction fragments for one replica."""

    shard_id: int
    store: KeyValueStore
    #: txn id -> the writes its fragment applied here, flattened to
    #: ``(key, value, ...)``; empty for a transaction adopted through state
    #: transfer.
    _executed: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def already_executed(self, txn_id: str) -> bool:
        return txn_id in self._executed

    def executed_txn_ids(self) -> tuple[str, ...]:
        """Identifiers of every transaction this replica has executed."""
        return tuple(self._executed)

    def mark_executed(self, txn_ids: tuple[str, ...] | list[str]) -> None:
        """Adopt execution results received via state transfer.

        The actual values already live in the store snapshot; recording the
        transaction ids prevents re-execution and lets retransmitted client
        requests be answered from the adopted state.
        """
        for txn_id in txn_ids:
            self._executed.setdefault(txn_id, ())

    def writes_of(self, txn_id: str) -> dict[str, str]:
        """The writes ``txn_id``'s fragment applied here, as a fresh dict."""
        flat = self._executed.get(txn_id)
        if flat is None:
            raise StorageError(f"transaction {txn_id!r} has not been executed on shard {self.shard_id}")
        return dict(zip(flat[::2], flat[1::2]))

    def result_for(self, txn_id: str) -> ExecutionResult:
        """The retained part of an executed fragment's result: its writes.

        ``reads`` is empty and ``missing_dependencies`` is not kept.
        """
        return ExecutionResult(
            txn_id=txn_id, shard_id=self.shard_id, reads={}, writes=self.writes_of(txn_id)
        )

    def execute_fragment(
        self,
        txn: Transaction,
        remote_values: dict[int, dict[str, str]] | None = None,
    ) -> ExecutionResult:
        """Execute the local fragment of ``txn``.

        ``remote_values`` maps shard -> {key -> value} and supplies the values
        needed by operations with cross-shard dependencies.  Execution is
        idempotent: re-executing a transaction applies nothing and returns
        :meth:`result_for` (the stored writes, no reads).
        """
        if txn.txn_id in self._executed:
            return self.result_for(txn.txn_id)
        remote_values = remote_values or {}
        reads: dict[str, str] = {}
        writes: dict[str, str] = {}
        missing: set[tuple[int, str]] = set()
        for op in txn.fragment_for(self.shard_id):
            if op.op_type is OpType.READ:
                if op.key in self.store:
                    reads[op.key] = self.store.read(op.key)
                else:
                    reads[op.key] = ""
                continue
            # WRITE: resolve dependencies first.
            dependency_suffix = ""
            for dep_shard, dep_key in op.depends_on:
                if dep_shard == self.shard_id:
                    value = self.store.read(dep_key) if dep_key in self.store else ""
                else:
                    value = remote_values.get(dep_shard, {}).get(dep_key)
                    if value is None:
                        missing.add((dep_shard, dep_key))
                        continue
                dependency_suffix += f"|{dep_shard}:{dep_key}={value}"
            new_value = op.value + dependency_suffix
            self.store.write(op.key, new_value)
            writes[op.key] = new_value
        result = ExecutionResult(
            txn_id=txn.txn_id,
            shard_id=self.shard_id,
            reads=reads,
            writes=writes,
            missing_dependencies=frozenset(missing) if missing else _NO_MISSING,
        )
        self._executed[txn.txn_id] = tuple(chain.from_iterable(writes.items()))
        return result

    def execute_batch(
        self,
        transactions: list[Transaction] | tuple[Transaction, ...],
        remote_values: dict[int, dict[str, str]] | None = None,
    ) -> list[ExecutionResult]:
        """Execute every fragment of a committed batch, in batch order."""
        return [self.execute_fragment(txn, remote_values) for txn in transactions]

    @property
    def executed_count(self) -> int:
        return len(self._executed)
