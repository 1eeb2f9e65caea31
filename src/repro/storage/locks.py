"""Per-shard data-item lock manager with sequence-ordered acquisition.

RingBFT's deadlock-freedom argument (Theorem 6.2) rests on two rules enforced
here:

1. Replicas may run the Prepare/Commit phases of many transactions
   out of order, but **locks are acquired in transactional sequence order**:
   a transaction at sequence ``k`` may only lock once every transaction up to
   ``k - 1`` has locked (tracked by ``k_max``).
2. A committed transaction that cannot lock because a data item is still held
   waits in the pending list ``pi`` and is retried when locks are released.

The lock manager is deliberately conservative: a transaction locks *all* of
the keys it accesses in this shard (reads and writes), exactly as the paper
describes ("lock all the read-write sets that transaction T_I needs to access
in shard S").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import LockError


@dataclass
class _PendingEntry:
    sequence: int
    txn_id: str
    keys: frozenset[str]


@dataclass
class LockManager:
    """Lock table for a single replica of one shard."""

    shard_id: int
    _held: dict[str, str] = field(default_factory=dict)  # key -> txn_id
    _txn_keys: dict[str, frozenset[str]] = field(default_factory=dict)
    _k_max: int = 0
    _pending: dict[int, _PendingEntry] = field(default_factory=dict)
    _skipped: set[int] = field(default_factory=set)

    @property
    def k_max(self) -> int:
        """Sequence number of the last transaction that acquired its locks."""
        return self._k_max

    @property
    def pending_sequences(self) -> tuple[int, ...]:
        """Sequences currently waiting in the pending list ``pi``."""
        return tuple(sorted(self._pending))

    @property
    def pending_txn_ids(self) -> frozenset[str]:
        """Transactions currently waiting in the pending list ``pi``."""
        return frozenset(entry.txn_id for entry in self._pending.values())

    def holder_of(self, key: str) -> str | None:
        """The transaction currently holding ``key``, if any."""
        return self._held.get(key)

    def holds(self, txn_id: str) -> bool:
        return txn_id in self._txn_keys

    def is_free(self, keys: frozenset[str]) -> bool:
        """True when none of ``keys`` is currently locked."""
        return all(key not in self._held for key in keys)

    def _acquire(self, txn_id: str, keys: frozenset[str]) -> None:
        for key in keys:
            holder = self._held.get(key)
            if holder is not None and holder != txn_id:
                raise LockError(
                    f"key {key!r} already locked by {holder!r}; cannot grant to {txn_id!r}"
                )
        for key in keys:
            self._held[key] = txn_id
        self._txn_keys[txn_id] = keys

    def try_lock(self, sequence: int, txn_id: str, keys: frozenset[str]) -> tuple[bool, list[str]]:
        """Attempt to lock ``keys`` for the transaction committed at ``sequence``.

        Returns ``(acquired, unblocked)`` where ``acquired`` states whether
        *this* transaction got its locks now, and ``unblocked`` is the ordered
        list of previously pending transaction ids that were subsequently able
        to lock (the "gradually release transactions in pi" step of
        Section 4.3.5).  If the transaction must wait -- either because its
        sequence is ahead of ``k_max + 1`` or because a key is held -- it is
        stored in the pending list and ``acquired`` is ``False``.
        """
        if sequence <= 0:
            raise LockError("sequence numbers start at 1")
        if txn_id in self._txn_keys:
            return True, []
        if sequence <= self._k_max:
            raise LockError(
                f"sequence {sequence} was already processed (k_max={self._k_max})"
            )
        if sequence != self._k_max + 1 or not self.is_free(keys):
            self._pending[sequence] = _PendingEntry(sequence=sequence, txn_id=txn_id, keys=keys)
            # Even the head-of-line transaction waits when its data is locked;
            # it will be retried by release().
            return False, []
        self._acquire(txn_id, keys)
        self._k_max = sequence
        return True, self._drain_pending()

    def fast_forward(self, sequence: int) -> list[str]:
        """Advance ``k_max`` to ``sequence`` (state transfer install).

        Used when a lagging replica adopts a peer's state: every sequence up
        to the peer's execution point is considered handled.  Pending
        transactions at or below the new ``k_max`` are dropped (their effects
        are already part of the adopted snapshot); later ones may now unblock.
        """
        if sequence <= self._k_max:
            return []
        for seq in [s for s in self._pending if s <= sequence]:
            del self._pending[seq]
        self._skipped = {s for s in self._skipped if s > sequence}
        self._k_max = sequence
        return self._drain_pending()

    def skip_sequence(self, sequence: int) -> list[str]:
        """Mark ``sequence`` as a no-op that will never acquire locks.

        View changes can abandon sequence numbers (the primary that assigned
        them failed before the request prepared anywhere); skipping them keeps
        the strictly ordered lock acquisition from stalling on the gap.
        Returns the transactions unblocked by closing the gap.
        """
        if sequence <= self._k_max:
            return []
        self._skipped.add(sequence)
        return self._drain_pending()

    def _drain_pending(self) -> list[str]:
        """Grant locks to pending transactions in sequence order until one blocks."""
        unblocked: list[str] = []
        while True:
            if self._k_max + 1 in self._skipped:
                self._skipped.discard(self._k_max + 1)
                self._k_max += 1
                continue
            nxt = self._pending.get(self._k_max + 1)
            if nxt is None:
                break
            if not self.is_free(nxt.keys):
                break
            del self._pending[nxt.sequence]
            self._acquire(nxt.txn_id, nxt.keys)
            self._k_max = nxt.sequence
            unblocked.append(nxt.txn_id)
        return unblocked

    def release(self, txn_id: str) -> list[str]:
        """Release all locks held by ``txn_id``; returns newly unblocked txn ids."""
        keys = self._txn_keys.pop(txn_id, None)
        if keys is None:
            raise LockError(f"transaction {txn_id!r} holds no locks in shard {self.shard_id}")
        for key in keys:
            if self._held.get(key) == txn_id:
                del self._held[key]
        return self._drain_pending()

    def held_keys(self, txn_id: str) -> frozenset[str]:
        return self._txn_keys.get(txn_id, frozenset())

    @property
    def locked_key_count(self) -> int:
        return len(self._held)
