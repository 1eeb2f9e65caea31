"""Request batching (Section 7, *Blockchain*; Section 8, batch-size study).

Primaries aggregate client requests into batches and run one consensus per
batch.  The paper requires every request in a batch to access the *same set of
shards*, so a cross-shard batch travels the ring as a single unit and the
resulting block is appended to the ledger of every involved shard.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.common.messages import ClientRequest


@dataclass
class Batcher:
    """Groups incoming client requests by involved-shard set.

    ``batch_size`` requests with identical involved-shard sets form one batch.
    ``flush`` force-closes partially filled groups (used at the end of a
    simulation or when a batching timer fires).
    """

    batch_size: int
    _groups: "OrderedDict[frozenset[int], list[ClientRequest]]" = field(default_factory=OrderedDict)
    #: Requests waiting across all groups (kept running: the pipelined pump
    #: reads it on every arrival).
    pending: int = field(default=0, init=False)

    def add(self, request: ClientRequest) -> list[ClientRequest] | None:
        """Add a request; return a full batch if one just completed, else ``None``."""
        key = request.transaction.involved_shards
        group = self._groups.setdefault(key, [])
        group.append(request)
        self.pending += 1
        if len(group) >= self.batch_size:
            return self._pop(key, group, len(group))
        return None

    def stage(self, request: ClientRequest) -> None:
        """Queue a request without closing a batch.

        Pipelined primaries stage requests and pull them back out through
        :meth:`take` with an adaptively chosen size, instead of letting the
        fixed ``batch_size`` threshold close batches.
        """
        key = request.transaction.involved_shards
        self._groups.setdefault(key, []).append(request)
        self.pending += 1

    def _pop(
        self, key: frozenset[int], group: list[ClientRequest], size: int
    ) -> list[ClientRequest]:
        """Remove the first ``size`` requests of ``group`` (an emptied group goes)."""
        self.pending -= min(size, len(group))
        if len(group) <= size:
            del self._groups[key]
            return group
        batch = group[:size]
        del group[:size]
        return batch

    def take(self, max_size: int) -> list[ClientRequest] | None:
        """Pop up to ``max_size`` requests from the oldest pending group.

        Batches stay homogeneous (one involved-shard set per batch), so a
        single call never mixes groups; ``None`` means nothing is pending.
        """
        if max_size < 1 or not self._groups:
            return None
        key, group = next(iter(self._groups.items()))
        return self._pop(key, group, max_size)

    def take_full(self, size: int) -> list[ClientRequest] | None:
        """Pop exactly ``size`` requests from the oldest group holding that many.

        Unlike :meth:`take` this looks past an older, partially filled group:
        a minority involved-shard set must not make a full batch wait behind
        it.  ``None`` means no group is full yet.
        """
        for key, group in self._groups.items():
            if len(group) >= size:
                return self._pop(key, group, size)
        return None

    @staticmethod
    def even_split(count: int, max_size: int) -> list[int]:
        """Split ``count`` requests into near-equal chunk sizes of at most ``max_size``.

        Balanced ceil-division: 9 requests with ``max_size=4`` become
        ``3+3+3``, never ``4+4+1`` -- the shared sizing rule that keeps a
        timer flush from emitting one-request crumbs while the queue is deep.
        """
        chunks = -(-count // max_size)
        base, extra = divmod(count, chunks)
        return [base + 1] * extra + [base] * (chunks - extra)

    def flush(self) -> list[list[ClientRequest]]:
        """Close and return every partially filled batch, one per group."""
        batches = [group for group in self._groups.values() if group]
        self._groups.clear()
        self.pending = 0
        return batches
