"""Quorum arithmetic for the sharded fault model (Section 3).

Each shard tolerates ``f`` Byzantine replicas out of ``n >= 3f + 1``.  The
protocol phases rely on three thresholds:

* ``nf = n - f`` identical Prepare/Commit messages prove a majority of
  non-faulty replicas support a proposal (quorum intersection argument of
  Proposition 6.1);
* ``f + 1`` identical messages prove at least one non-faulty replica sent the
  message (used for client responses, Forward acceptance, RemoteView);
* ``2f + 1`` appears in classic PBFT formulations; with ``n = 3f + 1`` it is
  the same as ``nf`` and the code always goes through ``nf``.

Every site that acts on such a threshold counts its voters through one
:class:`Tally`, whose :meth:`Tally.add` reports the crossing exactly once.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable
from dataclasses import dataclass
from typing import Generic, TypeVar

from repro.errors import QuorumError

B = TypeVar("B", bound=Hashable)


def max_faulty(n: int) -> int:
    """Largest ``f`` a shard of ``n`` replicas can tolerate (``n >= 3f + 1``)."""
    if n < 1:
        raise QuorumError(f"a shard needs at least one replica, got {n}")
    return (n - 1) // 3


@dataclass(frozen=True)
class QuorumSpec:
    """Quorum thresholds for one shard of ``n`` replicas tolerating ``f`` faults."""

    n: int
    f: int

    def __post_init__(self) -> None:
        if self.n < 3 * self.f + 1:
            raise QuorumError(
                f"n={self.n} cannot tolerate f={self.f} Byzantine replicas (need n >= 3f + 1)"
            )
        if self.f < 0:
            raise QuorumError("f cannot be negative")

    @classmethod
    def for_replicas(cls, n: int) -> "QuorumSpec":
        """Build a spec tolerating the maximum number of faults for ``n``."""
        return cls(n=n, f=max_faulty(n))

    @property
    def nf(self) -> int:
        """Number of non-faulty replicas; also the commit-quorum size."""
        return self.n - self.f

    @property
    def commit_quorum(self) -> int:
        """Identical messages needed to mark a proposal prepared/committed."""
        return self.nf

    @property
    def weak_quorum(self) -> int:
        """Messages guaranteeing at least one non-faulty sender (``f + 1``)."""
        return self.f + 1

    @property
    def view_change_quorum(self) -> int:
        """ViewChange messages a new primary must collect to install a view."""
        return self.nf

    def intersects(self, other_quorum_size: int) -> bool:
        """True when any two quorums of the given sizes must share a non-faulty replica."""
        return self.commit_quorum + other_quorum_size - self.n > self.f


class Tally(Generic[B]):
    """Distinct voters per bucket, with an exactly-once threshold edge.

    A bucket is whatever the votes agree on (a batch digest, an origin shard,
    a (shard, Sigma) pair); a voter is the authenticated sender.  ``threshold``
    is either one number for every bucket or a function of the bucket (for
    per-shard quorums of differently sized shards).

    :meth:`add` returns True on exactly one vote per bucket: the one that
    brings the bucket to its threshold.  A repeated (bucket, voter) pair is a
    no-op, so an "already acted" flag is never needed beside a tally.
    :meth:`count` and :meth:`reached` serve sites that must re-check a quorum
    when some other precondition arrives later (a PrePrepare after its
    Prepares, a proposal after its votes).

    A voter who votes in two buckets counts in both.  With ``nf``-sized
    quorums and ``n >= 3f + 1`` two buckets still cannot both reach quorum
    unless a correct replica voted twice: two sets of ``n - f`` voters out of
    ``n`` share at least ``n - 2f >= f + 1`` voters, at least one of them
    correct, and a correct replica votes for one digest per (view, sequence).
    """

    __slots__ = ("_threshold", "_voters")

    def __init__(self, threshold: int | Callable[[B], int]) -> None:
        self._threshold = threshold
        self._voters: dict[B, set[Hashable]] = {}

    def _threshold_of(self, bucket: B) -> int:
        threshold = self._threshold
        return threshold if isinstance(threshold, int) else threshold(bucket)

    def add(self, bucket: B, voter: Hashable) -> bool:
        """Count ``voter`` for ``bucket``; True only on the vote that reaches the threshold.

        The edge fires once per bucket for as long as the bucket is kept:
        counts only grow, by one per new voter, until :meth:`discard`.
        """
        voters = self._voters.get(bucket)
        if voters is None:
            voters = self._voters[bucket] = set()
        count = len(voters)
        voters.add(voter)
        if len(voters) == count:
            return False
        return count + 1 == self._threshold_of(bucket)

    def count(self, bucket: B) -> int:
        return len(self._voters.get(bucket, ()))

    def reached(self, bucket: B) -> bool:
        return self.count(bucket) >= self._threshold_of(bucket)

    def __contains__(self, vote: tuple[B, Hashable]) -> bool:
        bucket, voter = vote
        return voter in self._voters.get(bucket, ())

    def buckets(self) -> list[B]:
        """Every bucket holding at least one vote, in first-vote order."""
        return list(self._voters)

    def discard(self, bucket: B) -> None:
        """Forget every vote of ``bucket`` (garbage collection)."""
        self._voters.pop(bucket, None)

    @property
    def votes(self) -> int:
        """Total (bucket, voter) pairs held -- a retained-state gauge."""
        return sum(len(voters) for voters in self._voters.values())
