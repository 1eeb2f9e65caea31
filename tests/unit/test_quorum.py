"""Unit tests for quorum arithmetic (n >= 3f + 1)."""

import pytest

from repro.common.quorum import QuorumSpec, Tally, max_faulty
from repro.common.types import ReplicaId
from repro.errors import QuorumError


class TestMaxFaulty:
    @pytest.mark.parametrize(
        "n, expected",
        [(1, 0), (3, 0), (4, 1), (6, 1), (7, 2), (10, 3), (16, 5), (28, 9), (32, 10)],
    )
    def test_max_faulty_values(self, n, expected):
        assert max_faulty(n) == expected

    def test_zero_replicas_rejected(self):
        with pytest.raises(QuorumError):
            max_faulty(0)


class TestQuorumSpec:
    def test_commit_quorum_is_n_minus_f(self):
        spec = QuorumSpec(n=4, f=1)
        assert spec.commit_quorum == 3
        assert spec.nf == 3

    def test_weak_quorum_is_f_plus_one(self):
        assert QuorumSpec(n=28, f=9).weak_quorum == 10

    def test_view_change_quorum_matches_commit_quorum(self):
        spec = QuorumSpec.for_replicas(16)
        assert spec.view_change_quorum == spec.commit_quorum

    def test_insufficient_replication_rejected(self):
        with pytest.raises(QuorumError):
            QuorumSpec(n=3, f=1)

    def test_negative_faults_rejected(self):
        with pytest.raises(QuorumError):
            QuorumSpec(n=4, f=-1)

    def test_for_replicas_uses_maximum_tolerance(self):
        spec = QuorumSpec.for_replicas(28)
        assert spec.f == 9
        assert spec.n == 28

    @pytest.mark.parametrize("n", [4, 7, 10, 16, 22, 28, 31])
    def test_two_commit_quorums_intersect_in_a_nonfaulty_replica(self, n):
        # The quorum-intersection argument of Proposition 6.1: any two commit
        # quorums share at least one non-faulty replica.
        spec = QuorumSpec.for_replicas(n)
        assert spec.intersects(spec.commit_quorum)

    def test_weak_quorums_need_not_intersect(self):
        spec = QuorumSpec.for_replicas(28)
        assert not spec.intersects(spec.weak_quorum)


def _replicas(n, shard=0):
    return [ReplicaId(shard=shard, index=i) for i in range(n)]


class TestTally:
    def test_edge_fires_exactly_once_per_bucket(self):
        tally = Tally(3)
        edges = [tally.add(b"d", r) for r in _replicas(7)]
        assert edges == [False, False, True, False, False, False, False]
        assert tally.count(b"d") == 7
        assert tally.reached(b"d")

    def test_duplicate_voter_is_a_no_op(self):
        tally = Tally(2)
        r0, r1 = _replicas(2)
        assert not tally.add(b"d", r0)
        assert not tally.add(b"d", r0)
        assert tally.count(b"d") == 1
        assert tally.add(b"d", r1)
        # A duplicate after the crossing does not fire again either.
        assert not tally.add(b"d", r1)
        assert tally.count(b"d") == 2

    def test_buckets_are_independent(self):
        tally = Tally(2)
        r0, r1 = _replicas(2)
        assert not tally.add(b"a", r0)
        assert not tally.add(b"b", r1)
        assert tally.count(b"a") == tally.count(b"b") == 1
        assert not tally.reached(b"a")
        assert tally.add(b"a", r1)
        assert not tally.reached(b"b")
        assert tally.count(b"never") == 0
        assert tally.buckets() == [b"a", b"b"]

    def test_threshold_one_fires_on_the_first_vote(self):
        tally = Tally(1)
        r0, r1 = _replicas(2)
        assert tally.add(0, r0)
        assert not tally.add(0, r1)
        assert tally.add(1, r1)

    def test_per_bucket_threshold(self):
        # Shards of different sizes: a shard's weak quorum is f + 1 of its own n.
        tally = Tally(lambda shard: QuorumSpec.for_replicas(4 if shard == 0 else 7).weak_quorum)
        assert [tally.add(0, r) for r in _replicas(2, shard=0)] == [False, True]
        assert [tally.add(1, r) for r in _replicas(3, shard=1)] == [False, False, True]

    def test_a_voter_in_two_buckets_counts_in_both(self):
        """The equivocation policy: votes are distinct per (bucket, voter).

        An equivocating voter adds one to each digest it votes for.  With nf
        quorums two digests still cannot both commit: their voter sets overlap
        in n - 2f >= f + 1 replicas, so some correct replica voted twice.
        """
        spec = QuorumSpec.for_replicas(4)
        tally = Tally(spec.commit_quorum)
        r0, r1, r2, byzantine = _replicas(4)
        for voter in (r0, r1, byzantine):
            tally.add(b"a", voter)
        for voter in (r2, byzantine):
            tally.add(b"b", voter)
        assert (b"a", byzantine) in tally and (b"b", byzantine) in tally
        assert (b"b", r0) not in tally
        assert tally.count(b"a") == 3 and tally.reached(b"a")
        # Every correct replica already voted: "b" can never reach nf = 3.
        assert tally.count(b"b") == 2 and not tally.reached(b"b")

    def test_discard_forgets_a_bucket(self):
        tally = Tally(2)
        r0, r1 = _replicas(2)
        tally.add(5, r0)
        tally.add(6, r0)
        tally.add(6, r1)
        assert tally.votes == 3
        tally.discard(6)
        assert tally.count(6) == 0
        assert tally.votes == 1
        assert tally.buckets() == [5]
