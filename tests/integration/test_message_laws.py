"""Message-complexity laws: what each protocol sends for one transaction.

One fault-free transaction touching all ``s`` shards of ``n`` replicas each,
at batch size 1, sends a number of messages of each type that is a closed
form in ``s`` and ``n``; one touching a single shard runs plain PBFT in that
shard alone, whatever the protocol and ``s``.  These laws are the paper's communication-complexity
argument made exact (linear inter-shard traffic for RingBFT against
all-to-all for AHL and Sharper), so a change that alters what a protocol
sends has to change this file and say why.
"""

from __future__ import annotations

import pytest

from repro.baselines.ahl.replica import AhlReplica
from repro.baselines.sharper.replica import SharperReplica
from repro.core.replica import RingBftReplica
from repro.txn.transaction import TransactionBuilder
from tests.conftest import build_cluster

GRID = [(s, n) for s in (2, 3) for n in (4, 7, 13)]


def _counts_for_one_transaction(replica_class, s: int, n: int, shards) -> dict[str, int]:
    cluster = build_cluster(num_shards=s, replicas=n, replica_class=replica_class)
    builder = TransactionBuilder(f"law-{s}x{n}", "client-0")
    for shard in shards:
        builder.read_modify_write(shard, cluster.table.local_record(shard, 2), f"v@{shard}")
    cluster.submit(builder.build())
    assert cluster.run_until_clients_done(timeout=120.0)
    assert all(cluster.ledgers_consistent(shard) for shard in range(s))
    return cluster.message_counts()


def _counts_for_one_all_shard_transaction(replica_class, s: int, n: int) -> dict[str, int]:
    return _counts_for_one_transaction(replica_class, s, n, range(s))


@pytest.mark.parametrize("s,n", GRID)
def test_ringbft_law(s, n):
    assert _counts_for_one_all_shard_transaction(RingBftReplica, s, n) == {
        "PrePrepare": s * (n - 1),
        "Prepare": s * n * (n - 1),
        "Commit": s * n * (n - 1),
        "Forward": s * n * n,
        "Execute": s * n * n,
        "ClientResponse": n,
    }


@pytest.mark.parametrize("s,n", GRID)
def test_ahl_law(s, n):
    counts = _counts_for_one_all_shard_transaction(AhlReplica, s, n)
    committee_vote_count = counts.pop("CommitteeVote")
    assert counts == {
        "PrePrepare": s * (n - 1),
        "Prepare": s * n * (n - 1),
        "Commit": s * n * (n - 1),
        "Prepare2PC": (s - 1) * n * n,
        "Vote2PC": n * (s * n - 1),
        "Decide2PC": n * (s * n - 1),
        "ClientResponse": n,
    }
    # Each committee replica sends its CommitteeVote at most once per batch;
    # one that sees the committee's decision quorum first sends none.
    assert committee_vote_count <= n * (n - 1)
    if s == 2:
        assert committee_vote_count == n * (n - 1)


@pytest.mark.parametrize("s,n", GRID)
def test_sharper_law(s, n):
    assert _counts_for_one_all_shard_transaction(SharperReplica, s, n) == {
        "CrossPropose": s * n - 1,
        "CrossPrepare": s * n * (s * n - 1),
        "CrossCommit": s * n * (s * n - 1),
        "ClientResponse": n,
    }


@pytest.mark.parametrize("replica_class", [RingBftReplica, AhlReplica, SharperReplica])
@pytest.mark.parametrize("s,n", GRID)
def test_single_shard_law(replica_class, s, n):
    assert _counts_for_one_transaction(replica_class, s, n, [s - 1]) == {
        "PrePrepare": n - 1,
        "Prepare": n * (n - 1),
        "Commit": n * (n - 1),
        "ClientResponse": n,
    }
