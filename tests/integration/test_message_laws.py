"""Message-complexity laws: what each protocol sends for one transaction.

One fault-free transaction touching all ``s`` shards of ``n`` replicas each,
at batch size 1, sends a number of messages of each type that is a closed
form in ``s`` and ``n``; one touching a single shard runs plain PBFT in that
shard alone, whatever the protocol and ``s``.  A batch of ``b`` such
transactions from one client costs what one does, its ``n`` client replies
included: each replica answers a client once per batch, listing all of that
client's transactions.  From ``c`` clients the batch costs ``c * n``
replies.  Sharper's cross-shard path runs one global round per transaction,
so there ``b`` cost ``b`` times one.  These laws are the
paper's communication-complexity argument made exact (linear inter-shard
traffic for RingBFT against all-to-all for AHL and Sharper), so a change
that alters what a protocol sends has to change this file and say why.
"""

from __future__ import annotations

import pytest

from repro.baselines.ahl.replica import AhlReplica
from repro.baselines.sharper.replica import SharperReplica
from repro.core.replica import RingBftReplica
from repro.txn.transaction import TransactionBuilder
from tests.conftest import build_cluster

GRID = [(s, n) for s in (2, 3) for n in (4, 7, 13)]


def _counts_for_one_transaction(
    replica_class, s: int, n: int, shards, batch: int = 1, clients: int = 1
) -> dict[str, int]:
    """Counts for ``batch`` transactions submitted together at batch size
    ``batch``, each on its own records of ``shards``, dealt round-robin over
    ``clients`` clients."""
    cluster = build_cluster(
        num_shards=s,
        replicas=n,
        replica_class=replica_class,
        batch_size=batch,
        num_clients=clients,
    )
    for index in range(batch):
        client_id = f"client-{index % clients}"
        builder = TransactionBuilder(f"law-{s}x{n}-{index}", client_id)
        for shard in shards:
            record = cluster.table.local_record(shard, 2 + index)
            builder.read_modify_write(shard, record, f"v@{shard}")
        cluster.submit(builder.build(), client_id)
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


BATCH_GRID = [(s, n, b) for s, n in ((2, 4), (3, 7)) for b in (2, 4)]


@pytest.mark.parametrize("s,n,b", BATCH_GRID)
def test_ringbft_batch_law(s, n, b):
    law = _counts_for_one_all_shard_transaction(RingBftReplica, s, n)
    assert _counts_for_one_transaction(RingBftReplica, s, n, range(s), batch=b) == law


@pytest.mark.parametrize("s,n,b", BATCH_GRID)
def test_ahl_batch_law(s, n, b):
    law = _counts_for_one_all_shard_transaction(AhlReplica, s, n)
    assert _counts_for_one_transaction(AhlReplica, s, n, range(s), batch=b) == law


@pytest.mark.parametrize("s,n,b", BATCH_GRID)
def test_sharper_batch_law(s, n, b):
    # Sharper runs one global round per cross-shard transaction (its
    # initiator proposes each request on its own), so b transactions cost b
    # times the law, each in its own slot of every involved shard.
    law = _counts_for_one_all_shard_transaction(SharperReplica, s, n)
    counts = _counts_for_one_transaction(SharperReplica, s, n, range(s), batch=b)
    assert counts == {kind: b * count for kind, count in law.items()}


@pytest.mark.parametrize("replica_class", [RingBftReplica, AhlReplica, SharperReplica])
@pytest.mark.parametrize("s,n,b", BATCH_GRID)
def test_single_shard_batch_law(replica_class, s, n, b):
    law = _counts_for_one_transaction(replica_class, s, n, [s - 1])
    assert _counts_for_one_transaction(replica_class, s, n, [s - 1], batch=b) == law


@pytest.mark.parametrize(
    "replica_class,all_shards",
    [(RingBftReplica, True), (AhlReplica, True), (SharperReplica, False)],
)
@pytest.mark.parametrize("s,n", [(2, 4), (3, 7)])
def test_batch_from_several_clients_law(replica_class, all_shards, s, n):
    # Each replica that answers sends one reply per client of the batch.
    # (Sharper's cross-shard path answers per global round, so its
    # several-client case is the single-shard batch.)
    shards = range(s) if all_shards else [s - 1]
    b, c = 4, 2
    law = _counts_for_one_transaction(replica_class, s, n, shards)
    counts = _counts_for_one_transaction(replica_class, s, n, shards, batch=b, clients=c)
    assert counts == {**law, "ClientResponse": c * n}
