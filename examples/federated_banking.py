"""Federated banking: atomic cross-bank settlements over RingBFT.

The motivating scenario of the paper is federated data management: several
parties maintain a common database without trusting each other.  This example
models a consortium of banks, one shard per bank.  Intra-bank payments are
single-shard transactions; inter-bank settlements are cross-shard
transactions that must be committed atomically by every involved bank even
though up to ``f`` replicas per bank may be Byzantine.

The example submits a mix of payments and settlements (some of them touching
the same accounts, i.e. conflicting), runs the simulation, and verifies that

* every settlement was committed by all involved banks,
* conflicting settlements were applied in the same order at every bank,
* all replicas of a bank hold identical account state.

Run with::

    python examples/federated_banking.py
"""

from __future__ import annotations

import argparse

from repro import Deployment, SystemConfig, TransactionBuilder
from repro.config import WorkloadConfig
from repro.engine import BACKENDS

BANKS = {0: "Pacific Trust", 1: "Atlantic Mutual", 2: "Meridian Bank", 3: "Austral Savings"}


def account_key(cluster: Deployment, bank: int, account_index: int) -> str:
    """Pick a record owned by ``bank`` to stand in for an account row."""
    return cluster.table.local_record(bank, account_index)


def intra_bank_payment(cluster: Deployment, txn_id: str, bank: int, account: int, note: str):
    key = account_key(cluster, bank, account)
    return (
        TransactionBuilder(txn_id, "client-0")
        .read_modify_write(bank, key, f"{note} [posted by {BANKS[bank]}]")
        .build()
    )


def settlement(cluster: Deployment, txn_id: str, debtor: int, creditor: int, account: int, amount: int):
    """A cross-bank settlement: one ledger entry on each involved bank."""
    debit_key = account_key(cluster, debtor, account)
    credit_key = account_key(cluster, creditor, account)
    return (
        TransactionBuilder(txn_id, "client-0")
        .read_modify_write(debtor, debit_key, f"debit {amount} -> {BANKS[creditor]} ({txn_id})")
        .read_modify_write(creditor, credit_key, f"credit {amount} <- {BANKS[debtor]} ({txn_id})")
        .build()
    )


def main(backend: str = "sim") -> None:
    config = SystemConfig.uniform(
        num_shards=len(BANKS),
        replicas_per_shard=4,
        workload=WorkloadConfig(num_records=800, batch_size=1, num_clients=1),
    )
    cluster = Deployment.build(config, backend=backend, num_clients=1, batch_size=1)
    print("consortium members:")
    for shard, name in BANKS.items():
        print(f"  shard {shard}: {name} ({config.shard(shard).num_replicas} replicas, "
              f"tolerates {config.shard(shard).max_faulty} Byzantine)")

    # A mix of intra-bank payments and inter-bank settlements.  Settlements
    # s-1 and s-2 both touch Pacific Trust's account 0, so they conflict and
    # must be serialised identically everywhere.
    workload = [
        intra_bank_payment(cluster, "p-1", bank=1, account=3, note="payroll batch 7"),
        settlement(cluster, "s-1", debtor=0, creditor=2, account=0, amount=1_200),
        intra_bank_payment(cluster, "p-2", bank=3, account=5, note="card clearing"),
        settlement(cluster, "s-2", debtor=0, creditor=3, account=0, amount=800),
        settlement(cluster, "s-3", debtor=1, creditor=2, account=4, amount=2_500),
    ]
    for txn in workload:
        cluster.submit(txn)
    print(f"\nsubmitted {len(workload)} transactions "
          f"({sum(1 for t in workload if t.is_cross_shard)} cross-bank settlements)")

    done = cluster.run_until_clients_done(timeout=120.0)
    cluster.backend.run_for(2.0)
    print(f"all transactions settled: {done}")

    print("\nsettlement latencies:")
    for record in sorted(cluster.client.completed, key=lambda r: r.txn_id):
        kind = "cross-bank" if record.cross_shard else "intra-bank"
        print(f"  {record.txn_id:5s} {kind:10s} {record.latency * 1000:7.1f} ms")

    # Atomicity: every involved bank recorded each settlement in its ledger.
    print("\natomic commitment check:")
    for txn in workload:
        if not txn.is_cross_shard:
            continue
        recorded = {
            shard: all(r.ledger.contains_txn(txn.txn_id) for r in cluster.shard_replicas(shard))
            for shard in sorted(txn.involved_shards)
        }
        print(f"  {txn.txn_id}: recorded by all replicas of banks {sorted(txn.involved_shards)}: "
              f"{all(recorded.values())}")

    # Consistency: conflicting settlements serialised identically; replicas agree.
    conflict_order = {
        tuple(replica.ledger.commit_order({"s-1", "s-2"}))
        for replica in cluster.shard_replicas(0)
    }
    print(f"\nconflicting settlements s-1/s-2 ordered identically on Pacific Trust replicas: "
          f"{len(conflict_order) == 1} (order: {next(iter(conflict_order))})")
    for shard, name in BANKS.items():
        states = {tuple(sorted(r.store.items().items())) for r in cluster.shard_replicas(shard)}
        print(f"  {name}: all {config.shard(shard).num_replicas} replicas hold identical state: "
              f"{len(states) == 1}")
    cluster.close()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--backend", choices=sorted(BACKENDS), default="sim")
    main(parser.parse_args().backend)
