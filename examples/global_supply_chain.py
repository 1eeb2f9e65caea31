"""Global supply chain: complex cross-shard transactions with data dependencies.

Section 8.8 of the paper evaluates *complex* cross-shard transactions whose
fragments need data held by other shards.  This example models a supply chain
where each participant (manufacturer, shipping line, customs broker,
retailer) runs its own shard, and a shipment hand-off must read the upstream
party's record while updating the local one:

* the shipping line's manifest entry depends on the manufacturer's lot record,
* the customs declaration depends on both the manifest and the lot,
* the retailer's goods-received note depends on the customs declaration.

RingBFT resolves these dependencies during the second rotation: the
accumulated write sets (Sigma) carried by ``Execute`` messages supply every
shard with the upstream values it needs.

Run with::

    python examples/global_supply_chain.py
"""

from __future__ import annotations

import argparse

from repro import Deployment, SystemConfig, TransactionBuilder
from repro.config import WorkloadConfig
from repro.engine import BACKENDS

PARTIES = {0: "manufacturer", 1: "shipping-line", 2: "customs-broker", 3: "retailer"}


def main(backend: str = "sim") -> None:
    config = SystemConfig.uniform(
        num_shards=len(PARTIES),
        replicas_per_shard=4,
        workload=WorkloadConfig(num_records=400, batch_size=1, num_clients=1),
    )
    cluster = Deployment.build(config, backend=backend, num_clients=1, batch_size=1)

    lot_key = cluster.table.local_record(0, 0)        # manufacturer's lot record
    manifest_key = cluster.table.local_record(1, 0)   # shipping manifest entry
    customs_key = cluster.table.local_record(2, 0)    # customs declaration
    grn_key = cluster.table.local_record(3, 0)        # retailer goods-received note

    # Seed the manufacturer's lot record with a recognisable value first.
    seed = (
        TransactionBuilder("seed-lot", "client-0")
        .read_modify_write(0, lot_key, "LOT-778|widgets|qty=1200")
        .build()
    )
    cluster.submit(seed)
    cluster.run_until_clients_done(timeout=60.0)
    print(f"seeded manufacturer lot record: {cluster.primary_of(0).store.read(lot_key)!r}")

    # The hand-off transaction: one fragment per party, each fragment's write
    # depending on the upstream parties' records (a complex cst).
    handoff = (
        TransactionBuilder("shipment-handoff", "client-0")
        .read(0, lot_key)
        .write(0, lot_key, "LOT-778|status=shipped")
        .read(1, manifest_key)
        .write(1, manifest_key, "MANIFEST-41|vessel=Aurora", depends_on=((0, lot_key),))
        .read(2, customs_key)
        .write(2, customs_key, "CUSTOMS-DECL-9", depends_on=((0, lot_key), (1, manifest_key)))
        .read(3, grn_key)
        .write(3, grn_key, "GRN-2026-0617", depends_on=((2, customs_key),))
        .build()
    )
    print(f"\nhand-off transaction touches shards {sorted(handoff.involved_shards)}, "
          f"is complex: {handoff.is_complex}, remote reads: {handoff.remote_read_count}")

    cluster.submit(handoff)
    done = cluster.run_until_clients_done(timeout=120.0)
    cluster.backend.run_for(2.0)
    print(f"hand-off committed atomically on all parties: {done}")

    print("\nper-party records after the hand-off (dependencies resolved in-line):")
    for shard, party in PARTIES.items():
        key = {0: lot_key, 1: manifest_key, 2: customs_key, 3: grn_key}[shard]
        value = cluster.primary_of(shard).store.read(key)
        print(f"  {party:15s} {key:10s} -> {value!r}")

    # Show that the shipping line's manifest embeds the manufacturer's lot
    # value it depended on, proving the second rotation carried Sigma.
    manifest_value = cluster.primary_of(1).store.read(manifest_key)
    print(f"\nmanifest references the upstream lot record: {lot_key in manifest_value}")

    print("\ncross-shard flow messages:")
    counts = cluster.message_counts()
    for name in ("PrePrepare", "Prepare", "Commit", "Forward", "Execute"):
        print(f"  {name:12s} {counts.get(name, 0):5d}")

    rotations = 2
    print(f"\nconsensus required {rotations} rotations around the ring of "
          f"{len(handoff.involved_shards)} involved shards, as the paper guarantees.")
    cluster.close()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--backend", choices=sorted(BACKENDS), default="sim")
    main(parser.parse_args().backend)
