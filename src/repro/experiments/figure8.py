"""Figure 8: the six throughput/latency sweeps of the main evaluation.

Each function regenerates one pair of sub-figures (throughput + latency) for
the three sharding protocols -- RingBFT, Sharper, AHL -- using the analytical
model at the paper's full scale (420 replicas, 50K clients).  The standard
settings follow Section 8: 15 shards of 28 replicas, 30% cross-shard
transactions touching all shards, batches of 100.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.analytical import DeploymentSpec, estimate, model_by_name
from repro.config import SystemConfig, WorkloadConfig
from repro.engine.driver import run_protocol_workload

#: The three sharding protocols compared throughout Figure 8.
PROTOCOLS: tuple[str, ...] = ("RingBFT", "Sharper", "AHL")

#: Standard settings of Section 8.
STANDARD = DeploymentSpec()


def _sweep(specs: Iterable[tuple[str, DeploymentSpec]], x_name: str) -> list[dict]:
    rows: list[dict] = []
    for x_value, spec in specs:
        for protocol in PROTOCOLS:
            result = estimate(model_by_name(protocol), spec)
            rows.append(
                {
                    "protocol": protocol,
                    x_name: x_value,
                    "throughput_tps": round(result.throughput_tps, 1),
                    "latency_s": round(result.latency_s, 3),
                    "bottleneck": result.bottleneck,
                }
            )
    return rows


def impact_of_shards(shard_counts: tuple[int, ...] = (3, 5, 7, 9, 11, 15)) -> list[dict]:
    """Figure 8 (I)-(II): vary the number of shards, csts touch all of them."""
    return _sweep(
        ((s, STANDARD.with_(num_shards=s)) for s in shard_counts),
        x_name="num_shards",
    )


def impact_of_replicas(replica_counts: tuple[int, ...] = (10, 16, 22, 28)) -> list[dict]:
    """Figure 8 (III)-(IV): vary the number of replicas per shard."""
    return _sweep(
        ((n, STANDARD.with_(replicas_per_shard=n)) for n in replica_counts),
        x_name="replicas_per_shard",
    )


def impact_of_cross_shard_rate(
    rates: tuple[float, ...] = (0.0, 0.05, 0.10, 0.15, 0.30, 0.60, 1.0)
) -> list[dict]:
    """Figure 8 (V)-(VI): vary the fraction of cross-shard transactions."""
    return _sweep(
        ((rate, STANDARD.with_(cross_shard_fraction=rate)) for rate in rates),
        x_name="cross_shard_fraction",
    )


def impact_of_batch_size(
    batch_sizes: tuple[int, ...] = (10, 50, 100, 500, 1000, 1500, 5000)
) -> list[dict]:
    """Figure 8 (VII)-(VIII): vary the consensus batch size."""
    return _sweep(
        ((b, STANDARD.with_(batch_size=b)) for b in batch_sizes),
        x_name="batch_size",
    )


def impact_of_involved_shards(
    involved_counts: tuple[int, ...] = (1, 3, 6, 9, 15)
) -> list[dict]:
    """Figure 8 (IX)-(X): vary how many shards each cross-shard transaction touches.

    ``involved = 1`` degenerates to a single-shard workload, which is how the
    paper's leftmost point behaves (all protocols coincide there).
    """
    def spec_for(involved: int) -> DeploymentSpec:
        if involved <= 1:
            return STANDARD.with_(cross_shard_fraction=0.0, involved_shards=1)
        return STANDARD.with_(involved_shards=involved)

    return _sweep(
        ((i, spec_for(i)) for i in involved_counts),
        x_name="involved_shards",
    )


def impact_of_clients(
    client_counts: tuple[int, ...] = (3_000, 5_000, 10_000, 15_000, 20_000)
) -> list[dict]:
    """Figure 8 (XI)-(XII): vary the number of clients submitting transactions."""
    return _sweep(
        ((c, STANDARD.with_(num_clients=c)) for c in client_counts),
        x_name="num_clients",
    )


def run_protocol(
    backend: str = "sim",
    shard_counts: tuple[int, ...] = (2, 3),
    transactions: int = 12,
    cross_shard_fraction: float = 0.30,
    seed: int = 2022,
) -> list[dict]:
    """Protocol-mode smoke validation of the Figure 8 shard sweep.

    Runs the standard 30% cross-shard workload at message level on the chosen
    execution backend (scaled down from 15x28 so a socket run finishes in
    seconds) and reports the unified run metrics per shard count.
    """
    rows: list[dict] = []
    for num_shards in shard_counts:
        workload = WorkloadConfig(
            num_records=400,
            cross_shard_fraction=cross_shard_fraction,
            batch_size=1,
            num_clients=2,
            seed=seed,
        )
        config = SystemConfig.uniform(num_shards, 4, workload=workload)
        result = run_protocol_workload(
            config, backend=backend, total=transactions, seed=seed
        )
        rows.append({"protocol": "RingBFT", "num_shards": num_shards, **result.as_row()})
    return rows
