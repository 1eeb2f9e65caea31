"""Deployment specification and the mixture throughput / latency estimator.

The estimator turns a protocol's per-batch cost functions into the two
numbers the paper plots for every configuration:

* **throughput** -- the offered mix (``cross_shard_fraction`` of transactions
  touching ``involved_shards`` shards each) is pushed through the protocol
  until its busiest node saturates.  Per-shard work and protocol-specific
  global bottlenecks (AHL's committee, a fully-replicated primary) are both
  respected, and the client population caps the number of transactions that
  can be in flight (Little's law), which is what bends the curves in the
  client-scaling experiment.
* **latency** -- the workload-weighted average of the single-shard and
  cross-shard critical paths, plus the queueing delay implied by the offered
  load.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.analytical.costs import CostParameters
from repro.config import GCP_REGIONS
from repro.netem.regions import region_rtt_seconds


@dataclass(frozen=True)
class DeploymentSpec:
    """One experimental configuration (a single point on a paper figure)."""

    num_shards: int = 15
    replicas_per_shard: int = 28
    batch_size: int = 100
    cross_shard_fraction: float = 0.30
    involved_shards: int = 0  # 0 means "all shards"
    remote_reads: int = 0
    num_clients: int = 50_000
    #: Transactions each client keeps in flight (clients batch their requests,
    #: Section 8 "we require clients and replicas to employ batching").
    client_outstanding: int = 10
    regions: tuple[str, ...] = GCP_REGIONS

    def __post_init__(self) -> None:
        if self.num_shards < 1 or self.replicas_per_shard < 4:
            raise ValueError("need at least one shard of four replicas")
        if not 0.0 <= self.cross_shard_fraction <= 1.0:
            raise ValueError("cross_shard_fraction must be in [0, 1]")

    @property
    def effective_involved(self) -> int:
        """Number of shards a cross-shard transaction touches."""
        if self.involved_shards <= 0 or self.involved_shards > self.num_shards:
            return self.num_shards
        return max(2, self.involved_shards) if self.num_shards > 1 else 1

    @property
    def total_replicas(self) -> int:
        return self.num_shards * self.replicas_per_shard

    @property
    def faults_per_shard(self) -> int:
        return (self.replicas_per_shard - 1) // 3

    @property
    def shard_regions(self) -> tuple[str, ...]:
        return tuple(self.regions[i % len(self.regions)] for i in range(self.num_shards))

    def with_(self, **changes) -> "DeploymentSpec":
        """Copy of the spec with some fields replaced (sweep helper)."""
        return replace(self, **changes)

    # -- WAN geometry helpers used by the latency models -------------------

    def ring_one_way_delays(self) -> list[float]:
        """One-way delay of each consecutive hop around the ring of shards."""
        regions = self.shard_regions
        if len(regions) == 1:
            return [region_rtt_seconds(regions[0], regions[0]) / 2]
        delays = []
        for i in range(len(regions)):
            a = regions[i]
            b = regions[(i + 1) % len(regions)]
            delays.append(region_rtt_seconds(a, b) / 2)
        return delays

    def average_ring_hop(self) -> float:
        delays = self.ring_one_way_delays()
        return sum(delays) / len(delays)

    def max_region_rtt(self) -> float:
        """Largest RTT between any two shard regions (global quorum latency)."""
        regions = self.shard_regions
        return max(
            region_rtt_seconds(a, b) for a in regions for b in regions
        )

    def average_region_rtt(self) -> float:
        regions = self.shard_regions
        if len(regions) == 1:
            return region_rtt_seconds(regions[0], regions[0])
        pairs = [
            region_rtt_seconds(a, b)
            for i, a in enumerate(regions)
            for j, b in enumerate(regions)
            if i != j
        ]
        return sum(pairs) / len(pairs)


@dataclass(frozen=True)
class PerformanceEstimate:
    """The two numbers the paper plots, plus the limiting resource for analysis."""

    throughput_tps: float
    latency_s: float
    bottleneck: str
    details: dict[str, float] = field(default_factory=dict)

    def as_row(self) -> dict[str, float | str]:
        return {
            "throughput_tps": round(self.throughput_tps, 1),
            "latency_s": round(self.latency_s, 3),
            "bottleneck": self.bottleneck,
        }


def estimate(model, spec: DeploymentSpec, params: CostParameters | None = None) -> PerformanceEstimate:
    """Estimate throughput and latency of ``model`` under ``spec``.

    ``model`` is any object implementing the :class:`ProtocolModel` interface
    (see ``repro.analytical.protocols``).
    """
    params = params or CostParameters()
    x = spec.cross_shard_fraction
    involved = spec.effective_involved if x > 0 else 1
    batch = spec.batch_size

    # Busy time of the per-shard bottleneck node, per batch of each kind.
    single_busy = model.single_shard_batch_work(spec, params).busy_seconds(params)
    throughput_limits: dict[str, float] = {}

    # Per-shard capacity constraint:
    #   T/z * [(1-x)*C_ss + x*i*C_cs] / b  <=  parallelism_per_shard
    per_txn_shard_work = (1.0 - x) * single_busy / batch
    if x > 0 and spec.num_shards > 1:
        cross_busy = model.cross_shard_batch_work(spec, params).busy_seconds(params)
        per_txn_shard_work += x * involved * cross_busy / batch
    else:
        cross_busy = 0.0
    if per_txn_shard_work > 0:
        throughput_limits["shard-bottleneck"] = (
            spec.num_shards * model.per_shard_parallelism(spec) / per_txn_shard_work
        )

    # Protocol-specific global constraints (e.g. AHL's committee, a
    # fully-replicated primary that every transaction must pass through).
    for name, limit in model.global_limits(spec, params).items():
        throughput_limits[name] = limit

    bottleneck = min(throughput_limits, key=throughput_limits.get)
    saturation_tps = throughput_limits[bottleneck]

    # Base (unloaded) latencies.
    single_latency = model.single_shard_latency(spec, params)
    cross_latency = model.cross_shard_latency(spec, params) if x > 0 and spec.num_shards > 1 else 0.0
    base_latency = (1.0 - x) * single_latency + x * cross_latency

    # The client population closes the loop (Little's law): with C clients
    # keeping ``client_outstanding`` transactions in flight each, delivered
    # throughput cannot exceed C * outstanding / latency, where the latency
    # itself depends on how loaded the system is.  A short damped fixed-point
    # iteration finds the self-consistent operating point.
    in_flight = spec.num_clients * spec.client_outstanding
    queueing_cap = 14.0

    def queueing_factor_at(delivered: float) -> float:
        utilization = min(delivered / saturation_tps, 0.98)
        return min(1.0 + utilization ** 2 / max(1.0 - utilization, 0.02), queueing_cap)

    def offered_at(delivered: float) -> float:
        return in_flight / max(base_latency * queueing_factor_at(delivered), 1e-6)

    # Find the self-consistent operating point: the delivered rate equals the
    # rate the clients can offer at the resulting (loaded) latency, capped by
    # the saturation throughput.  ``offered_at`` is non-increasing in the
    # delivered rate, so a simple bisection converges.
    if offered_at(saturation_tps) >= saturation_tps:
        delivered_tps = saturation_tps
        overloaded = True
    else:
        overloaded = False
        lo, hi = 0.0, saturation_tps
        for _ in range(60):
            mid = (lo + hi) / 2.0
            if offered_at(mid) >= mid:
                lo = mid
            else:
                hi = mid
        delivered_tps = (lo + hi) / 2.0

    offered_tps = offered_at(delivered_tps)
    latency = base_latency * queueing_factor_at(delivered_tps)
    if not overloaded:
        bottleneck = "client-limited"
    else:
        # Overload: incoming requests sit in full work queues (the memory
        # pressure effect Section 8.6 describes) -- a mild throughput penalty.
        excess_ratio = offered_tps / saturation_tps - 1.0
        delivered_tps = saturation_tps * (1.0 - 0.09 * min(1.0, excess_ratio / 4.0))

    return PerformanceEstimate(
        throughput_tps=delivered_tps,
        latency_s=latency,
        bottleneck=bottleneck,
        details={
            "single_batch_busy_s": single_busy,
            "cross_batch_busy_s": cross_busy,
            "saturation_tps": saturation_tps,
            "base_latency_s": base_latency,
            "offered_tps": offered_tps,
        },
    )
