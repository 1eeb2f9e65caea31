"""Deployment, workload, and timer configuration.

The standard settings mirror Section 8 of the paper: 15 shards mapped to 15
GCP regions, 28 replicas per shard (420 replicas total), batches of 100
transactions, 30% cross-shard transactions each touching all involved
regions, and up to 50K open-loop clients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.quorum import QuorumSpec, max_faulty
from repro.errors import ConfigurationError
from repro.txn.ring import RingTopology

#: The fifteen GCP regions used in the paper's deployment, in the order the
#: paper lists them (experiments with fewer shards use a prefix of this list).
GCP_REGIONS: tuple[str, ...] = (
    "oregon",
    "iowa",
    "montreal",
    "netherlands",
    "taiwan",
    "sydney",
    "singapore",
    "south-carolina",
    "north-virginia",
    "los-angeles",
    "las-vegas",
    "london",
    "belgium",
    "tokyo",
    "hong-kong",
)


@dataclass(frozen=True)
class ShardConfig:
    """Configuration of a single shard."""

    shard_id: int
    num_replicas: int
    region: str = "local"

    def __post_init__(self) -> None:
        if self.num_replicas < 4:
            raise ConfigurationError(
                f"shard {self.shard_id} needs at least 4 replicas to tolerate one fault, "
                f"got {self.num_replicas}"
            )

    @property
    def quorum(self) -> QuorumSpec:
        return QuorumSpec.for_replicas(self.num_replicas)

    @property
    def max_faulty(self) -> int:
        return max_faulty(self.num_replicas)


@dataclass(frozen=True)
class TimerConfig:
    """Timeout durations (seconds) for the three RingBFT timers (Section 5).

    The paper requires ``local < remote < transmit`` so that a local
    view-change fires before remote machinery and retransmission is the last
    resort.
    """

    local_timeout: float = 2.0
    remote_timeout: float = 4.0
    transmit_timeout: float = 6.0
    client_timeout: float = 8.0
    checkpoint_interval: int = 100
    #: How many times the transmit timer re-sends one record's Forward message
    #: before giving up (a permanently dead next shard must not spin the timer
    #: forever).  Generous by default: the rotation survives long outages.
    max_forward_retransmissions: int = 50

    def __post_init__(self) -> None:
        if not self.local_timeout < self.remote_timeout < self.transmit_timeout:
            raise ConfigurationError(
                "timer ordering must satisfy local < remote < transmit, got "
                f"{self.local_timeout} / {self.remote_timeout} / {self.transmit_timeout}"
            )
        if self.checkpoint_interval <= 0:
            raise ConfigurationError("checkpoint_interval must be positive")
        if self.max_forward_retransmissions <= 0:
            raise ConfigurationError("max_forward_retransmissions must be positive")


@dataclass(frozen=True)
class WorkloadConfig:
    """YCSB-style workload parameters (Section 8, *Benchmark* and *Standard Settings*)."""

    num_records: int = 600_000
    cross_shard_fraction: float = 0.30
    involved_shards: int = 0  # 0 means "all shards", the paper's standard setting
    remote_reads: int = 0
    zipf_theta: float = 0.0  # 0.0 = uniform access
    num_clients: int = 50_000
    batch_size: int = 100
    seed: int = 2022

    def __post_init__(self) -> None:
        if not 0.0 <= self.cross_shard_fraction <= 1.0:
            raise ConfigurationError("cross_shard_fraction must be within [0, 1]")
        if self.num_records <= 0:
            raise ConfigurationError("num_records must be positive")
        if self.batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        if self.num_clients <= 0:
            raise ConfigurationError("num_clients must be positive")
        if self.remote_reads < 0:
            raise ConfigurationError("remote_reads cannot be negative")
        if self.zipf_theta < 0:
            raise ConfigurationError("zipf_theta cannot be negative")


@dataclass(frozen=True)
class PipelineConfig:
    """Proposal pipelining for the intra-shard PBFT primary.

    PBFT allows a primary to run consensus on several sequence numbers
    concurrently below the high watermark; ``depth`` is the size of that
    proposal window (k): every proposer at a primary -- client batches,
    forwarded cross-shard batches, new-view resubmissions -- takes a slot, and
    a slot is free again once its sequence commits locally.  ``depth=1``
    reproduces the classic one-batch-at-a-time behaviour exactly (same seeds
    -> same block chains).  With a deeper window the primary picks its
    batching rule from its measured arrival rate: light load ships whatever is
    staged as soon as the window is idle (low latency), sustained load ships
    only full ``max_batch_size`` batches plus a ``target_queue_delay`` timer
    flush (amortised MAC/encode cost, no one-request crumbs).
    """

    depth: int = 1
    #: Smallest partial batch the light-load rule ships before the flush
    #: timer forces it out (>= 1).
    min_batch_size: int = 1
    #: Batch size that ships without waiting; 0 means "use the replica's
    #: configured batch size".
    max_batch_size: int = 0
    #: How long a staged request may wait for its batch to fill before the
    #: flush timer forces it out (seconds; pipelined primaries only --
    #: depth=1 keeps the legacy BATCH_FLUSH_DELAY).  Also the budget the
    #: load test uses: sustained means arrivals fill ``max_batch_size``
    #: within this delay.
    target_queue_delay: float = 0.05
    #: Accepted and ignored: the threshold of the removed slot-occupancy
    #: controller, kept so existing ``PipelineConfig(...)`` calls construct.
    sustain_threshold: float = 1.0

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ConfigurationError("pipeline depth must be at least 1")
        if self.min_batch_size < 1:
            raise ConfigurationError("min_batch_size must be at least 1")
        if self.max_batch_size < 0:
            raise ConfigurationError("max_batch_size cannot be negative")
        if self.max_batch_size and self.max_batch_size < self.min_batch_size:
            raise ConfigurationError(
                f"max_batch_size {self.max_batch_size} must be >= "
                f"min_batch_size {self.min_batch_size}"
            )
        if self.target_queue_delay <= 0:
            raise ConfigurationError("target_queue_delay must be positive")


@dataclass(frozen=True)
class SystemConfig:
    """Full description of a sharded deployment."""

    shards: tuple[ShardConfig, ...]
    timers: TimerConfig = field(default_factory=TimerConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    ring_order: tuple[int, ...] | None = None
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)

    def __post_init__(self) -> None:
        if not self.shards:
            raise ConfigurationError("a deployment needs at least one shard")
        ids = [s.shard_id for s in self.shards]
        if len(set(ids)) != len(ids):
            raise ConfigurationError(f"duplicate shard identifiers: {ids}")
        if self.ring_order is not None and set(self.ring_order) != set(ids):
            raise ConfigurationError(
                f"ring_order {self.ring_order} must be a permutation of the shard ids {ids}"
            )

    @classmethod
    def uniform(
        cls,
        num_shards: int,
        replicas_per_shard: int,
        *,
        timers: TimerConfig | None = None,
        workload: WorkloadConfig | None = None,
        regions: tuple[str, ...] = GCP_REGIONS,
        pipeline: PipelineConfig | None = None,
    ) -> "SystemConfig":
        """Build a deployment of ``num_shards`` equal shards, one per region."""
        if num_shards < 1:
            raise ConfigurationError("num_shards must be at least 1")
        shards = tuple(
            ShardConfig(
                shard_id=i,
                num_replicas=replicas_per_shard,
                region=regions[i % len(regions)],
            )
            for i in range(num_shards)
        )
        return cls(
            shards=shards,
            timers=timers or TimerConfig(),
            workload=workload or WorkloadConfig(),
            pipeline=pipeline or PipelineConfig(),
        )

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def total_replicas(self) -> int:
        return sum(s.num_replicas for s in self.shards)

    @property
    def shard_ids(self) -> tuple[int, ...]:
        return tuple(s.shard_id for s in self.shards)

    def shard(self, shard_id: int) -> ShardConfig:
        for s in self.shards:
            if s.shard_id == shard_id:
                return s
        raise ConfigurationError(f"unknown shard {shard_id}")

    def ring(self) -> RingTopology:
        """The ring topology used to route cross-shard transactions."""
        if self.ring_order is not None:
            return RingTopology(self.ring_order)
        return RingTopology.ascending(self.shard_ids)
