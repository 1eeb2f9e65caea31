"""Backend-agnostic workload driving.

:class:`WorkloadDriver` keeps a fixed window of transactions in flight per
client until a total completes (closed loop) -- the classical way to saturate
a consensus pipeline -- or injects at a fixed offered rate (open loop).  It
only talks to the deployment through the :class:`~repro.engine.protocols`
surfaces (``scheduler.schedule`` for its refill poll, ``backend.run_until``
to drive), so the exact same driver code runs on the simulator and on the
socket backend, and every run returns the unified
:class:`~repro.engine.deployment.RunResult`.
"""

from __future__ import annotations

import random
import time as _time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.engine.deployment import Deployment, RunResult
from repro.metrics.collector import RetainedStateSeries

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.workloads.ycsb import YcsbWorkloadGenerator


@dataclass
class WorkloadDriver:
    """Closed-loop driver: ``window`` transactions outstanding per client."""

    deployment: Deployment
    generator: "YcsbWorkloadGenerator"
    total: int
    window: int = 4
    poll_interval: float = 0.05
    submitted: int = 0
    _client_ids: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._client_ids = list(self.deployment.clients)

    @property
    def completed(self) -> int:
        return self.deployment.completed_transactions()

    def start(self) -> None:
        """Prime every client's window and arm the refill poll."""
        for client_id in self._client_ids:
            for _ in range(self.window):
                self._submit_next(client_id)
        self._arm_poll()

    def _submit_next(self, client_id: str) -> None:
        if self.submitted >= self.total:
            return
        txn = self.generator.generate(1, client_id)[0]
        self.deployment.submit(txn, client_id)
        self.submitted += 1

    def _arm_poll(self) -> None:
        self.deployment.scheduler.schedule(self.poll_interval, self._poll)

    def _poll(self) -> None:
        """Refill client windows as transactions complete."""
        if self.completed >= self.total:
            return
        for client_id in self._client_ids:
            client = self.deployment.clients[client_id]
            while client.outstanding < self.window and self.submitted < self.total:
                self._submit_next(client_id)
        self._arm_poll()

    def run(self, timeout: float = 300.0, *, check_consistency: bool = True) -> RunResult:
        """Drive the workload until ``total`` transactions complete (or timeout)."""
        started_at = self.deployment.now
        wall_started = _time.perf_counter()
        completed_before = self.completed
        message_counts_before = self.deployment.message_counts()
        cache_stats_before = self.deployment.cache_stats_snapshot()
        target = completed_before + self.total
        self.start()
        self.deployment.backend.run_until(lambda: self.completed >= target, timeout)
        return self.deployment.collect_result(
            submitted=self.submitted,
            started_at=started_at,
            wall_started=wall_started,
            completed_before=completed_before,
            message_counts_before=message_counts_before,
            cache_stats_before=cache_stats_before,
            check_consistency=check_consistency,
        )


@dataclass
class OpenLoopWorkloadDriver:
    """Open-loop driver: submits at ``rate_per_second`` regardless of completions."""

    deployment: Deployment
    generator: "YcsbWorkloadGenerator"
    rate_per_second: float
    duration: float
    submitted: int = 0

    def start(self) -> None:
        """Schedule every submission over the injection window up front."""
        interval = 1.0 / self.rate_per_second
        client_ids = list(self.deployment.clients)
        total = int(self.rate_per_second * self.duration)
        for i in range(total):
            client_id = client_ids[i % len(client_ids)]
            self.deployment.scheduler.schedule(i * interval, self._make_submit(client_id))

    def _make_submit(self, client_id: str):
        def _submit() -> None:
            txn = self.generator.generate(1, client_id)[0]
            self.deployment.submit(txn, client_id)
            self.submitted += 1

        return _submit

    def run(self, extra_drain: float = 30.0, *, check_consistency: bool = True) -> RunResult:
        """Inject for ``duration`` protocol seconds, then drain the backlog."""
        started_at = self.deployment.now
        wall_started = _time.perf_counter()
        completed_before = self.deployment.completed_transactions()
        message_counts_before = self.deployment.message_counts()
        cache_stats_before = self.deployment.cache_stats_snapshot()
        self.start()
        self.deployment.backend.run_until_time(started_at + self.duration + extra_drain)
        return self.deployment.collect_result(
            submitted=self.submitted,
            started_at=started_at,
            wall_started=wall_started,
            completed_before=completed_before,
            message_counts_before=message_counts_before,
            cache_stats_before=cache_stats_before,
            check_consistency=check_consistency,
        )


@dataclass
class SustainedLoadDriver:
    """Open-loop Poisson driver sustained across checkpoint intervals.

    Injects transactions with exponential inter-arrival times at
    ``rate_per_second`` until every replica's *stable* checkpoint reaches
    ``checkpoint_intervals`` full intervals, sampling the deployment's
    retained-state gauges every ``sample_interval`` protocol seconds along the
    way.  Because arrivals are scheduled lazily (each one schedules the next)
    the driver itself holds O(1) state no matter how long the run is, and
    because it only talks to the deployment through the scheduler/backend
    protocols it runs unchanged on the simulator and the socket backend.
    """

    deployment: Deployment
    generator: "YcsbWorkloadGenerator"
    rate_per_second: float
    checkpoint_intervals: int
    seed: int = 2022
    sample_interval: float = 1.0
    max_duration: float = 600.0
    drain: float = 10.0
    submitted: int = 0
    series: RetainedStateSeries = field(default_factory=RetainedStateSeries)
    _rng: random.Random = field(init=False, repr=False)
    _client_ids: list[str] = field(default_factory=list, repr=False)
    _next_client: int = 0
    _started_at: float = 0.0

    def __post_init__(self) -> None:
        if self.rate_per_second <= 0:
            raise ValueError("rate_per_second must be positive")
        if self.checkpoint_intervals <= 0:
            raise ValueError("checkpoint_intervals must be positive")
        self._rng = random.Random(self.seed)
        self._client_ids = list(self.deployment.clients)

    # -- progress ----------------------------------------------------------

    @property
    def target_sequence(self) -> int:
        return self.checkpoint_intervals * self.deployment.config.timers.checkpoint_interval

    def stable_floor(self) -> int:
        """The lowest stable-checkpoint sequence across live replicas."""
        stables = [
            replica.checkpoints.last_stable_sequence
            for replica in self.deployment.replicas.values()
            if not replica.crashed
        ]
        return min(stables, default=0)

    def _target_reached(self) -> bool:
        return self.stable_floor() >= self.target_sequence

    def _injection_done(self) -> bool:
        return (
            self._target_reached()
            or self.deployment.now - self._started_at >= self.max_duration
        )

    # -- open-loop Poisson arrivals ----------------------------------------

    def start(self) -> None:
        self._started_at = self.deployment.now
        self._sample()
        self._schedule_next_arrival()

    def _schedule_next_arrival(self) -> None:
        self.deployment.scheduler.schedule(
            self._rng.expovariate(self.rate_per_second), self._arrive
        )

    def _arrive(self) -> None:
        if self._injection_done():
            return
        client_id = self._client_ids[self._next_client % len(self._client_ids)]
        self._next_client += 1
        txn = self.generator.generate(1, client_id)[0]
        self.deployment.submit(txn, client_id)
        self.submitted += 1
        self._schedule_next_arrival()

    # -- retained-state sampling -------------------------------------------

    def _sample(self) -> None:
        self.series.record(
            time=self.deployment.now - self._started_at,
            committed_batches=self.deployment.committed_batch_total(),
            gauges=self.deployment.retained_state_totals(),
        )
        if not self._injection_done():
            self.deployment.scheduler.schedule(self.sample_interval, self._sample)

    # -- driving ------------------------------------------------------------

    def run(self, *, check_consistency: bool = True) -> RunResult:
        """Sustain the load until the target stable checkpoint, then drain."""
        started_at = self.deployment.now
        wall_started = _time.perf_counter()
        completed_before = self.deployment.completed_transactions()
        message_counts_before = self.deployment.message_counts()
        cache_stats_before = self.deployment.cache_stats_snapshot()
        self.start()
        self.deployment.backend.run_until(self._target_reached, self.max_duration)
        self.deployment.backend.run_until_time(self.deployment.now + self.drain)
        # One final sample after the drain: in-flight work has settled, so this
        # is the truest picture of steady-state retained memory.
        self._sample()
        return self.deployment.collect_result(
            submitted=self.submitted,
            started_at=started_at,
            wall_started=wall_started,
            completed_before=completed_before,
            message_counts_before=message_counts_before,
            cache_stats_before=cache_stats_before,
            check_consistency=check_consistency,
        )


@dataclass
class PoissonSaturationDriver:
    """Open-loop Poisson injection for a fixed duration at a fixed rate.

    Where :class:`SustainedLoadDriver` runs until a stable-checkpoint target
    (GC experiments), this driver measures *capacity*: inject Poisson
    arrivals at ``rate_per_second`` for ``duration_s`` protocol seconds and
    report the completion rate inside the injection window after a
    ``warmup_s`` ramp.  When the offered rate exceeds the deployment's
    capacity the queue grows and the in-window completion rate plateaus at
    the capacity -- the knee of the sustained-throughput curve.

    Two readings matter and both are taken at the *end of injection*, before
    the drain: :attr:`sustained_tps` (in-window completions per second) and
    :attr:`steady_pipeline_stats` (the proposal-window gauges while the load
    was still applied -- the drain's trailing timer flushes would otherwise
    dilute the batch-size and queue-delay averages).
    """

    deployment: Deployment
    generator: "YcsbWorkloadGenerator"
    rate_per_second: float
    duration_s: float
    warmup_s: float = 0.0
    drain_s: float = 10.0
    seed: int = 2022
    submitted: int = 0
    sustained_tps: float = 0.0
    steady_pipeline_stats: dict = field(default_factory=dict)
    _rng: random.Random = field(init=False, repr=False)
    _client_ids: list[str] = field(default_factory=list, repr=False)
    _next_client: int = 0
    _started_at: float = 0.0

    def __post_init__(self) -> None:
        if self.rate_per_second <= 0:
            raise ValueError("rate_per_second must be positive")
        if not 0.0 <= self.warmup_s < self.duration_s:
            raise ValueError("warmup_s must lie inside the injection window")
        self._rng = random.Random(self.seed)
        self._client_ids = list(self.deployment.clients)

    def _schedule_next_arrival(self) -> None:
        self.deployment.scheduler.schedule(
            self._rng.expovariate(self.rate_per_second), self._arrive
        )

    def _arrive(self) -> None:
        if self.deployment.now - self._started_at >= self.duration_s:
            return
        client_id = self._client_ids[self._next_client % len(self._client_ids)]
        self._next_client += 1
        txn = self.generator.generate(1, client_id)[0]
        self.deployment.submit(txn, client_id)
        self.submitted += 1
        self._schedule_next_arrival()

    def run(self, *, check_consistency: bool = True) -> RunResult:
        """Inject for ``duration_s``, snapshot steady gauges, drain, report."""
        from repro.metrics.collector import summarize_pipeline

        started_at = self.deployment.now
        wall_started = _time.perf_counter()
        completed_before = self.deployment.completed_transactions()
        message_counts_before = self.deployment.message_counts()
        cache_stats_before = self.deployment.cache_stats_snapshot()
        self._started_at = started_at
        self._schedule_next_arrival()
        self.deployment.backend.run_until_time(started_at + self.duration_s)
        self.steady_pipeline_stats = summarize_pipeline(
            self.deployment.replicas.values()
        )
        self.deployment.backend.run_until_time(self.deployment.now + self.drain_s)
        window_start = started_at + self.warmup_s
        window_end = started_at + self.duration_s
        in_window = sum(
            1
            for client in self.deployment.clients.values()
            for record in client.completed
            if window_start <= record.completed_at <= window_end
        )
        self.sustained_tps = in_window / (window_end - window_start)
        return self.deployment.collect_result(
            submitted=self.submitted,
            started_at=started_at,
            wall_started=wall_started,
            completed_before=completed_before,
            message_counts_before=message_counts_before,
            cache_stats_before=cache_stats_before,
            check_consistency=check_consistency,
        )


def run_sustained_load(
    config,
    *,
    backend: str = "sim",
    replica_class=None,
    rate_per_second: float = 40.0,
    checkpoint_intervals: int = 20,
    num_clients: int = 2,
    batch_size: int = 1,
    seed: int = 2022,
    sample_interval: float = 0.25,
    max_duration: float = 600.0,
):
    """Build a deployment and sustain Poisson load across checkpoint intervals.

    Returns ``(RunResult, SustainedLoadDriver)`` -- the driver exposes the
    sampled :class:`~repro.metrics.collector.RetainedStateSeries` and the
    stable-checkpoint floor reached.
    """
    from repro.core.replica import RingBftReplica
    from repro.workloads.ycsb import YcsbWorkloadGenerator

    deployment = Deployment.build(
        config,
        backend=backend,
        replica_class=replica_class or RingBftReplica,
        num_clients=num_clients,
        batch_size=batch_size,
        seed=seed,
    )
    try:
        generator = YcsbWorkloadGenerator(
            deployment.table, deployment.directory.ring, config.workload, seed=seed
        )
        driver = SustainedLoadDriver(
            deployment,
            generator,
            rate_per_second=rate_per_second,
            checkpoint_intervals=checkpoint_intervals,
            seed=seed,
            sample_interval=sample_interval,
            max_duration=max_duration,
        )
        result = driver.run()
        return result, driver
    finally:
        deployment.close()


def run_protocol_workload(
    config,
    *,
    backend: str = "sim",
    replica_class=None,
    total: int = 12,
    window: int = 2,
    num_clients: int = 2,
    batch_size: int = 1,
    seed: int = 2022,
    timeout: float = 300.0,
) -> RunResult:
    """Build a deployment, run a generated closed-loop workload, return the result.

    One-call helper used by the figure modules' protocol-mode validations and
    the CLI demo; honours the ``--backend`` choice end to end.
    """
    from repro.core.replica import RingBftReplica
    from repro.workloads.ycsb import YcsbWorkloadGenerator

    deployment = Deployment.build(
        config,
        backend=backend,
        replica_class=replica_class or RingBftReplica,
        num_clients=num_clients,
        batch_size=batch_size,
        seed=seed,
    )
    try:
        generator = YcsbWorkloadGenerator(
            deployment.table, deployment.directory.ring, config.workload, seed=seed
        )
        driver = WorkloadDriver(deployment, generator, total=total, window=window)
        return driver.run(timeout=timeout)
    finally:
        deployment.close()
