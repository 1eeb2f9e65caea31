"""Throughput / latency summarisation for completed transactions.

Every experiment in the paper reports two numbers per configuration -- total
throughput (txn/s) and average latency (s) -- plus, for the primary-failure
experiment, a throughput time series.  These helpers turn the per-client
completion records produced by the simulator into those numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.consensus.pbft.client import CompletedTransaction


@dataclass(frozen=True)
class MetricsSummary:
    """Aggregate throughput/latency for one experiment run."""

    completed: int
    duration: float
    throughput: float
    avg_latency: float
    p50_latency: float
    p99_latency: float

    def as_row(self) -> dict[str, float]:
        return {
            "completed": self.completed,
            "duration_s": round(self.duration, 3),
            "throughput_tps": round(self.throughput, 1),
            "avg_latency_s": round(self.avg_latency, 4),
            "p50_latency_s": round(self.p50_latency, 4),
            "p99_latency_s": round(self.p99_latency, 4),
        }


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile over pre-sorted values (shared by all summaries)."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(round(fraction * (len(sorted_values) - 1))))
    return sorted_values[index]


# Backwards-compatible alias for the historical private name.
_percentile = percentile


# ---------------------------------------------------------------------------
# cache efficacy (verification LRUs + codec memoisation)
# ---------------------------------------------------------------------------


def cache_hit_rate(stats: dict[str, int]) -> float:
    """Hit fraction of one hit/miss counter pair (0.0 when the cache is cold)."""
    hits = stats.get("hits", 0)
    misses = stats.get("misses", 0)
    total = hits + misses
    return hits / total if total else 0.0


def cache_efficiency(cache_stats: dict[str, dict[str, int]]) -> dict[str, dict]:
    """Annotate each cache's counters with its hit rate.

    ``cache_stats`` is the :class:`~repro.engine.deployment.RunResult`
    ``cache_stats`` mapping (``verify``/``certificate`` LRUs plus the codec's
    ``payload``/``digest`` memo and ``intern`` table counters).  Empty
    entries (disabled caches) are dropped.
    """
    report: dict[str, dict] = {}
    for name, stats in cache_stats.items():
        if not stats:
            continue
        annotated = dict(stats)
        annotated["hit_rate"] = round(cache_hit_rate(stats), 4)
        report[name] = annotated
    return report


def format_cache_stats(cache_stats: dict[str, dict[str, int]]) -> list[str]:
    """Human-readable one-line-per-cache summary used by the CLI."""
    lines = []
    for name, stats in sorted(cache_efficiency(cache_stats).items()):
        evictions = f" / {stats['evictions']} evictions" if "evictions" in stats else ""
        lines.append(
            f"{name:12s} {stats['hit_rate'] * 100:6.1f}% hit"
            f"  ({stats.get('hits', 0)} hits / {stats.get('misses', 0)} misses{evictions})"
        )
    return lines


# ---------------------------------------------------------------------------
# pipeline occupancy (proposal-window instrumentation)
# ---------------------------------------------------------------------------


def summarize_pipeline(replicas) -> dict[str, float | int]:
    """Aggregate per-replica proposal-window gauges into one report.

    ``replicas`` is any iterable of objects exposing the pipeline
    instrumentation (``peak_open_slots``, ``open_slot_count``,
    ``proposed_batch_count``, ``proposed_request_count``,
    ``queue_delay_total``) -- in practice the deployment's
    :class:`~repro.consensus.pbft.replica.PbftReplica` instances, of which
    only primaries ever report non-zero counts.
    """
    peak = 0
    open_now = 0
    batches = 0
    txns = 0
    delayed = 0
    delay_total = 0.0
    arrival_rate = 0.0
    for replica in replicas:
        peak = max(peak, getattr(replica, "peak_open_slots", 0))
        open_now += getattr(replica, "open_slot_count", 0)
        batches += getattr(replica, "proposed_batch_count", 0)
        txns += getattr(replica, "proposed_txn_count", 0)
        delayed += getattr(replica, "proposed_request_count", 0)
        delay_total += getattr(replica, "queue_delay_total", 0.0)
        pacing = getattr(replica, "pacing", None)
        if pacing is not None:
            # Per-primary offered load (zero at depth=1, where it is not fed).
            arrival_rate += pacing.rate_tps
    return {
        "peak_open_slots": peak,
        "open_slots_now": open_now,
        "proposed_batches": batches,
        "avg_batch_size": round(txns / batches, 2) if batches else 0.0,
        "avg_queue_delay_s": round(delay_total / delayed, 6) if delayed else 0.0,
        "ewma_arrival_rate_tps": round(arrival_rate, 1),
    }


def format_pipeline_stats(stats: dict[str, float | int], depth: int) -> list[str]:
    """Human-readable pipeline-occupancy summary used by the CLI."""
    lines = [
        f"window depth {depth}: peak {stats.get('peak_open_slots', 0)} open slots,"
        f" {stats.get('proposed_batches', 0)} batches proposed"
        f" (avg size {stats.get('avg_batch_size', 0.0)})",
        f"avg queue delay {1e3 * stats.get('avg_queue_delay_s', 0.0):.1f} ms"
        " per request before proposal",
    ]
    if depth > 1:
        lines.append(
            f"arrivals {stats.get('ewma_arrival_rate_tps', 0.0)}/s"
            " (EWMA over primaries, picks the batching rule)"
        )
    return lines


def summarize(records: list[CompletedTransaction], duration: float | None = None) -> MetricsSummary:
    """Summarise completion records into throughput and latency statistics.

    ``duration`` defaults to the span between the first submission and the
    last completion, which matches how a fixed-length measurement window is
    normally reported.
    """
    if not records:
        return MetricsSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0)
    latencies = sorted(record.latency for record in records)
    start = min(record.submitted_at for record in records)
    end = max(record.completed_at for record in records)
    span = duration if duration is not None else max(end - start, 1e-9)
    return MetricsSummary(
        completed=len(records),
        duration=span,
        throughput=len(records) / span,
        avg_latency=sum(latencies) / len(latencies),
        p50_latency=_percentile(latencies, 0.50),
        p99_latency=_percentile(latencies, 0.99),
    )


@dataclass(frozen=True)
class RetainedStateSample:
    """One snapshot of the deployment's retained-state gauges.

    ``committed_batches`` records the cumulative work done when the sample was
    taken, so a series can distinguish *flat* retained state (bounded by the
    checkpoint interval plus in-flight work) from state that grows with total
    committed work -- the signature of a garbage-collection leak.
    """

    time: float
    committed_batches: int
    gauges: dict[str, int]

    def as_row(self) -> dict:
        row: dict = {"time_s": round(self.time, 3), "committed_batches": self.committed_batches}
        row.update(self.gauges)
        return row


#: Minimum sample count for a meaningful half-split flatness verdict: below
#: this, the GC warm-up ramp occupies most of the first half and healthy
#: gauges read as growing (the ``bench_steady_state --intervals 6`` flake).
MIN_FLAT_SAMPLES = 12


@dataclass
class RetainedStateSeries:
    """Periodic samples of retained-state gauges over one sustained run."""

    samples: list[RetainedStateSample] = field(default_factory=list)

    def record(self, time: float, committed_batches: int, gauges: dict[str, int]) -> None:
        self.samples.append(
            RetainedStateSample(time=time, committed_batches=committed_batches, gauges=dict(gauges))
        )

    def values(self, gauge: str) -> list[int]:
        return [sample.gauges.get(gauge, 0) for sample in self.samples]

    def peak(self, gauge: str) -> int:
        return max(self.values(gauge), default=0)

    def final(self, gauge: str) -> int:
        values = self.values(gauge)
        return values[-1] if values else 0

    def growth_ratio(self, gauge: str) -> float:
        """Peak of the second half of the run over peak of the first half.

        A garbage-collected gauge plateaus, so the ratio stays near 1; a
        leaking gauge grows with committed work, so the ratio approaches the
        ratio of work done (about 2 for a constant-rate run, and beyond).
        """
        values = self.values(gauge)
        if len(values) < 4:
            return 1.0
        half = len(values) // 2
        first = max(values[:half])
        second = max(values[half:])
        return second / max(first, 1)

    def is_flat(self, gauge: str, tolerance: float = 1.5, *, min_samples: int = 0) -> bool:
        """Whether ``gauge`` plateaued (its growth ratio stays within ``tolerance``).

        The half-split comparison behind :meth:`growth_ratio` is only
        meaningful when the warm-up ramp (GC reaches steady state after
        roughly two checkpoint intervals) is a small fraction of the series;
        on short runs the first-half peak is mid-ramp and a perfectly healthy
        gauge reads as growing.  Callers that gate a verdict on this method
        should pass ``min_samples`` (:data:`MIN_FLAT_SAMPLES` is a good
        default); a series with fewer samples raises instead of returning an
        unreliable verdict.
        """
        values = self.values(gauge)
        if len(values) < min_samples:
            raise ValueError(
                f"flat-gauge verdict for {gauge!r} over {len(values)} samples is "
                f"unreliable (need >= {min_samples}): the warm-up ramp dominates "
                "the first-half peak on short series"
            )
        return self.growth_ratio(gauge) <= tolerance

    def as_rows(self) -> list[dict]:
        return [sample.as_row() for sample in self.samples]


@dataclass
class ThroughputSeries:
    """Throughput bucketed over time -- used for the view-change experiment (Figure 9)."""

    bucket_seconds: float = 5.0

    def compute(self, records: list[CompletedTransaction], horizon: float) -> list[tuple[float, float]]:
        """Return ``(bucket_start_time, txn_per_second)`` points covering ``[0, horizon]``."""
        buckets: dict[int, int] = {}
        for record in records:
            bucket = int(record.completed_at // self.bucket_seconds)
            buckets[bucket] = buckets.get(bucket, 0) + 1
        series = []
        for bucket in range(int(horizon // self.bucket_seconds) + 1):
            count = buckets.get(bucket, 0)
            series.append((bucket * self.bucket_seconds, count / self.bucket_seconds))
        return series
