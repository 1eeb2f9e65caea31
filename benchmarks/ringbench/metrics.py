"""ringbench metric definitions and how each value is computed.

The lists here are the single source of truth: ``BENCHMARK.json`` at the repo
root repeats the names, units, directions and bounds (``test_ringbench.py``
checks the two agree), ``run.py compare`` applies the bounds, and the traced
run reports exactly :data:`PER_LAYER`.
"""

from __future__ import annotations

import bisect
import statistics
from dataclasses import dataclass
from typing import Any

from repro.metrics.collector import cache_hit_rate, percentile

from ringbench.trace import SPAN_NAMES, Tracer

#: Latency limit behind ``within_limit_fraction`` (protocol seconds).
LATENCY_LIMIT_S = 0.5
#: ``recovered_p50_ms`` looks at transactions submitted this long after the fault.
RECOVERY_GRACE_S = 5.0
#: Spacing of ``outage_ms``'s reference instants on workloads without a fault.
TICK_S = 0.01
#: The shard whose primary the fault workload crashes; ``outage_ms`` and
#: ``recovered_p50_ms`` follow the transactions addressed to it on every workload.
WATCHED_SHARD = 0

#: Message types that cross shard boundaries (ring rotation and AHL's 2PC).
CROSS_SHARD_TYPES = (
    "Forward",
    "Execute",
    "RemoteView",
    "Prepare2PC",
    "Vote2PC",
    "CommitteeVote",
    "CommitteeDecision",
    "Decide2PC",
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: End-to-end only: share of the parent's median by which the benchmark
    #: driver lets the metric worsen.  Sized to survive the sandbox's slow
    #: periods (tens of seconds at +15-50% host time), so it is a coarse gate.
    bound: float | None = None
    #: Share by which ``run.py compare`` lets two reports of one seed differ,
    #: on (sim, socket) workloads.  Protocol-time metrics are bit-deterministic
    #: per seed on the simulator, hence the tight first value.
    compare: tuple[float, float] = (0.0, 0.0)
    #: Absolute difference below which ``compare`` never reports a change.
    floor: float = 0.0

    def as_json(self) -> dict:
        entry: dict[str, Any] = {"name": self.name, "unit": self.unit, "better": self.better}
        if self.bound is not None:
            entry["bound"] = self.bound
        return entry


END_TO_END: tuple[Metric, ...] = (
    Metric("tps", "1/s", "higher", bound=0.25, compare=(0.02, 0.10)),
    Metric("p50_ms", "ms", "lower", bound=0.25, compare=(0.02, 0.10)),
    Metric("p99_ms", "ms", "lower", bound=0.25, compare=(0.02, 0.25)),
    Metric("cpu_us_per_txn", "us", "lower", bound=0.25, compare=(0.15, 0.15)),
    Metric("within_limit_fraction", "ratio", "higher", bound=0.10, compare=(0.02, 0.02)),
    Metric("completed_fraction", "ratio", "higher", bound=0.05),
    Metric("outage_ms", "ms", "lower", bound=0.25, compare=(0.02, 0.25)),
    Metric("recovered_p50_ms", "ms", "lower", bound=0.25, compare=(0.02, 0.10)),
    Metric("setup_s", "s", "lower", bound=0.25, compare=(0.15, 0.15), floor=0.02),
    Metric("peak_rss_mb", "MB", "lower", bound=0.10, compare=(0.10, 0.10)),
)

#: Protocol-time metrics: identical across repeats of one seed on the simulator.
SIM_DETERMINISTIC = (
    "tps",
    "p50_ms",
    "p99_ms",
    "within_limit_fraction",
    "completed_fraction",
    "outage_ms",
    "recovered_p50_ms",
)

_COUNTERS: tuple[Metric, ...] = (
    Metric("transport.msgs", "1/txn", "lower"),
    Metric("transport.bytes", "B/txn", "lower"),
    Metric("transport.msgs_cross", "1/txn", "lower"),
    Metric("sim.kernel.events", "1/txn", "lower"),
    Metric("consensus.pbft.avg_batch", "txn", "higher"),
    Metric("consensus.pbft.queue_delay_ms", "ms", "lower"),
    Metric("consensus.pbft.peak_open_slots", "count", "higher"),
    Metric("consensus.pbft.batches", "1/txn", "lower"),
    Metric("consensus.pbft.view_changes", "count", "lower"),
    Metric("consensus.pbft.retained_log_slots", "count", "lower"),
    Metric("consensus.client.retransmissions", "1/txn", "lower"),
    Metric("consensus.client.p99_ms", "ms", "lower"),
    Metric("core.retained_records", "count", "lower"),
    Metric("common.codec.payload_hit_ratio", "ratio", "higher"),
    Metric("common.codec.digest_hit_ratio", "ratio", "higher"),
    Metric("common.crypto.verify_hit_ratio", "ratio", "higher"),
    Metric("common.crypto.certificate_hit_ratio", "ratio", "higher"),
    Metric("storage.locks.wait_ratio", "ratio", "lower"),
    Metric("net.frames", "1/txn", "lower"),
    Metric("net.writes", "1/txn", "lower"),
    Metric("net.coalesced_ratio", "ratio", "higher"),
    Metric("net.wire_bytes", "B/txn", "lower"),
    Metric("netem.dropped", "count", "lower"),
    Metric("trace.overhead_ratio", "ratio", "lower"),
    Metric("trace.coverage", "ratio", "higher"),
)

PER_LAYER: tuple[Metric, ...] = (
    *(
        metric
        for span in SPAN_NAMES
        for metric in (
            Metric(f"{span}.calls", "1/txn", "lower"),
            Metric(f"{span}.self_us", "us/txn", "lower"),
        )
    ),
    *_COUNTERS,
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# end to end
# ----------------------------------------------------------------------


def end_to_end(
    *,
    records: list[tuple[str, float, float]],
    watched: set[str],
    submitted: int,
    tps: float,
    fault_at: float | None,
    cpu_s: float,
    setup_s: float,
    peak_rss_mb: float,
) -> dict[str, float]:
    """Every end-to-end metric of one pass.

    ``records`` holds ``(txn_id, submitted_at, completed_at)`` of each
    completed transaction; ``watched`` the ids addressed to
    :data:`WATCHED_SHARD`.  Unanswered transactions have no record: they
    count against ``within_limit_fraction`` and ``completed_fraction``.
    """
    completed = len(records)
    latencies = sorted(done - sent for _id, sent, done in records)
    watched_records = [r for r in records if r[0] in watched]
    return {
        "tps": tps,
        "p50_ms": percentile(latencies, 0.50) * 1e3,
        "p99_ms": percentile(latencies, 0.99) * 1e3,
        "cpu_us_per_txn": _ratio(cpu_s * 1e6, completed),
        "within_limit_fraction": _ratio(
            sum(1 for latency in latencies if latency <= LATENCY_LIMIT_S), submitted
        ),
        "completed_fraction": _ratio(completed, submitted),
        "outage_ms": _restoration_time(watched_records, fault_at) * 1e3,
        "recovered_p50_ms": _late_p50(watched_records, fault_at) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def _restoration_time(records: list[tuple[str, float, float]], fault_at: float | None) -> float:
    """Time from a reference instant until the first completion among the
    transactions submitted at or after it (the "time without service, up to
    the first request served afterward" of a fault).

    The reference instant is the injected fault.  Where no fault is injected
    the same question is asked at every :data:`TICK_S` of the submission
    window and the median answer reported: a single instant would be a
    one-sample statistic, too unsteady to bound.
    """
    if not records:
        return 0.0
    by_submit = sorted((sent, done) for _id, sent, done in records)
    sent_times = [sent for sent, _done in by_submit]
    # first_done_from[i]: earliest completion among by_submit[i:].
    first_done_from = [0.0] * len(by_submit)
    earliest = float("inf")
    for index in range(len(by_submit) - 1, -1, -1):
        earliest = min(earliest, by_submit[index][1])
        first_done_from[index] = earliest
    if fault_at is not None:
        instants = [fault_at]
    else:
        ticks = int((sent_times[-1] - sent_times[0]) / TICK_S)
        instants = [sent_times[0] + TICK_S * k for k in range(ticks + 1)]
    waits = []
    for instant in instants:
        index = bisect.bisect_left(sent_times, instant)
        if index < len(by_submit):
            waits.append(first_done_from[index] - instant)
    return statistics.median(waits) if waits else 0.0


def _late_p50(records: list[tuple[str, float, float]], fault_at: float | None) -> float:
    """Median latency of the late part of the run: transactions submitted at
    least :data:`RECOVERY_GRACE_S` after the fault, or (no fault) in the
    second half of the submission window."""
    if not records:
        return 0.0
    if fault_at is not None:
        cutoff = fault_at + RECOVERY_GRACE_S
    else:
        sent = [r[1] for r in records]
        cutoff = (min(sent) + max(sent)) / 2.0
    return percentile(sorted(done - sent for _id, sent, done in records if sent >= cutoff), 0.50)


# ----------------------------------------------------------------------
# per layer
# ----------------------------------------------------------------------


def span_metrics(tracer: Tracer | None, committed: int) -> dict[str, float]:
    """``S.calls`` and ``S.self_us`` per committed transaction for every span,
    plus the one ratio only the tracer's wrappers can see."""
    spans = tracer.by_name() if tracer is not None else {}
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        row = spans.get(name, {"calls": 0, "self_ns": 0})
        out[f"{name}.calls"] = _ratio(row["calls"], committed)
        out[f"{name}.self_us"] = _ratio(row["self_ns"] / 1e3, committed)
    lock_calls = spans.get("storage.locks.try_lock", {"calls": 0})["calls"]
    out["storage.locks.wait_ratio"] = _ratio(tracer.lock_waits if tracer else 0, lock_calls)
    return out


def counters(deployment, result, committed: int, submitted: int, p99_ms: float) -> dict[str, float]:
    """Counters and ratios read from public stats (available untraced too)."""
    replicas = list(deployment.replicas.values())
    counts = result.message_counts
    pipeline = result.pipeline_stats
    retained = deployment.retained_state_totals()
    client_requests = sum(
        client.stats.sent_count.get("ClientRequest", 0) for client in deployment.clients.values()
    )
    caches = {name: cache_hit_rate(stats) for name, stats in result.cache_stats.items()}
    view_changes = sum(
        max((r.view_changes_completed for r in deployment.shard_replicas(shard)), default=0)
        for shard in deployment.config.shard_ids
    )
    simulator = getattr(deployment.backend, "simulator", None)
    socket = getattr(deployment.transport, "stats", None)
    socket = socket.snapshot() if hasattr(socket, "frames_sent") else {}
    netem = deployment.transport.emulator.stats
    return {
        "transport.msgs": _ratio(result.total_messages, committed),
        "transport.bytes": _ratio(sum(r.stats.total_bytes for r in replicas), committed),
        "transport.msgs_cross": _ratio(
            sum(counts.get(name, 0) for name in CROSS_SHARD_TYPES), committed
        ),
        "sim.kernel.events": _ratio(simulator.processed_events if simulator else 0, committed),
        "consensus.pbft.avg_batch": float(pipeline.get("avg_batch_size", 0.0)),
        "consensus.pbft.queue_delay_ms": float(pipeline.get("avg_queue_delay_s", 0.0)) * 1e3,
        "consensus.pbft.peak_open_slots": float(pipeline.get("peak_open_slots", 0)),
        "consensus.pbft.batches": _ratio(pipeline.get("proposed_batches", 0), committed),
        "consensus.pbft.view_changes": float(view_changes),
        "consensus.pbft.retained_log_slots": float(retained.get("log_slots", 0)),
        "consensus.client.retransmissions": _ratio(client_requests - submitted, committed),
        "consensus.client.p99_ms": p99_ms,
        "core.retained_records": float(retained.get("cross_records", 0)),
        "common.codec.payload_hit_ratio": caches.get("payload", 0.0),
        "common.codec.digest_hit_ratio": caches.get("digest", 0.0),
        "common.crypto.verify_hit_ratio": caches.get("verify", 0.0),
        "common.crypto.certificate_hit_ratio": caches.get("certificate", 0.0),
        "net.frames": _ratio(socket.get("frames_sent", 0), committed),
        "net.writes": _ratio(socket.get("writes", 0), committed),
        "net.coalesced_ratio": _ratio(
            socket.get("coalesced_frames", 0), socket.get("frames_sent", 0)
        ),
        "net.wire_bytes": _ratio(socket.get("bytes_sent", 0), committed),
        "netem.dropped": float(netem.faulted + netem.lost),
    }
