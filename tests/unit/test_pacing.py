"""Unit tests for the arrival-rate estimator and the window gauges.

The estimator is a pure function of its event feed (no clock, no RNG), so
every behaviour here is pinned with hand-fed arrival times: convergence,
burst handling, warm-up, and the boundary between the pump's two batching
rules.  The depth=1 ``peak_open_slots`` gauge is pinned separately because its
reading of 2 looks like an off-by-one and is not -- see
``TestLegacyWindowGauge``.
"""

import pytest

from repro.config import PipelineConfig, SystemConfig, WorkloadConfig
from repro.consensus.pbft.pacing import WARMUP_SAMPLES, ArrivalRateEstimator
from repro.engine.deployment import Deployment
from repro.engine.driver import WorkloadDriver
from repro.workloads.ycsb import YcsbWorkloadGenerator


def _fed(rate_tps: float, count: int = 200) -> ArrivalRateEstimator:
    estimator = ArrivalRateEstimator()
    for i in range(count):
        estimator.note_arrival(i / rate_tps)
    return estimator


class TestArrivalRateEstimator:
    def test_no_samples_reads_zero(self):
        assert ArrivalRateEstimator().rate_tps == 0.0

    def test_uniform_arrivals_converge_to_rate(self):
        assert _fed(100.0).rate_tps == pytest.approx(100.0, rel=0.01)

    def test_burst_then_gap_averages_not_explodes(self):
        # A burst of N same-instant arrivals followed by one real gap must
        # read as the sustained rate, not as N divided by the tiny gap.
        estimator = ArrivalRateEstimator()
        now = 0.0
        for _ in range(50):  # 50 rounds of: 4 arrivals at once, then 40 ms
            for _ in range(4):
                estimator.note_arrival(now)
            now += 0.04  # sustained: 100/s
        # Phase-dependent (the feed ends just after the zero-gap burst, which
        # biases the smoothed gap low), so pin the order of magnitude: close
        # to 100/s and nowhere near burst-size-over-one-gap (= 400/s+).
        assert 70.0 <= estimator.rate_tps <= 200.0

    def test_all_zero_gaps_read_zero_not_infinity(self):
        estimator = ArrivalRateEstimator()
        for _ in range(10):
            estimator.note_arrival(5.0)
        assert estimator.rate_tps == 0.0

    def test_cold_estimator_reads_zero_until_warm(self):
        # A closed-loop window priming every client at t=0 must not read as
        # sustained pressure: no verdict before WARMUP_SAMPLES gaps.
        assert _fed(10_000.0, count=WARMUP_SAMPLES).rate_tps == 0.0
        assert _fed(10_000.0, count=WARMUP_SAMPLES + 1).rate_tps > 0.0

    def test_identical_feeds_give_identical_estimates(self):
        assert _fed(333.0).rate_tps == _fed(333.0).rate_tps


class TestRegimeBoundary:
    def test_slow_arrivals_cannot_fill_a_batch(self):
        # 100/s against a 50 ms budget: 5 requests, short of a batch of 8.
        assert not _fed(100.0).fills_within(8, 0.05)

    def test_fast_arrivals_fill_a_batch(self):
        # 400/s against a 50 ms budget: 20 requests.
        assert _fed(400.0).fills_within(8, 0.05)

    def test_cold_estimator_never_sustained(self):
        assert not ArrivalRateEstimator().fills_within(1, 10.0)


class TestLegacyWindowGauge:
    """Pin the depth=1 ``peak_open_slots`` reading of 2.

    The legacy propose-on-fill path has *no* window gate: a flush emits one
    batch per involved-shard group back-to-back (a cross-shard group and a
    local group can be proposed at the same instant), so two proposals are
    momentarily in flight and the gauge honestly reads 2.  The depth=1
    guarantee is byte-identical *chains* (one consensus per batch, sequence
    order), not one-slot-at-a-time -- pinning the gauge here keeps anyone
    from "fixing" the reading to 1 and silently serialising the legacy
    flush.
    """

    def test_depth1_macro_peaks_at_two_open_slots(self):
        workload = WorkloadConfig(
            num_records=1_000,
            cross_shard_fraction=0.3,
            batch_size=100,
            num_clients=6,
            seed=2022,
        )
        config = SystemConfig.uniform(
            3, 4, workload=workload, pipeline=PipelineConfig(depth=1)
        )
        deployment = Deployment.build(
            config, backend="sim", num_clients=0, batch_size=100, seed=2022
        )
        try:
            for i, shard in enumerate(config.shards):
                for j in range(2):
                    deployment.add_client(f"client-{i}-{j}", region=shard.region)
            generator = YcsbWorkloadGenerator(
                deployment.table, deployment.directory.ring, workload, seed=2022
            )
            driver = WorkloadDriver(
                deployment, generator, total=120, window=4, poll_interval=0.005
            )
            result = driver.run(timeout=600.0)
        finally:
            deployment.close()
        assert result.completed == 120
        # 2, not 1: the flush proposes the cross-shard group and the local
        # group at the same instant.  2, not more: each group still waits
        # for its own previous batch, so overlap never compounds.
        assert result.pipeline_stats["peak_open_slots"] == 2
