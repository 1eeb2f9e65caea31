"""Arrival-rate estimate for the pipelined proposal pump.

The pump chooses between two batching rules from one question: can the
offered load fill a batch before the queue-delay timer would flush it anyway?
:class:`ArrivalRateEstimator` answers it from the primary's own event stream,
as the reciprocal of an EWMA over interarrival gaps.

The *gap* is smoothed, not the instantaneous rate: zero gaps (a burst
delivered in one event) enter the average like any other sample, so a burst of
N arrivals followed by a quiet period reads as the sustained rate instead of N
over one tiny gap.

Determinism contract: the estimator owns no clock and no randomness -- the
caller passes its scheduler time, so the same message order reproduces the
same estimate on any backend and any host.
"""

from __future__ import annotations

#: EWMA smoothing factor for the interarrival gap.
EWMA_ALPHA = 0.2

#: Gap samples required before the estimate is trusted.  A freshly started
#: primary has no evidence about the load, so a short burst (a closed-loop
#: window priming every client at t=0) must not read as sustained pressure.
WARMUP_SAMPLES = 8


class ArrivalRateEstimator:
    """Smoothed offered load at one primary (staged requests per second)."""

    __slots__ = ("_gap_s", "_samples", "_last_arrival_at")

    def __init__(self) -> None:
        self._gap_s = 0.0
        self._samples = 0
        self._last_arrival_at: float | None = None

    def note_arrival(self, now: float) -> None:
        """A request was staged at ``now``; fold the gap into the EWMA."""
        if self._last_arrival_at is not None:
            gap = now - self._last_arrival_at
            if self._samples == 0:
                self._gap_s = gap
            else:
                self._gap_s += EWMA_ALPHA * (gap - self._gap_s)
            self._samples += 1
        self._last_arrival_at = now

    @property
    def rate_tps(self) -> float:
        """Arrivals per second; zero while the estimate is unknowable.

        Unknowable means still warming up, or every observed gap was zero
        (one burst and silence since).
        """
        if self._samples < WARMUP_SAMPLES or self._gap_s <= 0.0:
            return 0.0
        return 1.0 / self._gap_s

    def fills_within(self, batch_size: int, delay_s: float) -> bool:
        """Whether arrivals alone fill ``batch_size`` requests inside ``delay_s``."""
        return self.rate_tps * delay_s >= batch_size
