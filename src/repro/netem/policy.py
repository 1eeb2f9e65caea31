"""The link policy: what delay, jitter, bandwidth, and loss a link gets.

A :class:`NetemPolicy` describes the steady-state behaviour of every link of
one deployment.  It is pure description -- no randomness, no mutable state --
so the same policy object can be handed to the simulator and the TCP socket
transport, and both derive the identical :class:`LinkSpec` for any (source region, destination region) pair.
The stateful side (per-link RNG streams, fault conditions, counters) lives in
:class:`repro.netem.emulator.LinkEmulator`.

Delay resolution order for a link:

1. an explicit :class:`DelayMatrix` entry for the (src, dst) region pair --
   this is how tests inject asymmetric matrices and how a measured RTT table
   would be plugged in;
2. the great-circle :class:`~repro.netem.regions.LatencyModel` over the region
   names (the default used for the GCP geo profiles).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.netem.regions import LatencyModel


@dataclass(frozen=True)
class LinkSpec:
    """Resolved per-link parameters (one direction of one region pair)."""

    #: One-way propagation delay in seconds.
    delay_s: float
    #: Uniform jitter as a fraction of the total pre-jitter delay.
    jitter_fraction: float
    #: Steady-state emulated loss probability (beyond injected faults).
    loss: float
    #: Sender uplink bandwidth in bits/second; 0 disables serialisation delay.
    bandwidth_bps: float

    def serialisation_delay(self, size_bytes: int) -> float:
        if self.bandwidth_bps <= 0:
            return 0.0
        return (size_bytes * 8.0) / self.bandwidth_bps

    def base_delay(self, size_bytes: int) -> float:
        """Propagation + serialisation delay, before the jitter draw."""
        return self.delay_s + self.serialisation_delay(size_bytes)

    def delay_with_jitter(self, size_bytes: int, jitter_coin: float) -> float:
        """Total one-way delay given a uniform ``jitter_coin`` in [0, 1)."""
        return self.base_delay(size_bytes) * (1.0 + self.jitter_fraction * jitter_coin)


@dataclass
class DelayMatrix:
    """Explicit one-way delays per (src region, dst region) pair, in seconds.

    Entries are directional, so asymmetric routes (the reality of WAN paths)
    are expressible; missing pairs fall back to the policy's latency model.
    """

    one_way_s: dict[tuple[str, str], float] = field(default_factory=dict)

    def set(self, src_region: str, dst_region: str, delay_s: float) -> "DelayMatrix":
        self.one_way_s[(src_region, dst_region)] = delay_s
        return self

    def get(self, src_region: str, dst_region: str) -> float | None:
        return self.one_way_s.get((src_region, dst_region))

    @classmethod
    def symmetric(cls, rtt_s: dict[tuple[str, str], float]) -> "DelayMatrix":
        """Build from an RTT table: each direction gets half the round trip."""
        matrix = cls()
        for (a, b), rtt in rtt_s.items():
            matrix.set(a, b, rtt / 2.0)
            matrix.set(b, a, rtt / 2.0)
        return matrix


@dataclass(frozen=True)
class NetemPolicy:
    """Immutable description of one deployment's link behaviour."""

    #: Delay/bandwidth/jitter math over region names.
    latency: LatencyModel = field(default_factory=LatencyModel)
    #: Steady-state emulated loss probability applied to every link.
    loss: float = 0.0
    #: Explicit per-region-pair one-way delays overriding the latency model.
    matrix: DelayMatrix | None = None
    #: Informational: the geo profile this policy was built for (CLI reports).
    profile: str | None = None

    def spec_for(self, src_region: str, dst_region: str) -> LinkSpec:
        """The resolved :class:`LinkSpec` for one directional region pair."""
        same = src_region == dst_region
        override = self.matrix.get(src_region, dst_region) if self.matrix else None
        delay = (
            override
            if override is not None
            else self.latency.one_way_delay(src_region, dst_region)
        )
        return LinkSpec(
            delay_s=delay,
            jitter_fraction=self.latency.jitter_fraction,
            loss=self.loss,
            bandwidth_bps=(
                self.latency.lan_bandwidth_bps if same else self.latency.wan_bandwidth_bps
            ),
        )

    @classmethod
    def for_profile(cls, name: str, *, loss: float = 0.0) -> "NetemPolicy":
        """Policy for a named geo profile (validates the name)."""
        from repro.netem.profiles import profile_by_name

        profile = profile_by_name(name)
        return cls(loss=loss, profile=profile.name)
