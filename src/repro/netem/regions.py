"""WAN latency model for the fifteen GCP regions used in the paper.

The paper deploys one shard per region across Oregon, Iowa, Montreal,
Netherlands, Taiwan, Sydney, Singapore, South Carolina, North Virginia,
Los Angeles, Las Vegas, London, Belgium, Tokyo, and Hong Kong.  We do not have
the authors' measured RTT matrix, so inter-region round-trip times are derived
from great-circle distances at two-thirds of the speed of light (a standard
approximation for long-haul fibre) plus a small fixed overhead, which
reproduces the qualitative structure the paper relies on: same-continent pairs
are tens of milliseconds apart, trans-Pacific and trans-Atlantic pairs are
100-200 ms apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Approximate data-centre coordinates (latitude, longitude) per region.
REGION_COORDINATES: dict[str, tuple[float, float]] = {
    "oregon": (45.59, -121.18),
    "iowa": (41.26, -95.86),
    "montreal": (45.50, -73.57),
    "netherlands": (53.44, 6.84),
    "taiwan": (24.05, 120.52),
    "sydney": (-33.87, 151.21),
    "singapore": (1.35, 103.82),
    "south-carolina": (33.20, -80.01),
    "north-virginia": (39.03, -77.47),
    "los-angeles": (34.05, -118.24),
    "las-vegas": (36.17, -115.14),
    "london": (51.51, -0.13),
    "belgium": (50.47, 3.87),
    "tokyo": (35.69, 139.69),
    "hong-kong": (22.32, 114.17),
    # Same-datacentre placeholder used by purely local test deployments.
    "local": (0.0, 0.0),
}

_EARTH_RADIUS_KM = 6371.0
_FIBRE_SPEED_KM_PER_S = 200_000.0  # ~2/3 c in glass
_FIXED_OVERHEAD_S = 0.004  # routing / switching overhead per round trip
_LOCAL_RTT_S = 0.0006  # same-region, same-datacentre round trip


def _great_circle_km(a: tuple[float, float], b: tuple[float, float]) -> float:
    lat1, lon1 = map(math.radians, a)
    lat2, lon2 = map(math.radians, b)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return 2 * _EARTH_RADIUS_KM * math.asin(math.sqrt(h))


def region_rtt_seconds(region_a: str, region_b: str) -> float:
    """Round-trip time between two regions in seconds."""
    if region_a == region_b:
        return _LOCAL_RTT_S
    try:
        coord_a = REGION_COORDINATES[region_a]
        coord_b = REGION_COORDINATES[region_b]
    except KeyError as exc:  # pragma: no cover - defensive
        raise KeyError(f"unknown region {exc.args[0]!r}") from exc
    distance = _great_circle_km(coord_a, coord_b)
    return 2.0 * distance / _FIBRE_SPEED_KM_PER_S + _FIXED_OVERHEAD_S


@dataclass(frozen=True)
class LatencyModel:
    """One-way delay and bandwidth model used by the link emulator.

    ``wan_bandwidth_bps`` models the per-node WAN egress limit; the paper
    repeatedly notes that available bandwidth between regions limits the
    protocols that concentrate cross-shard traffic on few nodes.
    """

    wan_bandwidth_bps: float = 1.0e9  # ~1 Gbit/s effective per node
    lan_bandwidth_bps: float = 8.0e9
    jitter_fraction: float = 0.05

    def one_way_delay(self, region_a: str, region_b: str) -> float:
        """Propagation delay for a single message between two regions."""
        return region_rtt_seconds(region_a, region_b) / 2.0

    def transmission_delay(self, size_bytes: int, same_region: bool) -> float:
        """Serialisation delay of ``size_bytes`` on the sender's uplink."""
        bandwidth = self.lan_bandwidth_bps if same_region else self.wan_bandwidth_bps
        return (size_bytes * 8.0) / bandwidth

    def message_delay(self, region_a: str, region_b: str, size_bytes: int) -> float:
        """Total one-way delay (propagation + serialisation), without jitter."""
        same = region_a == region_b
        return self.one_way_delay(region_a, region_b) + self.transmission_delay(size_bytes, same)


def rtt_matrix(regions: tuple[str, ...] | list[str]) -> dict[tuple[str, str], float]:
    """Full pairwise RTT matrix for a list of regions (seconds)."""
    return {
        (a, b): region_rtt_seconds(a, b)
        for a in regions
        for b in regions
    }
