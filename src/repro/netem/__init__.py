"""Unified link emulation: one WAN model for both execution backends.

``repro.netem`` owns the entire link model of a deployment -- per-link
one-way delay derived from the region RTT matrix (or an explicit, possibly
asymmetric :class:`DelayMatrix`), jitter, bandwidth/serialisation delay,
steady-state loss, and the injected fault conditions -- behind one seeded,
deterministic decision engine (:class:`LinkEmulator`).  The simulator's
network and the TCP socket transport both consume the same engine, so a geo workload expressed once as a
:class:`NetemPolicy` runs identically (modulo clock) on any backend.
"""

from repro.netem.conditions import NetworkConditions
from repro.netem.emulator import LinkEmulator, NetemStats, region_map_for
from repro.netem.policy import DelayMatrix, LinkSpec, NetemPolicy
from repro.netem.profiles import (
    GEO_PROFILES,
    GeoProfile,
    netem_policy_for,
    profile_by_name,
    regions_for,
)
from repro.netem.regions import LatencyModel, region_rtt_seconds, rtt_matrix

__all__ = [
    "GEO_PROFILES",
    "DelayMatrix",
    "GeoProfile",
    "LatencyModel",
    "LinkEmulator",
    "LinkSpec",
    "NetemPolicy",
    "NetemStats",
    "NetworkConditions",
    "netem_policy_for",
    "profile_by_name",
    "region_map_for",
    "regions_for",
    "region_rtt_seconds",
    "rtt_matrix",
]
