"""Deterministic discrete-event simulation substrate (kernel, WAN network, nodes)."""

from repro.sim.kernel import Simulator, TimerHandle
from repro.sim.network import Network, NetworkConditions
from repro.netem.regions import LatencyModel, region_rtt_seconds
from repro.sim.node import Node

__all__ = [
    "Simulator",
    "TimerHandle",
    "Network",
    "NetworkConditions",
    "LatencyModel",
    "region_rtt_seconds",
    "Node",
]
