"""Simulated WAN connecting clients and replicas.

The network delivers protocol messages after the one-way delay decided by the
shared link-emulation subsystem (:mod:`repro.netem`): region-to-region
propagation, per-message serialisation delay, jitter, steady-state loss, and
the injected fault conditions (message loss, one-directional link blocks for
the paper's *no communication* / *partial communication* cross-shard attacks,
and full node isolation) are all owned by one :class:`~repro.netem.LinkEmulator`
-- the same engine the socket transport consumes, so a WAN
scenario expressed once runs identically on every backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable

from repro.errors import ConfigurationError, NetworkError
from repro.netem.conditions import NetworkConditions
from repro.netem.emulator import LinkEmulator
from repro.netem.policy import NetemPolicy
from repro.netem.regions import LatencyModel
from repro.sim.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.common.messages import Message
    from repro.sim.node import Node

NodeAddress = Hashable

__all__ = ["Network", "NetworkConditions", "NodeAddress"]


@dataclass
class _DeliveryStats:
    delivered: int = 0
    dropped: int = 0
    bytes_delivered: int = 0
    #: Fan-out operations served by the multicast fast path.  Each multicast
    #: is counted once here regardless of audience size; the per-copy
    #: outcomes still land in ``delivered``/``dropped``.
    multicasts: int = 0


class Network:
    """Message fabric shared by all nodes of one simulated deployment."""

    def __init__(
        self,
        simulator: Simulator,
        latency: LatencyModel | None = None,
        conditions: NetworkConditions | None = None,
        emulator: LinkEmulator | None = None,
    ) -> None:
        self._sim = simulator
        if emulator is None:
            emulator = LinkEmulator(
                NetemPolicy(latency=latency or LatencyModel()),
                conditions,
                seed=simulator.seed,
            )
        elif latency is not None or conditions is not None:
            # An emulator owns its policy and conditions; accepting the
            # standalone arguments alongside it would silently drop them.
            raise ConfigurationError(
                "pass either an emulator or latency/conditions, not both"
            )
        self._emulator = emulator
        self._nodes: dict[NodeAddress, "Node"] = {}
        self.stats = _DeliveryStats()

    @property
    def simulator(self) -> Simulator:
        return self._sim

    @property
    def emulator(self) -> LinkEmulator:
        return self._emulator

    @property
    def conditions(self) -> NetworkConditions:
        return self._emulator.conditions

    @property
    def latency_model(self) -> LatencyModel:
        policy = self._emulator.policy
        return policy.latency if policy is not None else LatencyModel()

    def register(self, node: "Node") -> None:
        """Attach a node to the fabric; addresses must be unique."""
        if node.address in self._nodes:
            raise NetworkError(f"address {node.address!r} is already registered")
        self._nodes[node.address] = node
        self._emulator.assign_region(node.address, node.region)

    def node(self, address: NodeAddress) -> "Node":
        if address not in self._nodes:
            raise NetworkError(f"unknown node address {address!r}")
        return self._nodes[address]

    def known_addresses(self) -> tuple[NodeAddress, ...]:
        return tuple(self._nodes)

    def send(self, src: NodeAddress, dst: NodeAddress, message: "Message") -> None:
        """Deliver ``message`` from ``src`` to ``dst`` after the modelled delay.

        Delivery is skipped (silently, as in a real lossy network) when fault
        conditions block the link or a loss coin comes up.
        """
        self._send_one(src, dst, message, message.wire_size())

    def _send_one(
        self, src: NodeAddress, dst: NodeAddress, message: "Message", size: int
    ) -> None:
        if dst not in self._nodes:
            raise NetworkError(f"cannot deliver to unknown address {dst!r}")
        deliver, delay = self._emulator.decide(src, dst, size)
        if not deliver:
            self.stats.dropped += 1
            return
        # One shared bound method + argument tuple per delivery (no closure
        # allocation): the kernel carries the args in the slotted event.
        self._sim.schedule(delay, self._deliver_event, self._nodes[dst], message, size)

    def _deliver_event(self, receiver: "Node", message: "Message", size: int) -> None:
        self.stats.delivered += 1
        self.stats.bytes_delivered += size
        receiver.deliver(message)

    def multicast(
        self,
        src: NodeAddress,
        dsts: list[NodeAddress] | tuple[NodeAddress, ...],
        message: "Message",
    ) -> None:
        """Fan one copy of ``message`` out to every destination (self excluded upstream).

        Fast path: the wire size is resolved once per message, every
        destination shares the same payload object, and the fan-out is
        counted once in the delivery stats.  Per-destination link decisions
        (loss coins, latency draws) are identical to ``n`` individual sends,
        so fault injection and determinism are unaffected.

        Copies whose links drew the *same* delay (the common case: an
        intra-shard broadcast over symmetric links with no jitter) are
        scheduled as **one calendar entry** that delivers to every receiver
        in destination order.  Separate same-delay events used to carry
        consecutive tie-breakers and therefore already ran back-to-back in
        destination order, so the grouped entry executes the identical
        global callback sequence with ``n - 1`` fewer heap operations.
        """
        if not dsts:
            return
        size = message.wire_size()
        self.stats.multicasts += 1
        buckets: dict[float, list["Node"]] = {}
        for dst in dsts:
            if dst not in self._nodes:
                raise NetworkError(f"cannot deliver to unknown address {dst!r}")
            deliver, delay = self._emulator.decide(src, dst, size)
            if not deliver:
                self.stats.dropped += 1
                continue
            buckets.setdefault(delay, []).append(self._nodes[dst])
        for delay, receivers in buckets.items():
            if len(receivers) == 1:
                self._sim.schedule(delay, self._deliver_event, receivers[0], message, size)
            else:
                self._sim.schedule(delay, self._deliver_group, receivers, message, size)

    def _deliver_group(self, receivers: list["Node"], message: "Message", size: int) -> None:
        for receiver in receivers:
            self.stats.delivered += 1
            self.stats.bytes_delivered += size
            receiver.deliver(message)
