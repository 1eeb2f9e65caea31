"""Simulated WAN connecting clients and replicas.

The network delivers protocol messages after the one-way delay decided by the
shared link-emulation subsystem (:mod:`repro.netem`): region-to-region
propagation, per-message serialisation delay, jitter, steady-state loss, and
the injected fault conditions (message loss, one-directional link blocks for
the paper's *no communication* / *partial communication* cross-shard attacks,
and full node isolation) are all owned by one :class:`~repro.netem.LinkEmulator`.
The registry and the per-copy decision live in the front end both backends
share (:class:`~repro.netem.fabric.LinkFabric`); this module adds only the
simulator half: delivery as calendar events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable

from repro.errors import NetworkError
from repro.netem.conditions import NetworkConditions
from repro.netem.emulator import LinkEmulator
from repro.netem.fabric import FabricStats, LinkFabric
from repro.netem.policy import NetemPolicy
from repro.sim.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.common.messages import Message
    from repro.sim.node import Node

NodeAddress = Hashable

__all__ = ["Network", "NetworkConditions", "NodeAddress"]


@dataclass
class _DeliveryStats(FabricStats):
    bytes_delivered: int = 0


class Network(LinkFabric):
    """Message fabric shared by all nodes of one simulated deployment.

    Without an ``emulator`` the network models the default WAN
    (:class:`~repro.netem.NetemPolicy` over the paper's region latencies),
    seeded from the simulator.
    """

    def __init__(self, simulator: Simulator, emulator: LinkEmulator | None = None) -> None:
        super().__init__(
            simulator,
            emulator or LinkEmulator(NetemPolicy(), seed=simulator.seed),
            _DeliveryStats(),
        )

    def _resolve(self, dst: NodeAddress) -> "Node":
        node = self._nodes.get(dst)
        if node is None:
            raise NetworkError(f"cannot deliver to unknown address {dst!r}")
        return node

    def send(self, src: NodeAddress, dst: NodeAddress, message: "Message") -> None:
        """Deliver ``message`` from ``src`` to ``dst`` after the modelled delay.

        Delivery is skipped (silently, as in a real lossy network) when fault
        conditions block the link or a loss coin comes up.
        """
        size = message.wire_size()
        routed = self._route(src, dst, size)
        if routed is not None:
            # One shared bound method + argument tuple per delivery (no closure
            # allocation): the kernel carries the args in the slotted event.
            self._scheduler.schedule(routed[1], self._deliver_event, routed[0], message, size)

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
            routed = self._route(src, dst, size)
            if routed is not None:
                buckets.setdefault(routed[1], []).append(routed[0])
        for delay, receivers in buckets.items():
            if len(receivers) == 1:
                self._scheduler.schedule(delay, self._deliver_event, receivers[0], message, size)
            else:
                self._scheduler.schedule(delay, self._deliver_group, receivers, message, size)

    def _deliver_group(self, receivers: list["Node"], message: "Message", size: int) -> None:
        for receiver in receivers:
            self.stats.delivered += 1
            self.stats.bytes_delivered += size
            receiver.deliver(message)
