"""Base runtime for simulated nodes (replicas and clients).

A node owns an address on the network, a region, per-node message statistics,
and a small timer facility layered over the simulation kernel.  Subclasses
implement :meth:`on_message` to run their protocol logic; delivery happens
through :meth:`deliver` so that crashed nodes can silently discard traffic,
mirroring a real fail-stop node.
"""

from __future__ import annotations

from typing import Hashable

from repro.common.messages import Message, MessageStats
from repro.sim.kernel import Simulator, TimerHandle
from repro.netem.fabric import LinkFabric


class Node:
    """A single process attached to the simulated network."""

    def __init__(self, address: Hashable, region: str, network: LinkFabric) -> None:
        self.address = address
        self.region = region
        self.network = network
        self.stats = MessageStats()
        self.crashed = False
        self._timers: dict[str, TimerHandle] = {}
        network.register(self)

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------

    @property
    def simulator(self) -> Simulator:
        return self.network.simulator

    @property
    def now(self) -> float:
        return self.simulator.now

    def send(self, dst: Hashable, message: Message) -> None:
        """Send a single message; crashed nodes send nothing."""
        if self.crashed:
            return
        self.stats.record(message)
        self.network.send(self.address, dst, message)

    def broadcast(self, dsts: list | tuple, message: Message, include_self: bool = False) -> None:
        """Send ``message`` to every destination; optionally loop it back to self.

        PBFT replicas count their own vote, so ``include_self=True`` delivers
        the message locally without a network hop.  The fan-out rides the
        network's multicast fast path: one stats entry per audience (wire
        size resolved once) and one shared payload across the deliveries.
        """
        if self.crashed:
            return
        targets = [dst for dst in dsts if dst != self.address]
        if targets:
            self.stats.record_fanout(message, len(targets))
            self.network.multicast(self.address, targets, message)
        if include_self:
            self.deliver_loopback(message)

    def deliver(self, message: Message) -> None:
        """Entry point used by the network; ignores traffic while crashed."""
        if self.crashed:
            return
        self.on_message(message)

    def deliver_loopback(self, message: Message) -> None:
        """Local delivery of this node's own broadcast (no network hop).

        Subclasses that gate network deliveries (e.g. MAC verification) may
        override this to skip the gate: a loopback never crossed the network,
        whereas a *received* message claiming this node as sender must still
        be verified -- trusting the sender field would let anyone spoof it.
        """
        self.deliver(message)

    def on_message(self, message: Message) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    # ------------------------------------------------------------------
    # timers
    # ------------------------------------------------------------------

    def set_timer(self, name: str, delay: float, callback) -> TimerHandle:
        """(Re)arm a named timer; an existing timer with the same name is cancelled."""
        self.cancel_timer(name)
        handle = self.simulator.schedule(delay, self._timer_wrapper(name, callback))
        self._timers[name] = handle
        return handle

    def _timer_wrapper(self, name: str, callback):
        def _fire() -> None:
            self._timers.pop(name, None)
            if not self.crashed:
                callback()

        return _fire

    def cancel_timer(self, name: str) -> None:
        handle = self._timers.pop(name, None)
        if handle is not None:
            handle.cancel()

    def has_timer(self, name: str) -> bool:
        return name in self._timers

    # ------------------------------------------------------------------
    # fault control
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Fail-stop the node: stop sending, receiving, and firing timers."""
        self.crashed = True
        for handle in self._timers.values():
            handle.cancel()
        self._timers.clear()

    def recover(self) -> None:
        self.crashed = False
