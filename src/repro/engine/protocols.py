"""Structural protocols every execution backend must provide.

The protocol classes (``PbftReplica``, its subclasses, and ``Client``) touch
their environment through three narrow surfaces only:

* a :class:`Clock` -- ``now`` in *protocol seconds* (virtual seconds in the
  simulator, wall-clock seconds on the socket backend);
* a :class:`Scheduler` -- one-shot timers plus a deterministic random source;
* a :class:`Transport` -- node registry and message delivery with fault
  conditions.

Anything implementing these three protocols can host the unmodified protocol
code, which is what makes the execution engine pluggable (the same pattern
Hyperledger Sawtooth uses for dynamic consensus engines).  The two built-in
implementations are the deterministic discrete-event simulator
(:class:`repro.sim.kernel.Simulator` + :class:`repro.sim.network.Network`)
and the real-TCP socket stack (:class:`repro.rt.transport.RealTimeScheduler`
+ :class:`repro.net.transport.SocketTransport`).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Hashable, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.common.messages import Message
    from repro.netem.conditions import NetworkConditions
    from repro.sim.node import Node


@runtime_checkable
class TimerCancelHandle(Protocol):
    """Handle returned by :meth:`Scheduler.schedule`; allows cancellation."""

    def cancel(self) -> None: ...

    @property
    def cancelled(self) -> bool: ...

    @property
    def fire_time(self) -> float: ...


@runtime_checkable
class Clock(Protocol):
    """A monotonically increasing protocol-time clock."""

    @property
    def now(self) -> float: ...


@runtime_checkable
class Scheduler(Protocol):
    """Clock plus one-shot timers and a shared random source."""

    @property
    def now(self) -> float: ...

    @property
    def rng(self) -> random.Random: ...

    def schedule(self, delay: float, callback, *args) -> TimerCancelHandle: ...

    def schedule_at(self, time: float, callback, *args) -> TimerCancelHandle: ...


@runtime_checkable
class Transport(Protocol):
    """Message fabric connecting the nodes of one deployment."""

    conditions: "NetworkConditions"

    @property
    def simulator(self) -> Scheduler: ...

    def register(self, node: "Node") -> None: ...

    def node(self, address: Hashable) -> "Node": ...

    def known_addresses(self) -> tuple[Hashable, ...]: ...

    def send(self, src: Hashable, dst: Hashable, message: "Message") -> None: ...

    def multicast(self, src: Hashable, dsts, message: "Message") -> None: ...
