"""Execution backends: the two clocks a deployment can run on.

An :class:`ExecutionBackend` owns a :class:`~repro.engine.protocols.Scheduler`
and a :class:`~repro.engine.protocols.Transport` and knows how to *drive* them:
run until a predicate holds, run for a stretch of protocol time, report the
current protocol time.  :class:`repro.engine.deployment.Deployment` builds the
replicas and clients against whichever backend it is handed, so every
experiment, benchmark, and example can run on either clock.

* :class:`SimBackend` -- deterministic discrete-event simulation; protocol
  time is virtual, a given seed always produces the same execution.  It
  drives the figures and the test oracles.
* :class:`SocketBackend` -- asyncio over real TCP sockets; messages leave the
  process as canonical-codec frames (:mod:`repro.net`) and protocol time is
  wall-clock time.  One process can host any subset of a deployment's nodes,
  which is what the multi-process launcher builds on.
"""

from __future__ import annotations

import abc
import asyncio
from typing import Callable, Hashable

from repro.engine.protocols import Scheduler, Transport
from repro.errors import ConfigurationError
from repro.net.transport import SocketTransport
from repro.netem import LinkEmulator, NetemPolicy
from repro.rt.transport import RealTimeScheduler
from repro.sim.kernel import Simulator
from repro.sim.network import Network


class ExecutionBackend(abc.ABC):
    """A clock + scheduler + transport bundle that can host a deployment."""

    #: Short identifier used by ``--backend`` flags and :func:`backend_by_name`.
    name: str = "abstract"

    @property
    @abc.abstractmethod
    def scheduler(self) -> Scheduler:
        """Timer facility handed to every node of the deployment."""

    @property
    @abc.abstractmethod
    def transport(self) -> Transport:
        """Message fabric handed to every node of the deployment."""

    @property
    def now(self) -> float:
        """Current protocol time in seconds."""
        return self.scheduler.now

    @abc.abstractmethod
    def run_until(
        self,
        predicate: Callable[[], bool],
        timeout: float,
        max_events: int | None = None,
    ) -> bool:
        """Drive the backend until ``predicate()`` holds or ``timeout`` protocol
        seconds elapse; returns the final predicate value."""

    @abc.abstractmethod
    def run_for(self, duration: float, max_events: int | None = None) -> float:
        """Drive the backend for ``duration`` protocol seconds; returns ``now``."""

    @abc.abstractmethod
    def run_until_time(self, time: float, max_events: int | None = None) -> float:
        """Drive the backend until absolute protocol time ``time``."""

    def drain(self, max_events: int | None = None) -> float:
        """Drive until quiescent; only meaningful on the deterministic backend."""
        raise ConfigurationError(
            f"backend {self.name!r} has no quiescence notion; pass an explicit duration"
        )

    def close(self) -> None:
        """Release any resources the backend owns (idempotent)."""

    # ------------------------------------------------------------------

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SimBackend(ExecutionBackend):
    """Deterministic discrete-event execution (the figure-regeneration mode)."""

    name = "sim"

    def __init__(self, *, seed: int = 2022, netem: NetemPolicy | None = None) -> None:
        self.simulator = Simulator(seed=seed)
        self.network = Network(self.simulator, LinkEmulator(netem or NetemPolicy(), seed=seed))

    @property
    def scheduler(self) -> Simulator:
        return self.simulator

    @property
    def transport(self) -> Network:
        return self.network

    def run_until(
        self,
        predicate: Callable[[], bool],
        timeout: float,
        max_events: int | None = 5_000_000,
    ) -> bool:
        deadline = self.simulator.now + timeout
        fired = 0
        while max_events is None or fired < max_events:
            if predicate():
                return True
            if self.simulator.pending_events == 0 or self.simulator.now > deadline:
                break
            self.simulator.step()
            fired += 1
        return predicate()

    def run_for(self, duration: float, max_events: int | None = None) -> float:
        return self.simulator.run(until=self.simulator.now + duration, max_events=max_events)

    def run_until_time(self, time: float, max_events: int | None = None) -> float:
        return self.simulator.run(until=time, max_events=max_events)

    def drain(self, max_events: int | None = None) -> float:
        return self.simulator.run(max_events=max_events)


class SocketBackend(ExecutionBackend):
    """Real TCP execution: messages cross the network as codec frames.

    The backend owns a private event loop, a :class:`RealTimeScheduler`
    (protocol timers are real timers and protocol time *is* wall-clock time,
    so throughput and latency numbers are genuine), and a
    :class:`~repro.net.transport.SocketTransport` bound to ``listen``.
    ``address_map`` pins remote replicas to endpoints; addresses missing from
    it (clients) route to ``default_endpoint``.  Owning the loop keeps
    construction eager and symmetric with the simulator and lets one
    deployment be driven several times (run, inspect, run again).

    Constructed by name (``--backend socket``) it hosts every node locally,
    and even a single-process deployment pushes every message through
    encode -> frame -> TCP -> decode -> MAC-verify via its own listening
    socket.  The listening socket is bound eagerly during
    construction (nodes enqueue wire traffic before the loop first runs), so
    ``listen_endpoint`` is valid immediately.
    """

    name = "socket"

    #: Wall-clock pause between predicate polls while driving the loop.
    POLL_INTERVAL_S = 0.002

    def __init__(
        self,
        *,
        listen: tuple[str, int] = ("127.0.0.1", 0),
        address_map: dict[Hashable, tuple[str, int]] | None = None,
        default_endpoint: tuple[str, int] | None = None,
        seed: int = 2022,
        netem: NetemPolicy | None = None,
    ) -> None:
        self._loop = asyncio.new_event_loop()
        self._closed = False
        self._scheduler = RealTimeScheduler(self._loop, seed=seed)
        # ``netem=None`` keeps the historical plain-loopback behaviour: the
        # emulator only injects faults; a geo policy adds real WAN delays.
        self._transport = SocketTransport(
            self._scheduler,
            self._loop,
            listen=listen,
            address_map=address_map,
            default_endpoint=default_endpoint,
            emulator=LinkEmulator(netem, seed=seed),
        )
        self._loop.run_until_complete(self._transport.start())

    @property
    def scheduler(self) -> RealTimeScheduler:
        return self._scheduler

    @property
    def transport(self) -> SocketTransport:
        return self._transport

    @property
    def listen_endpoint(self) -> tuple[str, int]:
        return self._transport.bound_endpoint

    def run_until(
        self,
        predicate: Callable[[], bool],
        timeout: float,
        max_events: int | None = None,
    ) -> bool:
        async def _drive() -> bool:
            wall_deadline = self._loop.time() + timeout
            while not predicate():
                if self._loop.time() >= wall_deadline:
                    break
                await asyncio.sleep(self.POLL_INTERVAL_S)
            return predicate()

        return self._loop.run_until_complete(_drive())

    def run_for(self, duration: float, max_events: int | None = None) -> float:
        self._loop.run_until_complete(asyncio.sleep(duration))
        return self.now

    def run_until_time(self, time: float, max_events: int | None = None) -> float:
        remaining = time - self.now
        if remaining > 0:
            self.run_for(remaining)
        return self.now

    def run_coroutine(self, coro):
        """Run an auxiliary coroutine (control calls, teardown) on the loop."""
        return self._loop.run_until_complete(coro)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._loop.run_until_complete(self._transport.aclose())
            self._loop.close()


#: Registry of the built-in backends, keyed by their ``--backend`` name.
BACKENDS: dict[str, type[ExecutionBackend]] = {
    SimBackend.name: SimBackend,
    SocketBackend.name: SocketBackend,
}


def backend_by_name(name: str, **kwargs) -> ExecutionBackend:
    """Instantiate a built-in backend from its ``--backend`` name.

    Keyword arguments go to the backend's constructor unchanged, so a knob
    the chosen backend does not take raises a ``TypeError`` naming it.
    """
    if name not in BACKENDS:
        raise ConfigurationError(
            f"unknown execution backend {name!r}; known: {sorted(BACKENDS)}"
        )
    return BACKENDS[name](**kwargs)
