"""Real-time scheduling: the simulator's timer interface over asyncio.

The protocol classes (``PbftReplica``, ``RingBftReplica``, the baselines, and
``Client``) only interact with their environment through two narrow
interfaces: a *scheduler* (``now``, ``schedule``, ``rng``) and a *network*
(``register``, ``send``, ``conditions``).  In the deterministic configuration
both come from the discrete-event simulator; on the socket backend the
network is a real TCP :class:`~repro.net.transport.SocketTransport` and the
scheduler is the :class:`RealTimeScheduler` defined here, so the exact same
replica code runs with real timers on the wall clock.  The multi-process
launcher behind ``ringbft deploy-local`` runs one OS process per replica on
top of the pair.
"""

from __future__ import annotations

import asyncio
import random

from repro.errors import SimulationError


class _AsyncTimerHandle:
    """Cancellable handle compatible with the simulator's ``TimerHandle``."""

    def __init__(self, handle: asyncio.TimerHandle, fire_time: float) -> None:
        self._handle = handle
        self._fire_time = fire_time
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True
        self._handle.cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def fire_time(self) -> float:
        return self._fire_time


class RealTimeScheduler:
    """Scheduler facade over a running asyncio event loop.

    Exposes the subset of :class:`repro.sim.kernel.Simulator` the nodes use:
    ``now``, ``schedule``, ``schedule_at``, and ``rng``.  Protocol time is
    wall-clock time: every delay is a real delay on ``loop``.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop, *, seed: int = 2022) -> None:
        self._loop = loop
        self.seed = seed
        self._rng = random.Random(seed)
        self._origin = self._loop.time()

    @property
    def now(self) -> float:
        """Elapsed protocol time since the scheduler was created."""
        return self._loop.time() - self._origin

    @property
    def rng(self) -> random.Random:
        return self._rng

    def schedule(self, delay: float, callback, *args) -> _AsyncTimerHandle:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        handle = self._loop.call_later(delay, callback, *args)
        return _AsyncTimerHandle(handle, self.now + delay)

    def schedule_at(self, time: float, callback, *args) -> _AsyncTimerHandle:
        return self.schedule(max(0.0, time - self.now), callback, *args)
