"""Deterministic discrete-event simulation kernel.

The paper evaluates RingBFT on a real WAN deployment; this reproduction runs
the protocols inside a deterministic simulator so that every experiment is
repeatable and Byzantine/network faults can be injected precisely.  The
kernel is a classic event-calendar design: callbacks are executed in
timestamp order, ties broken by insertion order, so a given seed always
produces the same execution.

Events are deliberately lean: one ``__slots__`` object per calendar entry,
carrying the callback plus a positional-argument tuple.  Hot callers (the
network's delivery path fires one event per message copy) schedule a shared
bound method with per-event arguments instead of allocating a fresh closure
per delivery, which measurably lifts events/sec.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Callable

from repro.errors import SimulationError

_NO_ARGS: tuple = ()


class _Event:
    """One calendar entry: (time, tie_breaker) ordered, payload uncompared."""

    __slots__ = ("time", "tie_breaker", "callback", "args", "cancelled", "fired")

    def __init__(
        self, time: float, tie_breaker: int, callback: Callable[..., None], args: tuple
    ) -> None:
        self.time = time
        self.tie_breaker = tie_breaker
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False

    def __lt__(self, other: "_Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.tie_breaker < other.tie_breaker


class TimerHandle:
    """Handle returned by :meth:`Simulator.schedule`; allows cancellation."""

    def __init__(self, event: _Event, simulator: "Simulator") -> None:
        self._event = event
        self._simulator = simulator

    def cancel(self) -> None:
        """Cancel the pending callback; cancelling twice is harmless."""
        self._simulator._cancel(self._event)

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    @property
    def fire_time(self) -> float:
        return self._event.time


class Simulator:
    """Single-threaded deterministic event loop with virtual time in seconds.

    Cancelled events use *lazy deletion*: they stay in the heap (marked
    cancelled) and are discarded when they surface, while a live-event counter
    keeps :attr:`pending_events` O(1) -- harness loops consult it once per
    event fired, so a linear scan would make driving the simulator O(n^2).
    """

    def __init__(self, seed: int = 2022) -> None:
        self._now = 0.0
        self._queue: list[_Event] = []
        self._counter = itertools.count()
        self._rng = random.Random(seed)
        self.seed = seed
        self._processed = 0
        self._live = 0  # non-cancelled events currently in the heap

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def rng(self) -> random.Random:
        """Shared deterministic random source for jitter and workload draws."""
        return self._rng

    @property
    def processed_events(self) -> int:
        return self._processed

    @property
    def pending_events(self) -> int:
        return self._live

    def _cancel(self, event: _Event) -> None:
        if not event.cancelled and not event.fired:
            event.cancelled = True
            self._live -= 1

    def schedule(self, delay: float, callback: Callable[..., None], *args) -> TimerHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Passing the arguments here (instead of closing over them) lets hot
        callers reuse one bound method across millions of events.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        event = _Event(self._now + delay, next(self._counter), callback, args or _NO_ARGS)
        heapq.heappush(self._queue, event)
        self._live += 1
        return TimerHandle(event, self)

    def schedule_at(self, time: float, callback: Callable[..., None], *args) -> TimerHandle:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``."""
        return self.schedule(max(0.0, time - self._now), callback, *args)

    def step(self) -> bool:
        """Run the next pending event; returns False when the calendar is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            event.fired = True
            self._live -= 1
            self._now = event.time
            event.callback(*event.args)
            self._processed += 1
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Run events until the calendar drains, ``until`` is reached, or ``max_events`` fire.

        Returns the virtual time at which the run stopped.
        """
        fired = 0
        while self._queue:
            if max_events is not None and fired >= max_events:
                break
            nxt = self._peek_time()
            if nxt is None:
                break
            if until is not None and nxt > until:
                self._now = until
                break
            if not self.step():
                break
            fired += 1
        if until is not None and self._now < until and self._peek_time() is None:
            self._now = until
        return self._now

    def _peek_time(self) -> float | None:
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)
        return self._queue[0].time if self._queue else None
