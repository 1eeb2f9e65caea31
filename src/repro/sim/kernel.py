"""Deterministic discrete-event simulation kernel.

The paper evaluates RingBFT on a real WAN deployment; this reproduction runs
the protocols inside a deterministic simulator so that every experiment is
repeatable and Byzantine/network faults can be injected precisely.  The
kernel is a classic event-calendar design: callbacks are executed in
timestamp order, ties broken by insertion order, so a given seed always
produces the same execution.

The calendar is a binary heap of ``(time, tie_breaker, handle)`` tuples.
``tie_breaker`` is a per-simulator counter, unique per entry, so the heap
orders entries by time and then by scheduling order and never compares the
third element.  Tuple comparison runs in C inside ``heapq``.  That is why
:class:`TimerHandle` has no ``__lt__``: a Python comparison method would run
once per heap level on every push and pop, close to twenty interpreted
calls per event on a busy calendar.

Events are deliberately lean: the :class:`TimerHandle` returned to the caller
is the calendar entry itself (one ``__slots__`` object per scheduled
callback), carrying the callback plus a positional-argument tuple.  Hot
callers (the network's delivery path fires one event per message copy)
schedule a shared bound method with per-event arguments instead of
allocating a fresh closure per delivery, which measurably lifts events/sec.

Cancellation frees what the entry holds: :meth:`TimerHandle.cancel` drops the
callback and its arguments at once, so a cancelled request timer no longer
keeps its closure alive until its deadline.  The entry itself stays in the
heap until it surfaces, unless cancelled entries come to outnumber live ones
(above a floor of :data:`_COMPACT_FLOOR` entries, the rule asyncio's event
loop uses): the simulator then keeps only the live entries and heapifies
them.  Every entry keeps its ``(time, tie_breaker)`` key, and those keys are
unique, so a compacted heap fires the same events in the same order.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Callable

from repro.errors import SimulationError

_NO_ARGS: tuple = ()

#: The calendar is compacted only above this many entries, so a small one is
#: never rebuilt for a handful of cancellations.
_COMPACT_FLOOR = 256


class TimerHandle:
    """One scheduled callback; returned by :meth:`Simulator.schedule` for cancellation.

    A cancelled handle has ``callback`` and ``args`` set to None.
    """

    __slots__ = ("fire_time", "callback", "args", "cancelled", "fired", "_simulator")

    def __init__(
        self,
        simulator: "Simulator",
        fire_time: float,
        callback: Callable[..., None],
        args: tuple,
    ) -> None:
        self._simulator = simulator
        self.fire_time = fire_time
        self.callback: Callable[..., None] | None = callback
        self.args: tuple | None = args
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        """Cancel the pending callback and release it; cancelling twice is harmless."""
        if not self.cancelled and not self.fired:
            self.cancelled = True
            self.callback = self.args = None
            self._simulator._on_cancel()


class Simulator:
    """Single-threaded deterministic event loop with virtual time in seconds.

    Cancelled events use *lazy deletion*: they stay in the heap (marked
    cancelled, their callbacks released) and are discarded when they surface,
    while a live-event counter keeps :attr:`pending_events` O(1) -- harness
    loops consult it once per event fired, so a linear scan would make driving
    the simulator O(n^2).  Once cancelled entries outnumber live ones above
    :data:`_COMPACT_FLOOR` entries, the heap is rebuilt from its live entries,
    which bounds :attr:`calendar_size` by about twice :attr:`pending_events`
    without changing the firing order.
    """

    def __init__(self, seed: int = 2022) -> None:
        self._now = 0.0
        self._queue: list[tuple[float, int, TimerHandle]] = []
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

    @property
    def calendar_size(self) -> int:
        """Entries in the calendar heap, cancelled ones included."""
        return len(self._queue)

    def schedule(self, delay: float, callback: Callable[..., None], *args) -> TimerHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Passing the arguments here (instead of closing over them) lets hot
        callers reuse one bound method across millions of events.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self._now + delay
        handle = TimerHandle(self, time, callback, args or _NO_ARGS)
        heapq.heappush(self._queue, (time, next(self._counter), handle))
        self._live += 1
        return handle

    def schedule_at(self, time: float, callback: Callable[..., None], *args) -> TimerHandle:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``."""
        return self.schedule(max(0.0, time - self._now), callback, *args)

    def step(self) -> bool:
        """Run the next pending event; returns False when the calendar is empty."""
        queue = self._queue
        while queue:
            time, _, handle = heapq.heappop(queue)
            if handle.cancelled:
                continue
            handle.fired = True
            self._live -= 1
            self._now = time
            handle.callback(*handle.args)
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

    def _on_cancel(self) -> None:
        self._live -= 1
        queue = self._queue
        if len(queue) > _COMPACT_FLOOR and len(queue) > 2 * self._live:
            # In place: ``step`` and ``run`` may hold a reference to the list.
            queue[:] = [entry for entry in queue if not entry[2].cancelled]
            heapq.heapify(queue)

    def _peek_time(self) -> float | None:
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
        return queue[0][0] if queue else None
