"""Unit tests: the asyncio scheduler behind the socket backend's timers."""

import asyncio

import pytest

from repro.errors import SimulationError
from repro.rt.transport import RealTimeScheduler


class TestRealTimeScheduler:
    def test_schedule_and_now(self):
        async def scenario():
            scheduler = RealTimeScheduler(asyncio.get_running_loop())
            fired = []
            handle = scheduler.schedule(0.005, lambda: fired.append(scheduler.now))
            await asyncio.sleep(0.03)
            return fired, handle.fire_time

        fired, fire_time = asyncio.run(scenario())
        assert len(fired) == 1
        # Protocol time is wall-clock time: the timer fires no earlier than asked.
        assert fired[0] >= 0.005
        assert fire_time >= 0.005

    def test_cancelled_timer_does_not_fire(self):
        async def scenario():
            scheduler = RealTimeScheduler(asyncio.get_running_loop())
            fired = []
            handle = scheduler.schedule(0.005, lambda: fired.append("x"))
            handle.cancel()
            await asyncio.sleep(0.02)
            return fired, handle.cancelled

        fired, cancelled = asyncio.run(scenario())
        assert fired == []
        assert cancelled

    def test_negative_delay_rejected(self):
        async def scenario():
            scheduler = RealTimeScheduler(asyncio.get_running_loop())
            with pytest.raises(SimulationError):
                scheduler.schedule(-1.0, lambda: None)

        asyncio.run(scenario())

    def test_loop_is_required(self):
        with pytest.raises(TypeError):
            RealTimeScheduler()  # type: ignore[call-arg]
