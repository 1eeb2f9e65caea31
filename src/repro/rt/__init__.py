"""Real-time (asyncio) scheduling: run the same protocol code on the wall clock."""

from repro.rt.transport import RealTimeScheduler

__all__ = ["RealTimeScheduler"]
