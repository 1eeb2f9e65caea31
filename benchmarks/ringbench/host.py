"""Do not measure while the host is disturbed.

The sandbox this benchmark runs on has slow episodes: for 30-90 s at a time
every process takes 30-60 % more CPU and wall time (see README, *Noise*).  An
episode that covers most of a ten-run set moves every host-time metric by more
than any usable bound.  So before each pass the parent times a small fixed
loop that touches nothing under test; while it runs more than
:data:`DISTURBED_RATIO` slower than the fastest recent reading in this
checkout, the pass waits.  Waiting is capped per run and per checkout, after
which passes run regardless and the result says so.
"""

from __future__ import annotations

import hashlib
import heapq
import hmac
import json
import time
from pathlib import Path

#: A host this much slower than its recent best is in a slow episode (quiet
#: readings of the loop scatter by about +-5 %).
DISTURBED_RATIO = 1.2
#: Readings kept as the reference window: one per pass, so about the last
#: dozen runs -- long enough to outlive an episode, short enough to adapt if
#: the host changes for good.
WINDOW = 40
#: Most seconds one run, and all runs of one checkout, may sleep waiting.
RUN_LIMIT_S = 30.0
CHECKOUT_LIMIT_S = 600.0
RETRY_PAUSE_S = 1.0


def calibrate(slices: int = 3, iterations: int = 40_000) -> float:
    """Wall seconds of a fixed stdlib-only loop (dict, heap, f-string, HMAC:
    the interpreter work the simulator is made of), best of ``slices``."""
    best = float("inf")
    key = b"k" * 32
    for _ in range(slices):
        started = time.perf_counter()
        heap: list[int] = []
        table: dict[int, tuple[int, str]] = {}
        for i in range(iterations):
            table[i & 4095] = (i, f"txn-{i}")
            heapq.heappush(heap, (i * 7919) % 10007)
            if len(heap) > 64:
                heapq.heappop(heap)
            if not i & 7:
                hmac.new(key, b"payload-%d" % i, hashlib.sha256).digest()
        best = min(best, time.perf_counter() - started)
    return best


class QuietHostGate:
    """Per-run gate over a small state file shared by the runs of a checkout."""

    def __init__(self, state_path: Path, *, calibrate=calibrate, sleep=time.sleep) -> None:
        self._path = state_path
        self._calibrate = calibrate
        self._sleep = sleep
        self.waited_s = 0.0
        self.disturbed_passes = 0

    def _load(self) -> dict:
        try:
            state = json.loads(self._path.read_text())
            return {"readings": list(state["readings"]), "waited_s": float(state["waited_s"])}
        except (OSError, ValueError, KeyError, TypeError):
            return {"readings": [], "waited_s": 0.0}

    def wait(self) -> None:
        """Return when the host is quiet, or when no more waiting is allowed."""
        state = self._load()
        waited = 0.0
        while True:
            reading = self._calibrate()
            quiet = reading <= DISTURBED_RATIO * min(state["readings"], default=reading)
            if (
                quiet
                or self.waited_s + waited >= RUN_LIMIT_S
                or state["waited_s"] + waited >= CHECKOUT_LIMIT_S
            ):
                break
            self._sleep(RETRY_PAUSE_S)
            waited += RETRY_PAUSE_S
        self.waited_s += waited
        self.disturbed_passes += not quiet
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._path.write_text(
            json.dumps(
                {
                    "readings": (state["readings"] + [reading])[-WINDOW:],
                    "waited_s": state["waited_s"] + waited,
                }
            )
        )
