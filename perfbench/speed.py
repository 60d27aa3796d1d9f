"""Machine-speed reference for the end-to-end call times.

Shared hosts change speed by tens of percent as other tenants come and go.
On the 2-vCPU virtual machine this benchmark was tuned on, a fixed
pure-Python kernel ran anywhere from 0.7x to 1.6x its usual time, in phases
lasting from a second to minutes, and the program's calls slowed with it.
So the runner times the kernel between calls -- never during one, so work
the program does in parallel cannot slow it -- and divides each call's time
by the speed factor measured around it: for a call of milliseconds the
latest short probe, for a call of seconds the mean of a probe before and
one after, each lasting a tenth of the call so that it averages the
second-scale jitter the call itself averages.
"""

from __future__ import annotations

import math
import statistics
import time

REFERENCE_MS = 2.0  # kernel time that defines unit machine speed
KERNEL_ITERS = 10_000
SAMPLES_PER_PROBE = 5


def kernel_ms() -> float:
    """Time one run of the reference kernel: scalar float math, like the kinematics."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(KERNEL_ITERS):
        acc += math.sqrt(i * 0.5) * math.cos(i)
    return (time.perf_counter() - t0) * 1e3


class SpeedMeter:
    """Machine-speed factor (kernel time over ``REFERENCE_MS``; above 1 is slow)."""

    def __init__(self) -> None:
        self._factor = 1.0
        self._last = -math.inf

    def probe(self, seconds: float) -> float:
        """Run the kernel for ``seconds`` (at least a few times); return the factor."""
        runs: list[float] = []
        end = time.perf_counter() + seconds
        while len(runs) < SAMPLES_PER_PROBE or time.perf_counter() < end:
            runs.append(kernel_ms())
        self._factor = statistics.median(runs) / REFERENCE_MS
        self._last = time.perf_counter()
        return self._factor

    def current(self, every_s: float) -> float:
        """The latest factor, from a short probe first if ``every_s`` has passed."""
        if time.perf_counter() - self._last >= every_s:
            self.probe(0.0)
        return self._factor
