"""Host-speed calibration: a fixed numpy kernel timed between the measurements.

On a shared machine the host's speed drifts by up to 1.5x in stretches of
seconds to minutes, and the drift is in the process's own CPU time (frequency
and cache contention, not scheduling), so no percentile of a run's samples can
remove it when a whole run falls in a slow stretch.  A fixed kernel doing the
same kinds of work as the program (small numpy ops dispatched from Python, a
moderate matmul, a strided copy), timed every ``EVERY_S`` between the
program's own activities, slows down with it: the ratio of a training step to
the kernel stays within a few percent while both move by half.

``normalise`` divides every timed sample by the median kernel time from
``WINDOW_S`` before it starts to ``WINDOW_S`` after it ends and multiplies by
``REFERENCE_S``, so a metric reads as the time the operation takes on a host
where one kernel unit takes ``REFERENCE_S``.  The kernel does not touch the program, so a change to the
program moves the normalised figures exactly as it moves the raw ones.
"""
from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Time of one kernel unit on the fast state of the 2-core Xeon host the
# benchmark was built on.  Only a scale: it is the same for every commit.
REFERENCE_S = 4.0e-3
EVERY_S = 0.1
WINDOW_S = 1.0
MIN_NEIGHBOURS = 5
ROUNDS = 10


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(20220926)  # fixed: the same kernel in every run
        self._a = rng.standard_normal((16, 64), dtype=np.float32)
        self._b = rng.standard_normal((64, 64), dtype=np.float32)
        self._m = rng.standard_normal((96, 96), dtype=np.float32)
        self._x = rng.standard_normal((16, 8, 8, 8, 16), dtype=np.float32)
        self.stamps: list[float] = []
        self.durations: list[float] = []
        self._last = -float("inf")

    def _kernel(self) -> float:
        acc = 0.0
        for i in range(ROUNDS):
            y = self._a @ self._b
            y = np.maximum(y, 0.0) * 0.5 + y
            acc += float(y.sum(axis=1)[i])
            acc += float((self._m @ self._m)[i, i])
            x = self._x.reshape(16, -1).T.copy()
            acc += float(x.mean(axis=0)[i])
            for j in range(20):
                acc += j * 0.5
        return acc

    def measure(self) -> None:
        start = time.perf_counter()
        self._kernel()
        end = time.perf_counter()
        self.stamps.append(0.5 * (start + end))
        self.durations.append(end - start)
        self._last = end

    def maybe(self) -> None:
        """Measure one unit if ``EVERY_S`` has passed since the last one."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.measure()

    def unit_s(self, start: float, end: float) -> float:
        """Median kernel time around ``[start, end]``, or over the nearest units."""
        lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + WINDOW_S)
        if hi - lo < MIN_NEIGHBOURS:
            mid = bisect.bisect_left(self.stamps, 0.5 * (start + end))
            lo = max(0, min(mid - MIN_NEIGHBOURS // 2, len(self.stamps) - MIN_NEIGHBOURS))
            hi = lo + MIN_NEIGHBOURS
        return statistics.median(self.durations[lo:hi])

    def normalise(self, starts: list[float], seconds: list[float]) -> list[float]:
        """Each sample, started at ``starts[i]`` and ``seconds[i]`` long, at the reference host speed."""
        return [s * REFERENCE_S / self.unit_s(t, t + s) for t, s in zip(starts, seconds)]
