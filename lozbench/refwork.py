"""Host-speed calibration: fixed reference work timed between tasks.

The shared host this benchmark was written on changes speed by up to
1.8x over tens of seconds to minutes, for all code alike, so raw task
times of two runs of the same program can differ by more than any
useful bound.  The benchmark therefore times a fixed piece of pure
Python (no lozlab code: an integer Bareiss elimination and a
depth-first path search, the two kinds of work lozlab does most) every
``PROBE_EVERY_S`` seconds, and rescales each task time by the reference
speed just before and just after it.  A reported second is a second at
the speed at which one probe takes ``REFERENCE_S``.  A change to lozlab
moves the task times and not the reference, so it shows in full; a
change of host speed moves both and cancels.  The raw seconds stay in
the run record.
"""

from __future__ import annotations

import gc
import time
from bisect import bisect_left
from statistics import median

REFERENCE_S = 0.001  # a round scale: about one probe on a 2.1 GHz Xeon vCPU
PROBE_EVERY_S = 0.05
WINDOW = 5  # probes on each side of a task that set its local speed


def _bareiss(n: int) -> int:
    m = [[(i * 7 + j * 13) % 11 - 5 + (3 if i == j else 0) for j in range(n)]
         for i in range(n)]
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return m[n - 1][n - 1]


def _paths(limit: int) -> int:
    """Self-avoiding paths from a corner of a 4x5 grid, first ``limit``."""
    adj = {v: [w for w in (v + 1, v - 1, v + 5, v - 5)
               if 0 <= w < 20 and not (abs(w - v) == 1 and w // 5 != v // 5)]
           for v in range(20)}
    count = 0
    stack = [(0, frozenset([0]))]
    while stack and count < limit:
        v, seen = stack.pop()
        count += 1
        for w in adj[v]:
            if w not in seen:
                stack.append((w, seen | {w}))
    return count


def probe() -> float:
    """Seconds of one fixed reference workload, garbage collection off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _bareiss(14)
        _bareiss(14)
        _paths(800)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def local_speed(before: list[float], after: list[float]) -> float:
    """Reference seconds around a task: the mean of the median probe
    just before it and the median probe just after it."""
    return (median(before) + median(after)) / 2


class Clock:
    """Probes the host between tasks and rescales task times by it."""

    def __init__(self):
        self.times: list[float] = []
        self.values: list[float] = []
        self.burst()

    def burst(self):
        """WINDOW probes in a row; one at the start and one at the end of
        a run, so that every task has probes on both sides."""
        for _ in range(WINDOW):
            self.times.append(time.perf_counter())
            self.values.append(probe())

    def tick(self):
        """Probe if ``PROBE_EVERY_S`` has passed since the last probe."""
        if time.perf_counter() - self.times[-1] >= PROBE_EVERY_S:
            self.times.append(time.perf_counter())
            self.values.append(probe())

    def scale(self, start: float, elapsed: float) -> float:
        """A task time at the reference speed (call burst() after the
        last task)."""
        first = bisect_left(self.times, start)
        last = bisect_left(self.times, start + elapsed)
        local = local_speed(self.values[max(0, first - WINDOW):first],
                            self.values[last:last + WINDOW])
        return elapsed * REFERENCE_S / local

    def scale_all(self, runs: list[list[tuple[float, float]]]) -> list[list[float]]:
        """scale() over (start, seconds) pairs, per task."""
        return [[self.scale(start, elapsed) for start, elapsed in r] for r in runs]
