"""Interpreter speed tracking, so that times compare across a shared machine.

A fixed amount of pure-Python work can take 1.8 times as long for stretches
of 20 ms to tens of seconds when another tenant shares the core. The
benchmark therefore times a fixed reference loop (its own code, never the
program's) before every job and in bursts between long ones, and scales
every job time to the reference speed: ``t * REFERENCE_S / mean(loop
times around the job)``. A job shorter than SHORT_S runs within one
stretch, so it takes the samples just before and just after it; a longer
job averages over the stretches it spans, so it takes every sample within
MARGIN_S of it. A change to the program moves scaled times as it moves raw
times; a change in machine speed moves the loop as well and cancels out.
"""

from __future__ import annotations

import bisect
import time

REFERENCE_S = 0.0003  # one loop at reference speed, a fixed constant
BURST = 6  # loops in a burst
INTERVAL_S = 0.05  # job time between two bursts
MARGIN_S = 0.05  # samples this close to a long job count for it
SHORT_S = 0.01  # jobs shorter than this take their two neighbouring samples


def reference_loop() -> int:
    """LCS-style integer dynamic program plus dict and tuple work."""
    a = [(i * 7919) % 5 for i in range(40)]
    b = [(i * 104729) % 5 for i in range(40)]
    prev = [0] * 41
    for x in a:
        cur = [0] * 41
        for j, y in enumerate(b):
            cur[j + 1] = prev[j] + 1 if x == y else max(prev[j + 1], cur[j])
        prev = cur
    seen = {(x, prev[x]): x for x in range(41)}
    return prev[-1] + len(seen)


class Speed:
    """Loop samples of one process: when each was taken and how long it took."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self._since = 0.0

    def sample(self, count: int = 1) -> None:
        """Time `count` reference loops, one after another."""
        for _ in range(count):
            t0 = time.perf_counter()
            reference_loop()
            t1 = time.perf_counter()
            self.at.append((t0 + t1) / 2)
            self.took.append(t1 - t0)

    def after_job(self, seconds: float) -> None:
        """Account a job's raw time and take a burst when one is due."""
        self._since += seconds
        if self._since >= INTERVAL_S:
            self.sample(BURST)
            self._since = 0.0

    def scale(self, start: float, end: float) -> float:
        """end - start scaled by the loop samples taken around that interval."""
        at = self.at
        if end - start < SHORT_S:
            i = bisect.bisect_left(at, start)
            lo, hi = i - 1, i + 1
        else:
            lo = min(bisect.bisect_left(at, start - MARGIN_S), bisect.bisect_left(at, start) - 1)
            hi = max(bisect.bisect_right(at, end + MARGIN_S), bisect.bisect_right(at, end) + 1)
        near = self.took[max(lo, 0):hi]
        return (end - start) * REFERENCE_S * len(near) / sum(near)
