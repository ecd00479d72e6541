"""Host-speed gauge: a fixed piece of work sampled through a run.

The benchmark runs on a few cores of a shared host whose speed changes in
spells of seconds to minutes: in a slow spell every op, and this gauge,
takes up to half as long again, CPU time included.  A run samples the gauge
between ops, and each op time is scaled by ``REFERENCE_S`` over the best
gauge time sampled within a second of the op, so that it reads as on a host
where the gauge takes ``REFERENCE_S``.  The gauge does the kinds
of work the workloads do (hash tables, sorting, exact fractions, a small
dense solve) and nothing of ``graphmetry``, so a change to the program moves
the scaled times as much as the raw ones.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

import numpy

# The gauge's 10th-percentile time on a quiet 2-vCPU cloud VM (Xeon, 2.0 GHz).
REFERENCE_S = 0.003

_KEYS = random.Random(0).sample(range(10**7), 8000)
_MATRIX = numpy.random.default_rng(0).random((100, 100)) + 100 * numpy.eye(100)


def measure() -> float:
    t0 = time.perf_counter()
    table = {k: i for i, k in enumerate(_KEYS)}
    sum(table[k] for k in sorted(_KEYS)[::2])
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
    numpy.linalg.solve(_MATRIX, _MATRIX)
    return time.perf_counter() - t0


class Gauge:
    """Samples the gauge (best of two) at most once every ``every`` seconds."""

    def __init__(self, every: float = 0.2) -> None:
        self.every = every
        self.samples: list[float] = []
        self.times: list[float] = []
        self._next = 0.0
        for _ in range(3):  # first calls pay for LAPACK and allocator warm-up
            measure()

    def sample(self) -> None:
        now = time.perf_counter()
        if now >= self._next:
            self.samples.append(min(measure(), measure()))
            self.times.append(now)
            self._next = now + self.every

    def local(self, at: float, window: float = 1.0) -> float:
        """Best gauge time sampled within ``window`` seconds of ``at``."""
        near = [g for t, g in zip(self.times, self.samples) if abs(t - at) <= window]
        return min(near) if near else self.p10()

    def p10(self) -> float:
        return statistics.quantiles(self.samples, n=10, method="inclusive")[0]

    def reference_seconds(self, seconds: float, at: float) -> float:
        """``seconds`` measured at time ``at``, scaled to the reference host."""
        return seconds * REFERENCE_S / self.local(at)
