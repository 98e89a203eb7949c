"""Reference-speed scaling of wall time.

This host's speed drifts by up to 1.8x within seconds while CPU time tracks
wall time, so raw wall times measure the neighbours as much as the program.
The benchmark therefore runs a fixed reference computation between queries
and scales each wall time by REFERENCE_NS over the reference duration
measured around it.  The reference work is benchmark code, so a change to
spinel moves the scaled times exactly as it moves the wall times.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

#: take a reference sample once this long has passed since the last one
PROBE_INTERVAL_NS = 20_000_000
#: nominal duration of one reference sample; on a host where it takes exactly
#: this long, reference milliseconds equal wall milliseconds
REFERENCE_NS = 400_000

_REF_TABLE = [[(u * v + 7) % 251 for v in range(32)] for u in range(32)]


def reference_work() -> int:
    """Fixed pure-Python work shaped like spinel's hot loops: table lookups,
    base-p digit decode/encode, Fraction arithmetic and trial division."""
    acc = 0
    for row in _REF_TABLE:
        for v in row:
            acc = row[(acc + v) & 31]
    for u in range(60):
        digits = []
        for _ in range(4):
            digits.append(u % 7)
            u //= 7
        acc += sum(c * 7**i for i, c in enumerate(digits))
    f = Fraction(0)
    for k in range(1, 25):
        f += Fraction(acc % k + 1, k + 2)
    n, d = 1_000_003 * 999_983, 3
    while d * d <= 1_000_003 * 10 and n % d:
        d += 2
    return acc + f.numerator + d


class SpeedProbe:
    """Reference samples interleaved with the work, for scaling wall time."""

    def __init__(self):
        self.times: list[int] = []
        self.durations: list[int] = []

    def sample(self) -> None:
        runs = []
        for _ in range(3):
            start = time.perf_counter_ns()
            reference_work()
            runs.append(time.perf_counter_ns() - start)
        self.times.append(time.perf_counter_ns())
        self.durations.append(sorted(runs)[1])

    def maybe_sample(self, now: int) -> None:
        if not self.times or now - self.times[-1] >= PROBE_INTERVAL_NS:
            self.sample()

    def factor(self, start: int, end: int) -> float:
        """REFERENCE_NS over the median of the two samples before `start` and
        the two after `end`; single samples jitter by 2x from one to the next."""
        i = bisect.bisect_right(self.times, start)
        j = bisect.bisect_left(self.times, end)
        near = self.durations[max(i - 2, 0) : i] + self.durations[j : j + 2]
        return REFERENCE_NS / statistics.median(near)

    def median_factor(self) -> float:
        return REFERENCE_NS / statistics.median(self.durations)
