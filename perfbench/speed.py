"""Machine speed, read from a fixed piece of the benchmark's own work.

The shared host this benchmark was tuned on runs the same code up to ~1.8x
slower for seconds to minutes at a time, with no steal time: CPU time
stretches with wall time. A run's fastest passes can fall wholly inside
such a spell, so no statistic over one run removes it. Every end-to-end
time is therefore scaled to a nominal machine speed:

    scaled = measured * NOMINAL_S / (reference time around the measurement)

The reference is pure Python Weyl-group arithmetic that shares no code
with weyldiag: all subword products of the B3 longest word (c^3 for the
Coxeter element c = s1 s2 s3), 48 elements, checked. NOMINAL_S is its time
on that host when quiet, so a scaled figure reads as seconds on a quiet
host. A change to weyldiag cannot move the reference; a change that made
every Python program faster or slower would be scaled away.
"""

from __future__ import annotations

import bisect
import statistics
import time

NOMINAL_S = 1.6e-3
INTERVAL_S = 0.1  # the longest gap between two bursts of samples
BURST = 3  # samples taken back to back
MARGIN_S = 0.1  # samples this close to an op's interval are averaged for it

_CARTAN = ((2, -1, 0), (-1, 2, -1), (0, -2, 2))  # B3
_WORD = (0, 1, 2) * 3
_REPEATS = 3


def _times_simple(m, i):
    # The step of workloads.py, copied: run.py imports this module without
    # weyldiag on its path, and workloads.py needs weyldiag.
    pivot = m[i]
    return tuple(
        tuple(v - c * p for v, p in zip(row, pivot)) if (c := _CARTAN[i][j]) else row
        for j, row in enumerate(m)
    )


def reference_work() -> None:
    for _ in range(_REPEATS):
        reachable = {((1, 0, 0), (0, 1, 0), (0, 0, 1))}
        for i in _WORD:
            reachable |= {_times_simple(m, i) for m in reachable}
        if len(reachable) != 48:
            raise AssertionError(f"B3 has 48 elements, the reference found {len(reachable)}")


def reference_time() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


class Speed:
    """Reference times through a run, to scale the latencies timed in it."""

    def __init__(self):
        self.at: list[float] = []  # perf_counter at the middle of each sample
        self.took: list[float] = []

    def sample(self) -> None:
        for _ in range(BURST):
            t0 = time.perf_counter()
            reference_work()
            t1 = time.perf_counter()
            self.at.append((t0 + t1) / 2)
            self.took.append(t1 - t0)

    def due(self) -> bool:
        return not self.at or time.perf_counter() - self.at[-1] >= INTERVAL_S

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_S over the median reference time near [start, end]."""
        lo = bisect.bisect_left(self.at, start - MARGIN_S)
        hi = bisect.bisect_right(self.at, end + MARGIN_S)
        if lo == hi:  # no sample that close: take the nearest on either side
            lo, hi = max(0, lo - 1), min(len(self.at), hi + 1)
        return NOMINAL_S / statistics.median(self.took[lo:hi])
