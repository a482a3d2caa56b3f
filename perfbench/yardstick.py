"""Correction of timings for the speed of a shared host.

On a host shared with other tenants the speed of a core drifts by 10-70%
within seconds, in step for all Python code. A yardstick, a fixed piece of
Python that does the same kind of work as a solve (a heap-based Dijkstra
over dict adjacency) but uses nothing of the program, is timed before and
after each measured operation. The operation's time is scaled by
REFERENCE_S over the mean of the two, which gives its time on a host where
the yardstick takes REFERENCE_S. The program cannot change the yardstick,
so a faster program still reads faster.
"""
from __future__ import annotations

import heapq
import random
from time import perf_counter

# Yardstick seconds on the reference host (2 vCPU, Python 3.11). Only the
# scale of the reported times depends on it, not their ratios.
REFERENCE_S = 0.009

_VERTICES = 2000
_DEGREE = 6
# The yardstick is the fastest of this many runs, which drops runs that an
# interrupt or a garbage collection happened to slow.
_RUNS = 3


class Yardstick:
    def __init__(self) -> None:
        rng = random.Random(0)
        self._adj = {
            u: [(rng.randrange(_VERTICES), rng.randint(1, 9)) for _ in range(_DEGREE)]
            for u in range(_VERTICES)
        }
        self._last = self.measure()

    def _run(self) -> float:
        adj = self._adj
        t0 = perf_counter()
        dist: dict[int, int] = {}
        heap = [(0, 0)]
        while heap:
            d, u = heapq.heappop(heap)
            if u in dist:
                continue
            dist[u] = d
            for v, w in adj[u]:
                if v not in dist:
                    heapq.heappush(heap, (d + w, v))
        return perf_counter() - t0

    def measure(self) -> float:
        """Seconds the yardstick takes now."""
        return min(self._run() for _ in range(_RUNS))

    def scale(self, seconds: float) -> float:
        """`seconds`, measured just now, at the reference host's speed."""
        before, self._last = self._last, self.measure()
        return seconds * REFERENCE_S / ((before + self._last) / 2)
