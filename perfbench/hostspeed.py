"""The host's current speed, from a fixed reference kernel timed between queries.

On a shared host the CPU speed drifts between levels about 1.6x apart, for
seconds to minutes at a time, with no steal time to show it: the same
twitter query takes 175-320 ms within one minute on a 4-core Xeon VM.  A
run's plain throughput then moves with the share of it that falls in a
slow spell: by 0.18-0.33 IQR/median over ten seeds.

The kernel below does the kind of work a query does -- a k-core peel over
Python sets and dicts, and small numpy and frozenset distances per node --
on a fixed graph of its own, so it costs the same in every run and no
change to the program moves it.  Timed between queries, it slows down with
them: over 2 s windows of a 150 s probe its mean time followed a fixed
twitter query's with correlation 0.96 and a fixed Exact query's with 0.97,
and the windows' coefficient of variation fell from 0.14 to 0.04 once
divided by it.  The match is not exact: under a 1.8x slowdown, Exact runs
were up to 10% slower after scaling than their query mix predicts.
"""
from __future__ import annotations

import random
import statistics
import time
from typing import List

import numpy as np

# The kernel's time on a quiet core of the 4-core Xeon VM the bounds were
# set on.  Scaled figures read as measured on such a core.
NOMINAL_MS = 6.0
EVERY_S = 0.25  # least time between two samples, so they spread evenly in time

_NODES = 3000
_K = 4


class HostSpeed:
    def __init__(self) -> None:
        rng = random.Random(20240601)  # the kernel's own fixed input
        self.adj = {v: set() for v in range(_NODES)}
        for _ in range(4 * _NODES):
            a, b = rng.randrange(_NODES), rng.randrange(_NODES)
            if a != b:
                self.adj[a].add(b)
                self.adj[b].add(a)
        self.vecs = np.array([[rng.random() for _ in range(8)] for _ in range(_NODES)])
        self.toks = [frozenset(rng.sample(range(50), 6)) for _ in range(_NODES)]
        self.samples_ms: List[float] = []
        self._kernel()  # warm caches; not a sample
        self._last = time.perf_counter()

    def _kernel(self) -> float:
        deg = {v: len(n) for v, n in self.adj.items()}
        alive = set(self.adj)
        stack = [v for v in alive if deg[v] < _K]
        while stack:
            v = stack.pop()
            if v not in alive:
                continue
            alive.discard(v)
            for u in self.adj[v]:
                if u in alive:
                    deg[u] -= 1
                    if deg[u] < _K:
                        stack.append(u)
        z, t, s = self.vecs[0], self.toks[0], 0.0
        for i in range(0, _NODES, 3):
            s += float(np.abs(self.vecs[i] - z).mean()) + len(self.toks[i] & t) / len(self.toks[i] | t)
        return s

    def sample(self) -> None:
        t = time.perf_counter()
        self._kernel()
        now = time.perf_counter()
        self.samples_ms.append((now - t) * 1e3)
        self._last = now

    def maybe_sample(self) -> None:
        """Sample if ``EVERY_S`` has passed since the last sample."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def slowdown(self) -> float:
        """The run's mean kernel time over its nominal time.

        The samples are spread evenly in time, so their mean weighs each
        speed level by the share of the run it lasted, as a sum of query
        times does."""
        return statistics.fmean(self.samples_ms) / NOMINAL_MS
