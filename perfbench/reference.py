"""The machine's speed, sampled by a fixed piece of work while the program runs.

This benchmark runs on shared hosts whose speed drifts by a third or more
over minutes and changes within seconds, for all code in the process alike
(other guests contend for the same cores and caches).  A run cannot outlast
that drift, so a time measured alone says as much about the host as about
the program.

``kernel`` is a fixed millisecond of pure-Python work of the program's own
kind (tuples, dictionaries, sorting, JSON output) that does not touch the
package, so no change to the program changes its cost.  While a batch runs,
``Speed.sampling`` times the kernel every ``SAMPLE_EVERY_S`` from a
``SIGALRM`` handler, in the middle of the program's queries; ``run.py``
takes the time the handler spent out of each query's latency and scales the
rest by ``REFERENCE_S`` over the mean kernel time around the query: the
time the query would take on a host where the kernel takes ``REFERENCE_S``.
The raw times and the kernel times are kept in the run's report line.
"""

from __future__ import annotations

import bisect
import itertools
import json
import signal
import statistics
import time
from contextlib import contextmanager

# the kernel's time at reference speed (about its median on a 2-core shared
# x86-64 host when that host is not busy)
REFERENCE_S = 0.0017
SAMPLE_EVERY_S = 0.05
# a time is scaled by the kernel samples taken during it and this long
# before and after it, and by at least MIN_SAMPLES of the nearest ones
WINDOW_S = 0.25
MIN_SAMPLES = 8


def _compositions(n: int, k: int):
    for cuts in itertools.combinations(range(1, n), k - 1):
        yield tuple(b - a for a, b in zip((0,) + cuts, cuts + (n,)))


def kernel() -> int:
    terms = {c: (-1) ** c[0] for c in _compositions(14, 4)}
    ordered = sorted(terms.items(), key=lambda kv: kv[0][::-1])
    return len(json.dumps([{"index": list(k), "coefficient": v} for k, v in ordered]))


class Speed:
    """Kernel timings, each kept with the time it was taken."""

    def __init__(self):
        self.at = []  # perf_counter when each sample started, ascending
        self.took = []  # the kernel's time in each sample
        self.spent = 0.0  # total time spent sampling, handler included

    def sample(self, times: int = 1):
        for _ in range(times):
            start = time.perf_counter()
            kernel()
            done = time.perf_counter()
            self.at.append(start)
            self.took.append(done - start)
            self.spent += time.perf_counter() - start

    def _on_alarm(self, signum, frame):
        self.sample()

    @contextmanager
    def sampling(self):
        """Sample every SAMPLE_EVERY_S of wall time inside the block."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start: float, end: float) -> float:
        """Factor that brings a time measured from ``start`` to ``end`` to
        reference speed."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            middle = bisect.bisect_left(self.at, (start + end) / 2)
            lo = max(0, min(middle - MIN_SAMPLES // 2, len(self.at) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        return REFERENCE_S / statistics.fmean(self.took[lo:hi])
