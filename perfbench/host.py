"""Host speed: a fixed probe, sampled from a timer signal while operations are timed
and timed between the set-up processes.

On a shared virtual machine the same code runs up to twice as slow for
spells of seconds to tens of seconds, while CPU time still equals wall time
(neighbours contend for the physical cores; there is no steal time to see).
The probe is a fixed piece of Python of the same make as the program's hot
loops (a dict of tuples, a keyed sort, a union-find), written here and
independent of the program. Its time follows the host's spells, so dividing
an operation's time by the probe time around it removes most of them. The
probe runs with the garbage collector off, so the number of objects the
program holds does not change the probe's work.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
import time

PERIOD_S = 0.2
# A round figure near the probe's time inside a run on a 2-vCPU Xeon VM at
# 2.0 GHz: scaled rates and set-up times read as measured on a host where the
# probe takes this long.
REFERENCE_MS = 1.0

_rng = random.Random(12345)
_N = 200
_EDGES = sorted({tuple(sorted(_rng.sample(range(_N), 2))) for _ in range(800)})
_F = [float(x) for x in _rng.sample(range(_N), _N)]


def probe() -> int:
    """The fixed work, with the garbage collector off; see ``_probe``."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _probe()
    finally:
        if enabled:
            gc.enable()


def _probe() -> int:
    """Order edges by their larger endpoint value, then union-find them."""
    value = {e: max(_F[e[0]], _F[e[1]]) for e in _EDGES}
    order = sorted(_EDGES, key=lambda e: (value[e], e))
    parent = list(range(_N))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    merges = 0
    for u, v in order:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            merges += 1
    return merges


def probe_ms(repeats: int = 25) -> float:
    """Median probe time now, in ms."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        probe()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


class Sampler:
    """Runs the probe every ``PERIOD_S`` seconds from SIGALRM, inside the measured process.

    ``busy`` is the total time spent in the handler, which callers subtract
    from the operations the handler interrupted.
    """

    def __init__(self):
        self.at: list[float] = []
        self.ms: list[float] = []
        self.busy = 0.0

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        self.at.append(t1)
        self.ms.append((t1 - t0) * 1e3)
        self.busy += time.perf_counter() - t0

    def __enter__(self):
        self._handler(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._handler(None, None)

    def probe_ms_at(self, start: float, end: float) -> float:
        """Median probe time inside [start, end], or the sample nearest to it."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        if hi > lo:
            return statistics.median(self.ms[lo:hi])
        near = [i for i in (lo - 1, lo) if 0 <= i < len(self.at)]
        mid = (start + end) / 2
        return self.ms[min(near, key=lambda i: abs(self.at[i] - mid))]
