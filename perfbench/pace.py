"""The host's speed, probed between a pass's operations.

The benchmark shares a few cores of a host whose speed drifts by up to
2x over seconds to minutes, with the load of other tenants.  Taking the
fastest or the median pass does not remove a drift that lasts the whole
run.  So a pass times a fixed probe between its operations and each
operation's time is corrected by the probe's time around it::

    corrected = measured * NOMINAL_S / probe time

which is the time the operation would have taken at the host speed
where the probe takes ``NOMINAL_S``.  The probe does the kind of work
the library's hot loops do (numpy scalar reads and writes, tuple keys
in a set, a heap), without calling the library, so a change to the
library moves the corrected times and not the probe.
"""

from __future__ import annotations

import heapq
import statistics
from time import perf_counter

import numpy as np

# The probe's time on an idle core of the host the benchmark was tuned
# on (Intel Xeon, 2 vCPUs, CPython 3.11, numpy 2.4); corrected times are
# seconds at that speed.
NOMINAL_S = 0.0014
ITERATIONS = 2000
REPEATS = 3

_ROWS = 64
_SITES = [(r, x) for r in range(_ROWS) for x in range(2)]


def _kernel() -> float:
    h = np.zeros((_ROWS, 2), dtype=np.int64)
    queued: set = set()
    heap: list = []
    sites = _SITES
    t0 = perf_counter()
    for i in range(ITERATIONS):
        site = sites[i % len(sites)]
        r, x = site
        h[r, x] += 1
        if h[r, x] > 3 and site not in queued:
            queued.add(site)
            heapq.heappush(heap, site)
        if heap and i % 3 == 0:
            queued.discard(heapq.heappop(heap))
    return perf_counter() - t0


def probe() -> float:
    """The probe's time now: the median of a few short runs, so that one
    interrupt does not count."""
    return statistics.median(_kernel() for _ in range(REPEATS))
