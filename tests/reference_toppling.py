"""Reference toppling engine for the equivalence tests.

``stabilize`` below is the engine the package used before it moved all
three schedules onto one flat-list engine: numpy masks for the parallel
schedule, flat lists with a ``queued`` flag per cell for the canonical
and random ones.  It is kept verbatim so that the tests can require the
package's engine to give the same final heights, odometers, sink counts
and step-cap partial states, and the random schedule to draw the same
cells from the same seed.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from typing import Iterable

import numpy as np

from laddersand.errors import StepCapExceeded, ValidationError
from laddersand.graphs import Graph, Site
from laddersand.toppling import (CANONICAL, DEFAULT_STEP_CAP, LadderConfig,
                                 Odometer, Schedule, _validate_config)


def stabilize(graph: Graph, config: LadderConfig,
              additions: Iterable[Site] = (),
              schedule: Schedule = CANONICAL,
              step_cap: int = DEFAULT_STEP_CAP
              ) -> tuple[LadderConfig, Odometer]:
    """Drop the added grains and fire unstable sites per the schedule
    until the configuration is stable.

    Raises :class:`StepCapExceeded` (carrying the partial odometer and
    heights) when the avalanche runs past ``step_cap`` site-topplings.
    """
    _validate_config(graph, config)
    if step_cap <= 0:
        raise ValidationError("step_cap must be positive")
    window = config.window
    rows = len(window)
    n = graph.n
    h = config.heights.copy()
    for x, k in additions:
        if not (0 <= x < n) or not window.contains((x, k)):
            raise ValidationError(f"addition site ({x},{k}) outside window")
        h[k - window.n, x] += 1

    steps = 0
    if schedule.kind == "parallel":
        mvec = np.array(graph.max_height, dtype=np.int64)
        odo = np.zeros_like(h)
        adj = np.zeros((n, n), dtype=np.int64)
        for u, v in graph.edges:
            adj[u, v] = adj[v, u] = 1
        while True:
            mask = (h > mvec[None, :]).astype(np.int64)
            fired = int(mask.sum())
            if fired == 0:
                break
            steps += fired
            if steps > step_cap:
                break
            odo += mask
            h -= mask * mvec[None, :]
            h += mask @ adj
            h[1:] += mask[:-1]
            h[:-1] += mask[1:]
    else:
        # Site (x, window.n + r) is cell r * n + x, so heap order on cells
        # is (rung, vertex) order.  A cell's neighbours are its graph
        # neighbours, then the rung below, then the rung above.
        cells = rows * n
        cap = list(graph.max_height) * rows
        nbrs = [[c - x + y for y in graph.neighbors[x]]
                + [c + d for d in (-n, n) if 0 <= c + d < cells]
                for c, x in enumerate(list(range(n)) * rows)]
        hl = h.ravel().tolist()
        ol = [0] * cells
        queued = [hc > m for hc, m in zip(hl, cap)]
        todo = [c for c in range(cells) if queued[c]]
        draw = (random.Random(schedule.seed).randrange
                if schedule.kind == "random" else None)
        push = heappush if draw is None else list.append
        # a queued cell stays unstable until it topples: heights only grow
        while todo:
            if draw is None:
                c = heappop(todo)
            else:  # the drawn cell swaps with the last, so pop() shifts nothing
                k = draw(len(todo))
                c, todo[k] = todo[k], todo[-1]
                todo.pop()
            queued[c] = False
            steps += 1
            if steps > step_cap:
                break
            ol[c] += 1
            hl[c] -= cap[c]
            for d in nbrs[c]:
                hl[d] += 1
                if hl[d] > cap[d] and not queued[d]:
                    queued[d] = True
                    push(todo, d)
            if hl[c] > cap[c]:
                queued[c] = True
                push(todo, c)
        h = np.array(hl, dtype=np.int64).reshape(rows, n)
        odo = np.array(ol, dtype=np.int64).reshape(rows, n)

    # the end rungs drain to the sink; a single-rung window drains twice
    odometer = Odometer(window, odo, int(odo[0].sum() + odo[-1].sum()))
    if steps > step_cap:
        raise StepCapExceeded(
            f"avalanche exceeded step cap of {step_cap} site-topplings",
            odometer=odometer, heights=LadderConfig(window, h))
    return LadderConfig(window, h), odometer
