"""Reference burning engine for the equivalence tests.

``_burn`` below is the engine the package used before it burnt site sets
as one least fixed point: it labels the components of the complement of
the sites, absorbs a component whole when burning touches it, and can
burn the candidate sites in a seeded random order instead of
``(rung, vertex)`` order.  It is kept verbatim so that the tests can
require the package's engine to give the same traces, and its
random-order runs the same verdicts.
"""

from __future__ import annotations

import random
from heapq import heappush, heappop
from typing import Mapping, Optional

from laddersand.burning import BurnTrace
from laddersand.errors import ValidationError
from laddersand.graphs import Graph, Site


def _burn(graph: Graph, heights: Mapping[Site, int], seed_side: str,
          order: str = "canonical", rng: Optional[random.Random] = None
          ) -> BurnTrace:
    """Run one burning pass.

    ``seed_side`` selects which complement components count as burnt
    territory from the start: ``"left"`` (the component reaching the
    left-infinite part of the ladder), ``"right"``, or ``"both"`` (every
    component; the ordinary burning rule).  Components that the burning
    wave touches are absorbed as it goes.
    """
    if not heights:
        return BurnTrace(success=True, order=(), unburnt=())
    n = graph.n
    lo = min(k for _, k in heights)
    hi = max(k for _, k in heights)
    width = hi - lo + 3  # region covers rungs lo-1 .. hi+1
    total = width * n

    def sid(x: int, k: int) -> int:
        return (k - lo + 1) * n + x

    def site_of(i: int) -> Site:
        return (i % n, i // n + lo - 1)

    in_v = bytearray(total)
    height = [0] * total
    for (x, k), h in heights.items():
        if not (0 <= x < n):
            raise ValidationError(f"vertex {x} outside base graph")
        if not (1 <= h <= graph.max_height[x]):
            raise ValidationError(
                f"height {h} at site ({x},{k}) outside stable range "
                f"1..{graph.max_height[x]}")
        i = sid(x, k)
        in_v[i] = 1
        height[i] = h

    nbr: list[list[int]] = [[] for _ in range(total)]
    for r in range(width):
        base = r * n
        for x in range(n):
            i = base + x
            for y in graph.neighbors[x]:
                nbr[i].append(base + y)
            if r > 0:
                nbr[i].append(i - n)
            if r < width - 1:
                nbr[i].append(i + n)

    # Component labels on the static complement.  All sites of the rung
    # below lo are one component (they join through rungs further left);
    # same for the rung above hi.  Other complement sites are grouped by
    # ordinary adjacency inside the region.
    comp = [-1] * total
    members: list[list[int]] = []

    def new_comp(seeds: list[int]) -> int:
        cid = len(members)
        members.append([])
        for s in seeds:
            comp[s] = cid
        while seeds:
            i = seeds.pop()
            members[cid].append(i)
            for j in nbr[i]:
                if not in_v[j] and comp[j] == -1:
                    comp[j] = cid
                    seeds.append(j)
        return cid

    left_comp = new_comp([sid(x, lo - 1) for x in range(n)])
    # the base graph is connected, so one site tells whether the two met
    right_comp = (left_comp if comp[sid(0, hi + 1)] == left_comp
                  else new_comp([sid(x, hi + 1) for x in range(n)]))
    for i in range(total):
        if not in_v[i] and comp[i] == -1:
            new_comp([i])

    active = [seed_side == "both"] * len(members)
    if seed_side == "left":
        active[left_comp] = True
    elif seed_side == "right":
        active[right_comp] = True
    elif seed_side != "both":
        raise ValueError(f"bad seed_side {seed_side!r}")

    burnt = bytearray(total)
    cnt = [0] * total
    need = [0] * total
    vsites = [i for i in range(total) if in_v[i]]
    for i in vsites:
        need[i] = graph.degree[i % n] + 2 - height[i] + 1
        for j in nbr[i]:
            if not in_v[j] and active[comp[j]]:
                cnt[i] += 1

    canonical = order == "canonical"
    if order == "random" and rng is None:
        rng = random.Random(0)
    heap: list[tuple[int, int, int]] = []
    pool: list[int] = []

    def enqueue(i: int) -> None:
        if canonical:
            heappush(heap, (i // n, i % n, i))
        else:
            pool.append(i)

    for i in vsites:
        if cnt[i] >= need[i]:
            enqueue(i)

    trace: list[Site] = []

    def activate(cid: int) -> None:
        active[cid] = True
        for s in members[cid]:
            for j in nbr[s]:
                if in_v[j] and not burnt[j]:
                    cnt[j] += 1
                    if cnt[j] == need[j]:
                        enqueue(j)

    while True:
        if canonical:
            if not heap:
                break
            _, _, i = heappop(heap)
        else:
            if not pool:
                break
            i = pool.pop(rng.randrange(len(pool)))
        if burnt[i]:
            continue
        burnt[i] = 1
        trace.append(site_of(i))
        for j in nbr[i]:
            if in_v[j]:
                if not burnt[j]:
                    cnt[j] += 1
                    if cnt[j] == need[j]:
                        enqueue(j)
            elif not active[comp[j]]:
                activate(comp[j])

    unburnt = tuple(sorted((site_of(i) for i in vsites if not burnt[i]),
                           key=lambda s: (s[1], s[0])))
    return BurnTrace(success=not unburnt, order=tuple(trace), unburnt=unburnt)
