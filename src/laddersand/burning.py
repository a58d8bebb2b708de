"""Burning procedures on ladder windows.

The one-sided burning rule generalizes the usual recurrence test: a site
may burn only when enough of its neighbourhood already belongs to the
*left-infinite* connected component of the complement of the unburnt
set.  Burning from the right is the mirror image, and counting every
complement component recovers the ordinary burning test for recurrence.

Each rule is a least fixed point: a site burns once ``max - height + 1``
of its neighbours have burnt, a cell outside the site set once one has
(so a complement component burns whole), starting from the cells left
of the sites, right of them, or every cell outside them.  Burning a cell
never stops another from burning, so the verdict does not depend on the
order; traces burn the lowest ``(rung, vertex)`` site that can burn
first.

Two engines decide burnability:

* ``_burn`` burns an arbitrary site set and records the trace.  It
  serves the public :func:`left_burnable`, :func:`right_burnable` and
  :func:`full_burnable` (the API and the test oracle), the census's
  single-rung recurrent rungs and the input check of the rung-zero
  blast, which also takes graphs beyond the table's 8 vertices.  It
  shares its cell layout and neighbour lists with toppling
  (:func:`laddersand.graphs.ladder_neighbors`);
* ``_burn_columns`` burns rungs between vertex sets declared burnt on
  their two sides, many at once.  Every window verdict the library
  computes for itself reads its :func:`burn_table` of every pair of
  sets, through the census engine, which builds the coding automaton
  too.  The rung alphabet (:func:`is_rung_symbol`,
  ``census.enum_rungs``) reads two pairs.

The rung-at-a-time schedule :func:`leftmost_schedule` and the one-rung
primitives :func:`rung_burn`, :func:`first_rung_state` and
:func:`advance_rung_state` (the pair of burnt set and influence map that
makes the per-rung burning data a Markov chain) define the coding
construction; it does not call them, and they are the reference that
the construction is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappush, heappop
from operator import index
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import FeasibilityError, InternalInvariantError, ValidationError
from .graphs import Graph, Site, ladder_neighbors

RungConfig = tuple[int, ...]
InfluenceMap = tuple[int, ...]  # table indexed by vertex-subset mask


@dataclass(frozen=True)
class BurnTrace:
    """Outcome of a burning run over a finite set of ladder sites."""

    success: bool
    order: tuple[Site, ...]
    unburnt: tuple[Site, ...]

    def burnt_by_rung(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {}
        for x, k in self.order:
            out.setdefault(k, []).append(x)
        return {k: tuple(sorted(v)) for k, v in out.items()}

    def to_json(self) -> dict:
        return {
            "success": self.success,
            "order": [list(s) for s in self.order],
            "unburnt": [list(s) for s in self.unburnt],
        }


def _burn(graph: Graph, heights: Mapping[Site, int], seed_side: str) -> BurnTrace:
    """Burn a site set from the seeds of ``seed_side`` (``"left"``,
    ``"right"`` or ``"both"``) on the cells ``r * n + x`` of its rungs and
    one more on each side.  Cells outside the sites burn as soon as they
    can, before the least site that can burn, and the trace lists the
    sites in the order they burnt."""
    if not heights:
        return BurnTrace(success=True, order=(), unburnt=())
    n = graph.n
    sites: dict[Site, int] = {}
    for (x, k), h in heights.items():
        try:
            sites[index(x), index(k)] = index(h)
        except TypeError:
            raise ValidationError(f"site ({x!r},{k!r}) or its height {h!r} "
                                  "is not an integer") from None
    lo = min(k for _, k in sites) - 1
    nbrs = ladder_neighbors(graph, max(k for _, k in sites) - lo + 2)
    cells = range(len(nbrs))
    need = [1] * len(nbrs)  # burnt neighbours still missing
    is_site = bytearray(len(nbrs))
    for (x, k), h in sites.items():
        if not 0 <= x < n:
            raise ValidationError(f"vertex {x} outside base graph")
        if not 1 <= h <= graph.max_height[x]:
            raise ValidationError(
                f"height {h} at site ({x},{k}) outside stable range "
                f"1..{graph.max_height[x]}")
        c = (k - lo) * n + x
        need[c] = graph.max_height[x] - h + 1
        is_site[c] = 1

    if seed_side == "both":
        stack = [c for c in cells if not is_site[c]]
    else:
        stack = list({"left": cells[:n], "right": cells[-n:]}[seed_side])
    for c in stack:
        need[c] = 0
    ready: list[int] = []  # sites that can burn, a heap
    order: list[int] = []
    while stack:  # burnt cells yet to count for their neighbours
        for d in nbrs[stack.pop()]:
            need[d] -= 1
            if need[d] == 0:
                if is_site[d]:
                    heappush(ready, d)
                else:
                    stack.append(d)
        if not stack and ready:
            order.append(heappop(ready))
            stack.append(order[-1])

    def site(c: int) -> Site:
        return c % n, c // n + lo

    unburnt = tuple(site(c) for c in cells if is_site[c] and need[c] > 0)
    return BurnTrace(success=not unburnt, order=tuple(map(site, order)),
                     unburnt=unburnt)


def left_burnable(graph: Graph, heights: Mapping[Site, int]) -> BurnTrace:
    """Burning restricted to the left boundary; success certifies the
    configuration lies in the left-burnable class of its site set."""
    return _burn(graph, heights, "left")


def right_burnable(graph: Graph, heights: Mapping[Site, int]) -> BurnTrace:
    return _burn(graph, heights, "right")


def full_burnable(graph: Graph, heights: Mapping[Site, int]) -> BurnTrace:
    """Ordinary burning: success is exactly recurrence of the configuration."""
    return _burn(graph, heights, "both")


def window_heights(rungs: Sequence[RungConfig], start: int = 1) -> dict[Site, int]:
    """Lay out a rung sequence as a height mapping on rungs start, start+1, ..."""
    out: dict[Site, int] = {}
    for off, rung in enumerate(rungs):
        for x, h in enumerate(rung):
            out[(x, start + off)] = h
    return out


def reflect_heights(heights: Mapping[Site, int]) -> dict[Site, int]:
    """Mirror a configuration through rung 0 (k -> -k)."""
    return {(x, -k): h for (x, k), h in heights.items()}


@lru_cache(maxsize=None)
def is_rung_symbol(graph: Graph, rung: RungConfig) -> bool:
    """Whether a height vector is admissible as a rung of a left-burnable
    configuration (equivalently: left-burnable on a one-rung window).
    Heights are compared by value, as the cache and ``enum_rungs``
    membership compare them: ``2.0`` is the height 2, ``2.5`` no height."""
    if len(rung) != graph.n or any(h not in range(1, m + 1)
                                   for h, m in zip(rung, graph.max_height)):
        return False
    return _rung_symbols(graph, [rung])[0]


def max_rung(graph: Graph) -> RungConfig:
    """The all-maximal rung; the renewal symbol."""
    return graph.max_height


# ---------------------------------------------------------------------------
# Rung-at-a-time schedule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LeftmostResult:
    """Outcome of the leftmost-rung burning schedule.

    ``burnt_sets[k-1]`` is the burnt vertex mask of rung ``k`` at the
    moment burning first enters rung ``k+1`` (the phase boundary), and
    ``times[k-1]`` the number of sites burnt by then.  ``times[-1]`` is
    the total burn count on success.  Entries stay ``None`` when the
    schedule deadlocks before reaching the phase.
    """

    success: bool
    burnt_sets: tuple[Optional[int], ...]
    times: tuple[Optional[int], ...]


def leftmost_schedule(graph: Graph, rungs: Sequence[RungConfig]) -> LeftmostResult:
    """Burn one rung at a time, always returning to the leftmost rung
    with a burnable site; an auxiliary all-maximal rung is appended on
    the right and burnt only once everything else deadlocks.

    The verdict agrees with :func:`left_burnable` on the same window.
    """
    m = len(rungs)
    if m == 0:
        raise ValidationError("need at least one rung")
    for rung in rungs:
        if not is_rung_symbol(graph, tuple(rung)):
            raise ValidationError(f"rung {tuple(rung)} is not a valid rung symbol")
    n = graph.n
    maxh = graph.max_height
    heights = [tuple(r) for r in rungs] + [maxh]  # index k-1; last is the ghost
    full = graph.full_mask

    burnt = [0] * (m + 1)
    cnt = [[0] * n for _ in range(m + 1)]
    need = [[maxh[x] - heights[k][x] + 1 for x in range(n)] for k in range(m + 1)]
    for x in range(n):
        cnt[0][x] = 1  # rung 1 borders the left-infinite region

    T: list[Optional[int]] = [None] * (m + 1)
    B: list[Optional[int]] = [None] * m
    entered = [False] * (m + 1)
    time = 0
    ghost_done = False

    def bump(k: int, x: int, queue: list[int], k_active: int) -> None:
        cnt[k][x] += 1
        if k == k_active and not (burnt[k] >> x) & 1 and cnt[k][x] >= need[k][x]:
            queue.append(x)

    def burn_site(k: int, x: int, queue: list[int]) -> None:
        nonlocal time
        burnt[k] |= 1 << x
        time += 1
        for y in graph.neighbors[x]:
            bump(k, y, queue, k)
        if k > 0:
            bump(k - 1, x, queue, k)
        if k < m:
            bump(k + 1, x, queue, k)

    def burnable_in(k: int) -> list[int]:
        bm = burnt[k]
        return [x for x in range(n)
                if not (bm >> x) & 1 and cnt[k][x] >= need[k][x]]

    def mark_entry(k: int) -> None:
        # first burn in rung k+1 closes phase k
        if not entered[k]:
            entered[k] = True
            if k > 0:
                T[k - 1] = time
                B[k - 1] = burnt[k - 1]

    while True:
        k = next((k for k in range(m) if burnable_in(k)), None)
        if k is not None:
            mark_entry(k)
            queue = burnable_in(k)
            queue.sort(reverse=True)
            while queue:
                x = queue.pop()
                if not (burnt[k] >> x) & 1 and cnt[k][x] >= need[k][x]:
                    burn_site(k, x, queue)
            continue
        if ghost_done:
            break
        if burnt[m - 1] == 0:
            break  # the auxiliary rung cannot ignite; deadlock
        mark_entry(m)
        # flood the all-maximal rung from the vertices burnt below it
        seeds = [x for x in range(n) if (burnt[m - 1] >> x) & 1]
        reach = set(seeds)
        stack = list(seeds)
        while stack:
            x = stack.pop()
            for y in graph.neighbors[x]:
                if y not in reach:
                    reach.add(y)
                    stack.append(y)
        if len(reach) != n:
            raise InternalInvariantError("auxiliary rung flood incomplete")
        for x in sorted(reach):
            burnt[m] |= 1 << x
            time += 1
            cnt[m - 1][x] += 1
        ghost_done = True

    success = all(burnt[k] == full for k in range(m + 1))
    if success or ghost_done:
        T[m] = time
    return LeftmostResult(success=success, burnt_sets=tuple(B), times=tuple(T))


# ---------------------------------------------------------------------------
# One-rung burn table
# ---------------------------------------------------------------------------

# The one-rung burn table holds |rungs| * 4**|G| entries; above this many
# the walks and the automaton that read it are out of reach anyway, and
# the table is refused rather than built.  Every rung whose heights are
# all maximal or one below, with one maximal, is in the alphabet, so
# |alphabet| >= 2**|G| - 1 and the limit leaves |G| <= 8 for any rung set
# holding the alphabet: vertex sets fit in one byte.
_MAX_TABLE_ENTRIES = 1 << 26
MAX_TABLE_VERTICES = 8
# Entries per chunk of a vectorised sweep, which bounds its temporary
# arrays.
_CHUNK_ENTRIES = 1 << 16


def _require_table_vertices(graph: Graph) -> None:
    if graph.n > MAX_TABLE_VERTICES:
        raise FeasibilityError(f"the one-rung burn table takes graphs of at most "
                               f"{MAX_TABLE_VERTICES} vertices, not {graph.n}")


def _burn_columns(graph: Graph, columns: Optional[Sequence[int]],
                  rungs: Optional[Sequence[RungConfig]]) -> np.ndarray:
    """``out[c, j]`` is the burnt vertex set of ``rungs[c]`` (uint8) when
    the sets of ``columns[j] = below << n | above`` are burnt beside it;
    None stands for every pair of sets, or every stable rung in order.
    The burn is the least fixed point of burning each vertex whose burnt
    neighbours reach its need ``max - height + 1``, which sweeping until
    nothing changes reaches.  Refused above 8 vertices or 2**26 entries."""
    _require_table_vertices(graph)
    n = graph.n
    count = math.prod(graph.max_height) if rungs is None else len(rungs)
    entries = count * (1 << 2 * n if columns is None else len(columns))
    if entries > _MAX_TABLE_ENTRIES:
        raise FeasibilityError(
            f"one-rung burn table needs {entries} entries for {count} "
            f"rungs on {n} vertices; the limit is {_MAX_TABLE_ENTRIES} entries "
            f"on at most {MAX_TABLE_VERTICES} vertices")
    cols = np.arange(1 << 2 * n) if columns is None else np.asarray(columns)
    heights = (np.indices(graph.max_height, dtype=np.uint8).reshape(n, -1).T + 1
               if rungs is None else np.array(rungs, dtype=np.uint8).reshape(count, n))
    need = np.array(graph.max_height, dtype=np.uint8) + 1 - heights
    # burnt copies of vertex x on the two sides of the rung
    sides = [(((cols >> (n + x)) & 1) + ((cols >> x) & 1)).astype(np.uint8)
             for x in range(n)]
    table = np.zeros((count, len(cols)), dtype=np.uint8)
    step = max(1, _CHUNK_ENTRIES // len(cols))
    for lo in range(0, count, step):
        burnt = table[lo:lo + step]
        while True:
            before = burnt.copy()
            for x in range(n):
                hits = sides[x]
                for y in graph.neighbors[x]:
                    hits = hits + ((burnt >> y) & 1)
                burnt |= (hits >= need[lo:lo + step, x, None]).astype(np.uint8) << x
            if np.array_equal(before, burnt):
                break
    return table


def burn_table(graph: Graph, rungs: Sequence[RungConfig]) -> np.ndarray:
    """``table[c, below << n | above]``: :func:`_burn_columns` of every pair."""
    return _burn_columns(graph, None, rungs)


def _rung_symbols(graph: Graph, rungs: Optional[Sequence[RungConfig]]) -> list[bool]:
    """Whether each rung is a symbol: its burn with the left side burnt is
    not empty, and as it touches the right copies they count too (as in
    :func:`rung_burn`), so it must end full."""
    full, left = graph.full_mask, graph.full_mask << graph.n
    alone, both = _burn_columns(graph, (left, left | graph.full_mask), rungs).T
    return ((alone != 0) & (both == full)).tolist()


# ---------------------------------------------------------------------------
# One-rung primitives and influence maps
# ---------------------------------------------------------------------------

@lru_cache(maxsize=2 ** 22)
def rung_burn(graph: Graph, left_burnt: int, rung: RungConfig,
              right_burnt: int) -> int:
    """Maximal burn inside a single rung given pre-declared burnt vertex
    copies on the left (``left_burnt``) and right (``right_burnt``).

    Left copies count as burnt territory outright.  Right copies sit on
    the far side of the rung: they only start counting once some burnt
    vertex of the rung itself touches one, at which point they all do
    (they are mutually connected beyond the rung).  Cached: the advance
    loops of :func:`advance_rung_state` revisit the same arguments heavily.
    """
    n = graph.n
    maxh = graph.max_height
    burnt = 0
    merged = False
    changed = True
    while changed:
        changed = False
        for x in range(n):
            bit = 1 << x
            if burnt & bit:
                continue
            c = (left_burnt >> x) & 1
            if merged:
                c += (right_burnt >> x) & 1
            nb = graph.neighbors[x]
            bm = burnt
            for y in nb:
                c += (bm >> y) & 1
            if c >= maxh[x] - rung[x] + 1:
                burnt |= bit
                changed = True
                if not merged and (right_burnt >> x) & 1:
                    merged = True
    return burnt


def first_rung_state(graph: Graph, rung: RungConfig
                     ) -> tuple[int, InfluenceMap]:
    """Burnt set and influence map of the leftmost rung of a window:
    the left side is fully open, so the burnt set is the left-assisted
    closure and the influence map records how any burnt set declared on
    the next rung feeds back."""
    full = graph.full_mask
    table = tuple(rung_burn(graph, full, rung, a) for a in range(full + 1))
    return table[0], table


def advance_rung_state(graph: Graph, burnt: int, rung: RungConfig,
                       influence: InfluenceMap) -> tuple[int, InfluenceMap]:
    """Advance the (burnt set, influence map) pair across one rung.

    Both components are fixed points of alternating the one-rung burn
    with the previous influence map; the alternation grows the burnt
    sets monotonically, so it must settle within ``2**|G|`` rounds.
    """
    full = graph.full_mask
    cap = (1 << graph.n) + 2

    a = rung_burn(graph, burnt, rung, 0)
    for _ in range(cap):
        a2 = rung_burn(graph, influence[a], rung, 0)
        if a2 == a:
            break
        a = a2
    else:
        raise InternalInvariantError("burnt-set alternation failed to settle")
    new_burnt = a

    base = influence[new_burnt]
    table = []
    for target in range(full + 1):
        abar = rung_burn(graph, base, rung, target)
        for _ in range(cap):
            abar2 = rung_burn(graph, influence[abar], rung, target)
            if abar2 == abar:
                break
            abar = abar2
        else:
            raise InternalInvariantError("influence alternation failed to settle")
        table.append(abar)
    return new_burnt, tuple(table)


# ---------------------------------------------------------------------------
# Closed-form characterization for the two-vertex path
# ---------------------------------------------------------------------------

def path2_characterization(graph: Graph, rungs: Sequence[RungConfig]) -> bool:
    """Left-burnability test for the two-vertex path by pattern rules:
    every rung holds a maximal height, and a one-sided deficient rung
    (3,1) may only be followed by (3,2)s until a (3,3) arrives (the
    (3,3) may be missing at the right edge); mirrored for (1,3)/(2,3).
    """
    if graph.degree != (1, 1):
        raise ValidationError("characterization applies to the 2-path only")
    seq = [tuple(r) for r in rungs]
    for rung in seq:
        if len(rung) != 2:
            raise ValidationError(f"rung {rung} is not a 2-vector")
        if not all(1 <= h <= 3 for h in rung):
            raise ValidationError(f"rung {rung} outside stable range")
    for rung in seq:
        if 3 not in rung:
            return False
    for i, rung in enumerate(seq):
        if rung == (3, 1):
            filler, closer = (3, 2), (3, 3)
        elif rung == (1, 3):
            filler, closer = (2, 3), (3, 3)
        else:
            continue
        for later in seq[i + 1:]:
            if later == closer:
                break
            if later != filler:
                return False
    return True


__all__ = [
    "BurnTrace", "InfluenceMap", "LeftmostResult",
    "RungConfig", "advance_rung_state", "burn_table", "first_rung_state",
    "full_burnable", "is_rung_symbol", "left_burnable", "leftmost_schedule",
    "max_rung", "path2_characterization", "reflect_heights", "right_burnable",
    "rung_burn", "window_heights",
]
