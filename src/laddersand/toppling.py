"""Sandpile dynamics on finite ladder windows.

A site holding more grains than its ladder degree topples, sending one
grain along each incident edge; edges missing at the window's end rungs
lead to the sink.  Any rule for picking which unstable sites fire is
equivalent: the final configuration and the per-site toppling counts
(the odometer) do not depend on the schedule.  The engine verifies
nothing about that on its own; the equivalence is exercised by
:func:`check_abelian` and the test suite.

Heights below 1 never arise from stabilizing a stable configuration
plus additions, but arbitrary positive integer heights are accepted so
that mid-avalanche states can be replayed.

All three schedules run on flat Python lists indexed by cell
``r * n + x`` (row ``r`` of the heights array, vertex ``x``); the cell
index defines their order (the canonical schedule fires the least
unstable cell, the parallel one fires rounds of every unstable cell).
A cell keeps its room, its maximal height minus its height.  Heights are
integers and only grow between a cell's own topplings, so the grain that
takes the room from 0 to -1 is the one that makes the cell unstable, and
the list of cells to fire needs no flag per cell.  The heights and
odometer are written back to numpy arrays when the avalanche ends or
overruns its step cap.

The canonical schedule keeps its unstable cells on a heap.  A toppling
pushes all but the last of the cells it makes unstable (itself among
them, when it stays unstable), and one ``heappushpop`` trades that last
cell for the next to fire: the least of the heap and the new cells,
which a push and then a pop would also take.  The heap holds each cell
at most once, so the order cells go in is never seen: the least
unstable ``(rung, vertex)`` always fires next.  When the step cap is
spent, the cell taken to fire next has not fired.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heappop, heappush, heappushpop
from typing import Iterable, Optional, Sequence

import numpy as np

from .burning import left_burnable
from .errors import StepCapExceeded, ValidationError
from .graphs import (Graph, Site, Window, _integer, _length, _seed,
                     ladder_neighbors)

DEFAULT_STEP_CAP = 10 ** 7


@dataclass(frozen=True)
class Schedule:
    """Which unstable sites fire each step: all at once, the least
    ``(rung, vertex)``, or a uniformly random one (seeded)."""

    kind: str
    seed: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("parallel", "canonical", "random"):
            raise ValidationError(f"unknown schedule kind {self.kind!r}")
        if self.seed is not None:
            object.__setattr__(self, "seed", _seed(self.seed))
        elif self.kind == "random":
            raise ValidationError("random schedule needs a seed")


PARALLEL = Schedule("parallel")
CANONICAL = Schedule("canonical")


def random_schedule(seed: int) -> Schedule:
    return Schedule("random", seed)


@dataclass
class LadderConfig:
    """Grain heights on a window; row ``k - window.n`` holds rung ``k``."""

    window: Window
    heights: np.ndarray

    @classmethod
    def from_rungs(cls, rungs: Sequence[Sequence[int]], start: int = 1
                   ) -> "LadderConfig":
        arr = np.array([list(r) for r in rungs], dtype=np.int64)
        return cls(window=Window(start, start + len(rungs) - 1), heights=arr)

    def copy(self) -> "LadderConfig":
        return LadderConfig(self.window, self.heights.copy())

    def height(self, site: Site) -> int:
        x, k = site
        return int(self.heights[k - self.window.n, x])

    def heights_map(self) -> dict[Site, int]:
        start = self.window.n
        return {(x, start + r): h for r, row in enumerate(self.heights.tolist())
                for x, h in enumerate(row)}

    def is_stable(self, graph: Graph) -> bool:
        return bool((self.heights >= 1).all()
                    and (self.heights <= np.array(graph.max_height)).all())

    def restricted(self, window: Window) -> "LadderConfig":
        if window.n < self.window.n or window.m > self.window.m:
            raise ValidationError("restriction window sticks out")
        lo = window.n - self.window.n
        return LadderConfig(window, self.heights[lo:lo + len(window)].copy())

    def to_json(self) -> dict:
        return {"window": [self.window.n, self.window.m],
                "heights": self.heights.tolist()}

    @classmethod
    def from_json(cls, data: dict) -> "LadderConfig":
        heights = np.array(data["heights"])
        _require_integers(heights)
        return cls(Window(*data["window"]), heights.astype(np.int64))


@dataclass
class Odometer:
    """Per-site toppling counts of one avalanche."""

    window: Window
    counts: np.ndarray
    grains_to_sink: int

    def count(self, site: Site) -> int:
        x, k = site
        return int(self.counts[k - self.window.n, x])

    def rung_min(self) -> dict[int, int]:
        return {self.window.n + r: int(row.min())
                for r, row in enumerate(self.counts)}

    def to_json(self) -> dict:
        return {"window": [self.window.n, self.window.m],
                "counts": self.counts.tolist(),
                "grains_to_sink": self.grains_to_sink}


def _require_integers(heights: np.ndarray) -> None:
    if heights.dtype.kind not in "iu":
        raise ValidationError(f"heights must be integers, not {heights.dtype}")


def _validate_config(graph: Graph, config: LadderConfig) -> None:
    _require_integers(config.heights)
    if config.heights.shape != (len(config.window), graph.n):
        raise ValidationError("heights array does not match window/graph shape")
    if (config.heights < 1).any():
        raise ValidationError("heights must be positive")


def laplacian_apply(graph: Graph, window: Window, counts: np.ndarray
                    ) -> np.ndarray:
    """The ladder Laplacian applied to a per-site integer field on the
    window (sink contributions drop out)."""
    mvec = np.array(graph.max_height, dtype=np.int64)
    out = counts * mvec[None, :]
    for u, v in graph.edges:
        out[:, u] -= counts[:, v]
        out[:, v] -= counts[:, u]
    out[1:] -= counts[:-1]
    out[:-1] -= counts[1:]
    return out


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
    if not isinstance(schedule, Schedule):
        raise ValidationError(f"schedule must be a Schedule, not {schedule!r}")
    step_cap = _length(step_cap, "step_cap", 1)
    window = config.window
    rows = len(window)
    n = graph.n
    cells = rows * n
    cap = list(graph.max_height) * rows
    room = [m - hc for m, hc in zip(cap, config.heights.ravel().tolist())]
    for site in additions:
        try:
            x, k = site
        except (TypeError, ValueError):
            raise ValidationError(f"addition site {site!r} is not a "
                                  "(vertex, rung) pair") from None
        x, k = _integer(x, "addition vertex"), _integer(k, "addition rung")
        if not (0 <= x < n) or not window.contains((x, k)):
            raise ValidationError(f"addition site ({x},{k}) outside window")
        room[(k - window.n) * n + x] -= 1

    nbrs = ladder_neighbors(graph, rows)
    ol = [0] * cells
    # todo holds exactly the cells with negative room, but the one the
    # canonical loop has taken to fire next; sorted, it is already a heap
    todo = [c for c in range(cells) if room[c] < 0]
    exceeded = False
    if schedule.kind == "parallel":
        # a round fires every listed cell; firing them one after another
        # lists each cell whose room is negative once the round is done
        steps = 0
        while todo:
            steps += len(todo)
            if steps > step_cap:
                exceeded = True
                break
            nxt = []
            for c in todo:
                ol[c] += 1
                room[c] += cap[c]
                if room[c] < 0:
                    nxt.append(c)
                for d in nbrs[c]:
                    room[d] -= 1
                    if room[d] == -1:
                        nxt.append(d)
            todo = nxt
    elif schedule.kind == "canonical" and todo:
        # the last cell a toppling makes unstable and the next to fire
        # share one heappushpop
        c = heappop(todo)
        for _ in range(step_cap):
            ol[c] += 1
            rc = room[c] + cap[c]
            room[c] = rc
            last = c if rc < 0 else -1
            for d in nbrs[c]:
                r = room[d] - 1
                room[d] = r
                if r == -1:
                    if last >= 0:
                        heappush(todo, last)
                    last = d
            if last >= 0:
                c = heappushpop(todo, last)
            elif todo:
                c = heappop(todo)
            else:
                break
        else:  # the cap is spent and c is still to fire
            exceeded = True
    elif schedule.kind == "random":
        # randrange(len(todo)) inlined: the same draws from the same seed
        bits = random.Random(schedule.seed).getrandbits
        append, pop = todo.append, todo.pop
        for _ in range(step_cap):
            size = len(todo)
            if not size:
                break
            k = bits(size.bit_length())
            while k >= size:
                k = bits(size.bit_length())
            # the drawn cell swaps with the last, so pop() shifts nothing
            c, todo[k] = todo[k], todo[-1]
            pop()
            ol[c] += 1
            rc = room[c] + cap[c]
            room[c] = rc
            for d in nbrs[c]:
                r = room[d] - 1
                room[d] = r
                if r == -1:
                    append(d)
            if rc < 0:
                append(c)
        else:
            exceeded = bool(todo)
    h = np.array([m - r for m, r in zip(cap, room)], dtype=np.int64).reshape(rows, n)
    odo = np.array(ol, dtype=np.int64).reshape(rows, n)

    # the end rungs drain to the sink; a single-rung window drains twice
    odometer = Odometer(window, odo, int(odo[0].sum() + odo[-1].sum()))
    if exceeded:
        raise StepCapExceeded(
            f"avalanche exceeded step cap of {step_cap} site-topplings",
            odometer=odometer, heights=LadderConfig(window, h))
    return LadderConfig(window, h), odometer


def check_abelian(graph: Graph, config: LadderConfig,
                  additions: Iterable[Site],
                  schedules: Sequence[Schedule],
                  step_cap: int = DEFAULT_STEP_CAP) -> bool:
    """Whether all schedules produce the identical final configuration
    and odometer on the given instance."""
    additions, schedules = list(additions), list(schedules)
    if not schedules:
        raise ValidationError("check_abelian needs at least one schedule")
    results = []
    for sched in schedules:
        final, odo = stabilize(graph, config, additions, sched, step_cap)
        results.append((final.heights, odo.counts, odo.grains_to_sink))
    h0, o0, s0 = results[0]
    return all((h == h0).all() and (o == o0).all() and s == s0
               for h, o, s in results[1:])


def rung_zero_blast(graph: Graph, config: LadderConfig,
                    schedule: Schedule = CANONICAL,
                    step_cap: int = DEFAULT_STEP_CAP
                    ) -> tuple[LadderConfig, Odometer]:
    """Add one grain to every site of rung 0 and stabilize.

    On a window this terminates (grains drain at the end rungs); the
    infinite-volume statement that everything topples over and over is
    probed by how the minimum toppling counts grow with the window.
    """
    if not config.window.contains((0, 0)):
        raise ValidationError("window must contain rung 0")
    if not left_burnable(graph, config.heights_map()).success:
        raise ValidationError("configuration is not left-burnable")
    additions = [(x, 0) for x in range(graph.n)]
    return stabilize(graph, config, additions, schedule, step_cap)


def demo_wave_config(length: int = 12) -> tuple[LadderConfig, Site]:
    """The documented two-row avalanche fixture: a specific left-burnable
    six-rung pattern padded with maximal rungs to the right; adding one
    grain at vertex 0 of rung 4 sends a wave that topples the start of
    the pattern a few times and everything to its right exactly once."""
    if length < 6:
        raise ValidationError("fixture needs at least 6 rungs")
    rungs = [(3, 3), (2, 3), (3, 1), (3, 3), (1, 3), (3, 3)]
    rungs += [(3, 3)] * (length - 6)
    return LadderConfig.from_rungs(rungs, start=1), (0, 4)


__all__ = [
    "CANONICAL", "DEFAULT_STEP_CAP", "LadderConfig", "Odometer", "PARALLEL",
    "Schedule", "check_abelian", "demo_wave_config", "laplacian_apply",
    "random_schedule", "rung_zero_blast", "stabilize",
]
