"""Exact enumeration and counting of burnable-configuration classes.

Counts are exact integers.  One engine per graph (:class:`_SequenceDFS`)
decides every window verdict the library computes for itself.  It keeps
the left-seeded burning state of a prefix as burnt-row bitmasks and
appends a rung by a closure that reads each row's burn from the one-rung
burn table (:func:`~laddersand.burning.burn_table`, whose rows it burns
the first time a rung is read), never re-burning the window.  A fully
burnt row above the prefix decides acceptance, and a rejected prefix has
no accepted extension.  Its depth-first walk yields every accepted
prefix in rung order, over the rung symbols with ignition (a prefix
that cannot ignite its last rung is pruned) or over the single-rung
recurrent rungs without it.  The boundary layers of
:func:`laddersand.measures.boundary_layer` take one pass per side.

Brute counts (:meth:`_SequenceDFS.count`) go one length at a time over
transfer states: for each vertex set held burnt right of a prefix, its
last row's burn and whether every row burns.  Taking the burn's least
fixed point one row at a time (Bekić's lemma), later rungs meet a prefix
only through that state, so the prefixes sharing it are counted
together, and the states stay bounded as the windows grow.  Each length
may draw its own rungs (the mixture pins an event's).  ``S``/``S0`` pair
the left-seeded state with the right-seeded one.  The counts read
nothing of the coding automaton, so they stay its independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, product
from typing import Callable, Iterator, Optional, Sequence

from .burning import (RungConfig, _require_table_vertices, _rung_symbols,
                      burn_table, full_burnable, max_rung, window_heights)
from .errors import FeasibilityError, ValidationError
from .graphs import Graph

VARIANTS = ("L", "L0", "S", "S0", "REC")

DEFAULT_MAX_ENUM = 10 ** 7


@dataclass(frozen=True)
class RungAlphabet:
    """All admissible single-rung height vectors, sorted."""

    graph: Graph
    rungs: tuple[RungConfig, ...]

    def __len__(self) -> int:
        return len(self.rungs)

    def __iter__(self):
        return iter(self.rungs)

    def index(self, rung: RungConfig) -> int:
        return self.rungs.index(tuple(rung))

    def __contains__(self, rung) -> bool:
        return tuple(rung) in self.rungs


@dataclass(frozen=True)
class CountSeries:
    """Exact counts indexed by window length (``values[i]`` is n = i+1)."""

    variant: str
    values: tuple[int, ...]
    provenance: str
    graph_name: str = "custom"

    def __getitem__(self, n: int) -> int:
        if not 1 <= n <= len(self.values):
            raise IndexError(f"n={n} outside computed range 1..{len(self.values)}")
        return self.values[n - 1]

    def with_zero(self) -> tuple[int, ...]:
        """The sequence with the conventional count 1 prepended at n=0."""
        return (1,) + self.values


@lru_cache(maxsize=None)
def enum_rungs(graph: Graph) -> RungAlphabet:
    """The stable height vectors left-burnable on a one-rung window, from
    one sweep of one-rung burns over them all."""
    stable = product(*[range(1, m + 1) for m in graph.max_height])
    return RungAlphabet(graph, tuple(compress(stable, _rung_symbols(graph, None))))


@lru_cache(maxsize=None)
def single_rung_recurrent(graph: Graph) -> tuple[RungConfig, ...]:
    """Stable rungs with no forbidden subconfiguration of their own,
    refused like the burn table on graphs of more than 8 vertices."""
    _require_table_vertices(graph)
    return tuple(h for h in product(*[range(1, m + 1) for m in graph.max_height])
                 if full_burnable(graph, window_heights([h], start=0)).success)


# ---------------------------------------------------------------------------
# Depth-first enumeration with an incremental burning state
# ---------------------------------------------------------------------------

def _close(burnt: list[int], tbls: Sequence, dirty: int, full: int, n: int) -> None:
    """Burning closure over burnt-row masks: reprocess dirty rows (a
    bitmask of row indices) until nothing new burns.  ``tbls[j]`` is the
    one-rung burn table's row for the rung of row ``j``, indexed by
    ``below << n | above``: a row's burn sees the burnt vertices beside
    it and the open left end below row 0.  A row only grows and always
    lies inside the burn of its current neighbours, so that burn is its
    new value."""
    top = len(burnt) - 1
    while dirty:
        jbit = dirty & -dirty
        dirty ^= jbit
        j = jbit.bit_length() - 1
        row = burnt[j]
        if row == full:
            continue
        below = burnt[j - 1] if j else full
        above = burnt[j + 1] if j < top else 0
        new = tbls[j][(below << n) | above]
        if new != row:
            burnt[j] = new
            if j:
                dirty |= jbit >> 1
            if j < top:
                dirty |= jbit << 1


class _SequenceDFS:
    """The census engine of one graph.  A prefix is its resting
    left-seeded burnt-row masks beside its rungs' table rows, which the
    walks append to and pop so pushes stay allocation-light."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self.n = graph.n
        self.full = graph.full_mask
        self.cmax = max_rung(graph)
        # the empty prefix's right-seeded transfer state (see right_step)
        self.sink = tuple((self.full if y else 0) | 1 << self.n for y in range(1 << self.n))
        self.tables: dict[RungConfig, list[int]] = {}

    def rows(self, rungs: Sequence[RungConfig]) -> list[list[int]]:
        """The table row of each rung; the missing rows are burnt in one
        :func:`~laddersand.burning.burn_table` call, under its limit."""
        try:
            return [self.tables[c] for c in rungs]
        except KeyError:
            missing = [c for c in dict.fromkeys(rungs) if c not in self.tables]
        self.tables.update(zip(missing, burn_table(self.graph, missing).tolist()))
        return [self.tables[c] for c in rungs]

    def push(self, burnt: list[int], tbls: list, ignite: bool = True
             ) -> Optional[list[int]]:
        """Resting state after appending a rung as row ``len(burnt)``;
        ``tbls[j]`` must be the table row of row ``j``, the new rung's
        included.  With ``ignite`` (the symbol walks) None when the new
        rung cannot ignite, in which case no extension is left-burnable
        either; its burn grows from nothing, so one round decides that."""
        k = len(burnt)
        if ignite and k and not tbls[k][burnt[-1] << self.n]:
            return None
        child = burnt + [0]
        _close(child, tbls, 1 << k, self.full, self.n)
        if ignite and child[k] == 0:
            return None
        return child

    def is_burnable(self, burnt: list[int], tbls: list) -> bool:
        """Whether the closure finishes once a fully burnt row above the
        prefix switches the right sink on: left-burnability after ignited
        pushes, recurrence after any (burning is order-free)."""
        probe = burnt + [self.full]  # a full row is never reprocessed
        _close(probe, tbls, 1 << (len(burnt) - 1), self.full, self.n)
        return probe.count(self.full) == len(probe)

    def accepts(self, rungs: Sequence[RungConfig], ignite: bool = True) -> bool:
        """Left-burnability (with ``ignite``) or recurrence of a nonempty
        rung sequence, in one pass."""
        tbls = self.rows(rungs)
        burnt: list[int] = []
        for _ in rungs:
            burnt = self.push(burnt, tbls, ignite)
            if burnt is None:
                return False
        return self.is_burnable(burnt, tbls)

    def last_max_prefix(self, rungs: Sequence[RungConfig]) -> int:
        """The index of the last maximal rung of a recurrent window that
        ends a left-burnable prefix, or -1: the last one an ignited pass
        pushes (left-burnability is closed under prefixes).  A pushed
        maximal rung burns whole, and the window's ordinary burn reaches
        the rows below it only through it and the left sink, so in that
        burn's order they all burn here too."""
        tbls = self.rows(rungs)
        burnt: list[int] = []
        last = -1
        for k, c in enumerate(rungs):
            burnt = self.push(burnt, tbls)
            if burnt is None:
                break
            if c == self.cmax:
                last = k
        return last

    def walk(self, rungs: Sequence[RungConfig], n_max: int, ignite: bool
             ) -> Iterator[list[RungConfig]]:
        """Every burnable sequence of at most ``n_max`` of the given
        rungs, the empty one first, depth first in their order, as the
        walk's own path (copy what you keep).  With ``ignite`` the
        sequences are left-burnable, otherwise recurrent; either way a
        prefix that is not burnable has no burnable extension."""
        steps = [(c, tbl, c == self.cmax) for c, tbl in zip(rungs, self.rows(rungs))]
        path: list[RungConfig] = []
        tbls: list = []
        yield path
        stack = [([], iter(steps))] if n_max else []
        while stack:
            burnt, children = stack[-1]
            for c, tbl, is_max in children:
                tbls.append(tbl)
                child = self.push(burnt, tbls, ignite)
                # appending a maximal rung preserves burnability outright
                if child is not None and (is_max or self.is_burnable(child, tbls)):
                    path.append(c)
                    yield path
                    if len(path) < n_max:
                        stack.append((child, iter(steps)))
                        break
                    path.pop()
                tbls.pop()
            else:
                stack.pop()
                if path:
                    path.pop()
                    tbls.pop()

    def _entry(self, state: tuple[int, ...], tbl: list[int], t: int) -> int:
        """Entry ``t`` of :meth:`right_step`: the new row's burn is the least
        fixed point under the old last row's, at most ``n + 1`` rounds."""
        n, full = self.n, self.full
        y, z = -1, 0
        while z != y:
            y, z = z, tbl[(state[z] & full) << n | t]
        return y | (y == full and state[y] >> n) << n

    def right_step(self, state: tuple[int, ...], tbl: list[int]) -> tuple[int, ...]:
        """The transfer state after appending a rung of table row ``tbl``:
        entry ``t`` is ``last | flag << n``, the last row's burn and whether
        every row burns while the set ``t`` is burnt to the right.  The
        empty prefix's state is the burnt left sink, or :attr:`sink`."""
        return tuple([self._entry(state, tbl, t) for t in range(1 << self.n)])

    def _accepts(self, state: tuple[int, ...], tbl: list[int], ignite: bool) -> bool:
        """Whether every row burns after a rung of table row ``tbl`` under
        a burnt right end (entry ``full``) and, with ``ignite``, the rung
        burns with nothing there (entry 0, nonzero iff its first round is)."""
        return bool((not ignite or tbl[(state[0] & self.full) << self.n])
                    and self._entry(state, tbl, self.full) >> self.n)

    def count(self, depths: Sequence[Sequence[RungConfig]], ignite: bool,
              two_sided: bool = False) -> list[int]:
        """The number of burnable sequences of each length ``0..len(depths)``
        whose ``k``-th rung is one of ``depths[k - 1]``, counted one length
        at a time by transfer state (:meth:`right_step`), all that later
        rungs see of a prefix: a layer maps each state to its number of
        accepted prefixes.  A step is taken once per state and rung, only
        for an accepted child, and the last layer reads only the entries
        acceptance needs (:meth:`_accepts`).  A rejected prefix has no
        accepted extension.  With ``two_sided`` the state adds the
        right-seeded one from :attr:`sink`, which is never dropped."""
        n, full = self.n, self.full
        counts = [1] + [0] * len(depths)
        # (left-seeded state, right-seeded state or None) -> prefixes
        layer = {(tuple(full | 1 << n for _ in range(1 << n)),
                  self.sink if two_sided else None): 1}
        lmoves: dict = {}  # state -> rung -> child, () when rejected
        rmoves: dict = {}

        def verdicts(moves, state, ignited, mask=-1):
            # the accepted rungs of mask after state, as a bitmask over steps
            row, bits = moves.get(state, {}), 0
            for i, (c, tbl) in enumerate(steps):
                child = row.get(c)
                if mask >> i & 1 and (self._accepts(state, tbl, ignited) if child is None
                                      else child and child[full] >> n):
                    bits |= 1 << i
            return bits

        for depth, rungs in enumerate(depths, start=1):
            steps = list(zip(rungs, self.rows(rungs)))
            if depth == len(depths):
                lbits = {left: verdicts(lmoves, left, ignite) for left, _ in layer}
                need: dict = {}  # right-seeded state -> rungs accepted on the left
                for left, right in layer:
                    need[right] = need.get(right, 0) | lbits[left]
                rbits = {right: verdicts(rmoves, right, False, mask) if two_sided else -1
                         for right, mask in need.items()}
                counts[depth] = sum(mult * (lbits[left] & rbits[right]).bit_count()
                                    for (left, right), mult in layer.items())
                break
            nxt: dict = {}
            for (left, right), mult in layer.items():
                lrow, rrow = lmoves.setdefault(left, {}), rmoves.setdefault(right, {})
                for c, tbl in steps:
                    if c not in lrow:
                        lrow[c] = (self.right_step(left, tbl)
                                   if self._accepts(left, tbl, ignite) else ())
                    if lrow[c]:
                        if two_sided and c not in rrow:
                            rrow[c] = self.right_step(right, tbl)
                        key = lrow[c], rrow[c] if two_sided else None
                        nxt[key] = nxt.get(key, 0) + mult
            layer = nxt
            counts[depth] = sum(mult for (_, right), mult in layer.items()
                                if right is None or right[full] >> n)
        return counts


@lru_cache(maxsize=8)
def _engine(graph: Graph) -> _SequenceDFS:
    """The engine of ``graph`` with the table rows read so far, for the
    8 most recently read graphs."""
    return _SequenceDFS(graph)


def _windows(graph: Graph, alphabet: Callable[[Graph], Sequence[RungConfig]],
             n: int, ignite: bool) -> Iterator[tuple[RungConfig, ...]]:
    if n < 0:
        raise ValidationError("n must be >= 0")
    engine = _engine(graph)
    for path in engine.walk(alphabet(graph), n, ignite):
        if len(path) == n:
            yield tuple(path)


def iter_left_burnable(graph: Graph, n: int) -> Iterator[tuple[RungConfig, ...]]:
    """All left-burnable rung sequences of length exactly ``n``, in
    lexicographic order."""
    yield from _windows(graph, lambda g: enum_rungs(g).rungs, n, ignite=True)


def iter_recurrent(graph: Graph, n: int) -> Iterator[tuple[RungConfig, ...]]:
    """All recurrent raw configurations on a window of ``n`` rungs, in
    lexicographic order."""
    yield from _windows(graph, single_rung_recurrent, n, ignite=False)


def count_series(graph: Graph, variant: str, n_max: int,
                 method: str = "brute", *,
                 max_enum: int = DEFAULT_MAX_ENUM,
                 max_states: Optional[int] = None) -> CountSeries:
    """Exact counts of the window classes: ``L`` left-burnable, ``L0``
    left-burnable without maximal rungs, ``S`` two-sided burnable, ``S0``
    two-sided without maximal rungs, ``REC`` all recurrent.

    ``method="brute"`` counts on the census engine by transfer state (the
    module docstring says why).

    ``method="automaton"`` counts accepted words of the rung-coding
    automaton instead of enumerating; it exists for ``L`` and ``L0``
    only (no automaton is built for the symmetric or recurrent classes).
    It reads the automaton, or its restriction to non-maximal rungs, from
    the per-graph cache the measures share, under ``max_states``
    (default: the coding module's cap).
    """
    if variant not in VARIANTS:
        raise ValidationError(f"unknown variant {variant!r}; pick from {VARIANTS}")
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    if method == "automaton":
        if variant not in ("L", "L0"):
            raise ValidationError(
                f"variant {variant!r} has no automaton; use method='brute'")
        from .coding import DEFAULT_MAX_STATES
        from .measures import _AutomatonBundle
        bundle = _AutomatonBundle.get(graph, DEFAULT_MAX_STATES
                                      if max_states is None else max_states)
        auto = bundle.automaton if variant == "L" else bundle.nonmax
        # with the maximal rung alone in the alphabet no L0 window exists
        values = (tuple(auto.word_counts(n_max)) if auto is not None
                  else (0,) * n_max)
        return CountSeries(variant=variant, values=values,
                           provenance="automaton", graph_name=graph.name)
    if method != "brute":
        raise ValidationError(f"unknown method {method!r}")

    dfs = _engine(graph)
    rec = variant == "REC"
    base = len(single_rung_recurrent(graph) if rec else enum_rungs(graph))
    if base ** n_max > max_enum:
        raise FeasibilityError(
            f"brute enumeration needs {base}**{n_max} > max_enum={max_enum}; raise "
            "max_enum" + (" or use method='automaton'" if variant in ("L", "L0") else ""))
    rungs = (single_rung_recurrent(graph) if rec else
             [c for c in enum_rungs(graph) if variant in ("L", "S") or c != dfs.cmax])
    counts = dfs.count([rungs] * n_max, ignite=not rec,
                       two_sided=variant in ("S", "S0"))
    values = tuple(counts[1:])
    return CountSeries(variant=variant, values=values, provenance="brute",
                       graph_name=graph.name)


def renewal_identity_check(a: CountSeries, b: CountSeries, n_max: int) -> bool:
    """Exact check that the full counts decompose over the position of
    the first maximal rung: a_n = b_n + sum_{k=1..n} b_{k-1} a_{n-k}."""
    if a.variant != "L" or b.variant != "L0":
        raise ValidationError("needs the L series and the L0 series")
    av, bv = a.with_zero(), b.with_zero()
    if n_max >= min(len(av), len(bv)):
        raise ValidationError(f"series too short for n_max={n_max}")
    for n in range(1, n_max + 1):
        if av[n] != bv[n] + sum(bv[k - 1] * av[n - k] for k in range(1, n + 1)):
            return False
    return True


@dataclass(frozen=True)
class EntropyBounds:
    """Per-window-length bounds on the exponential growth rate."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    estimate: float


def entropy_bounds(series: CountSeries, exact_rate: Optional[float] = None
                   ) -> EntropyBounds:
    """Growth-rate bounds from the exact counts.

    Upper bounds come from submultiplicativity (restriction), lower
    bounds from concatenating across an inserted maximal rung, which
    gives ``a_{p+q+1} >= a_p a_q``.
    """
    if not series.values:
        raise ValidationError("empty series")
    if 0 in series.values:
        raise ValidationError("a zero count has no growth-rate bound")
    upper = tuple(math.log(v) / n for n, v in enumerate(series.values, start=1))
    lower = tuple(math.log(v) / (n + 1) for n, v in enumerate(series.values, start=1))
    estimate = exact_rate if exact_rate is not None else min(upper)
    return EntropyBounds(lower=lower, upper=upper, estimate=estimate)


__all__ = [
    "CountSeries", "EntropyBounds", "RungAlphabet", "count_series",
    "entropy_bounds", "enum_rungs", "iter_left_burnable", "iter_recurrent",
    "renewal_identity_check", "single_rung_recurrent", "DEFAULT_MAX_ENUM",
]
