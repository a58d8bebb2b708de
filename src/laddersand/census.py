"""Exact enumeration and counting of burnable-configuration classes.

Counts are exact integers.  One engine per graph (:class:`_SequenceDFS`)
decides every window verdict the library computes for itself, reading
each row's burn off the one-rung burn table
(:func:`~laddersand.burning.burn_table`, whose rows it burns the first
time a stable rung is read).  Walks and brute counts run on *transfer
states*: for each vertex set held burnt right of a prefix, its last
row's burn and whether every row burns.  Taking the burn's least fixed
point one row at a time (Bekić's lemma), later rungs meet a prefix only
through that state, and a rejected prefix has no accepted extension.
A call takes each state's child after a rung once, whole, and keeps
equal children as one.  The depth-first walk yields every accepted
prefix in rung order, over the rung symbols with ignition (a prefix
that cannot ignite its last rung is pruned) or over the single-rung
recurrent rungs without it.  The verdicts on one window known in full
push its rows on burnt-row masks in place by a closure instead, which
reads far fewer table entries per rung than a whole state takes: one
pass decides recurrence and the left boundary layer of
:func:`laddersand.measures.boundary_layer`, one over the mirror the right.

Brute counts (:meth:`_SequenceDFS.count`) go one length at a time over
whole transfer states, so the prefixes sharing a state are counted
together, and the states stay bounded as the windows grow.  Each length
may draw its own rungs (the mixture pins an event's).  ``S``/``S0`` pair
the left-seeded state with the right-seeded one.  A count is refused as
soon as one length holds more than ``max_states`` states, the cap that
bounds the coding automaton's states too.  The engine keeps its
table rows between calls and nothing else.  The counts read nothing of
the coding automaton, so they stay its independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, product
from operator import contains
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .burning import (RungConfig, _require_table_vertices, _rung_symbols,
                      burn_table, full_burnable, max_rung, window_heights)
from .errors import FeasibilityError, ValidationError
from .graphs import DEFAULT_MAX_STATES, Graph, _length, laplacian_entry

VARIANTS = ("L", "L0", "S", "S0", "REC")


@dataclass(frozen=True)
class RungAlphabet:
    """All admissible single-rung height vectors, sorted.  Membership and
    :meth:`index` read a dict of the rungs, built once, so heights are
    compared by value: ``2.0`` is the height 2, ``2.5`` no height."""

    graph: Graph
    rungs: tuple[RungConfig, ...]

    def __post_init__(self):
        object.__setattr__(self, "_index", {c: i for i, c in enumerate(self.rungs)})

    def __len__(self) -> int:
        return len(self.rungs)

    def __iter__(self):
        return iter(self.rungs)

    def index(self, rung: RungConfig) -> int:
        rung = tuple(rung)
        if rung not in self:
            raise ValidationError(f"rung {rung!r} is not in the alphabet "
                                  f"of {self.graph.name}")
        return self._index[rung]

    def __contains__(self, rung) -> bool:
        rung = tuple(rung)
        try:
            return rung in self._index
        except TypeError:  # an unhashable height equals no height
            return False


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
# The census engine: transfer states for walks and counts, a burnt-row
# closure for single windows
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
    """The census engine of one graph.  Walks and counts follow each
    prefix's transfer state (:meth:`right_step`), from the burnt left
    sink :attr:`source` or, right-seeded, from :attr:`sink`, taking each
    state's children whole through one memo per call (:meth:`_child`); a
    count merges the prefixes that share a state.  The verdicts on a
    single window extend its resting left-seeded burnt-row masks by a
    closure instead (:meth:`_pass`).  It keeps nothing but table rows
    from one call to the next."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self.n = graph.n
        self.full = graph.full_mask
        self.cmax = max_rung(graph)
        self.source = tuple(self.full | 1 << self.n for _ in range(1 << self.n))
        self.sink = tuple((self.full if y else 0) | 1 << self.n for y in range(1 << self.n))
        self.tables: dict[RungConfig, bytes] = {}

    def rows(self, rungs: Sequence[RungConfig]) -> list[bytes]:
        """The table row of each rung, as bytes; the missing rows are burnt
        in one :func:`~laddersand.burning.burn_table` call, under its limit,
        once each missing rung is known to be stable: ``n`` heights, each
        an integer in ``1..max`` (compared by value, as
        :func:`~laddersand.burning.is_rung_symbol` compares them)."""
        try:
            return [self.tables[c] for c in rungs]
        except KeyError:
            missing = [c for c in dict.fromkeys(rungs) if c not in self.tables]
        top = self.graph.max_height
        stable = [range(1, m + 1) for m in top]
        for c in missing:
            if len(c) != self.n or not all(map(contains, stable, c)):
                raise ValidationError(f"rung {c!r} is not a stable rung of {self.n} "
                                      f"integer heights up to {top}")
        self.tables.update(zip(missing, map(bytes, burn_table(self.graph, missing))))
        return [self.tables[c] for c in rungs]

    def _pass(self, rungs: Sequence[RungConfig], tbls: Sequence[bytes],
              ignite: bool, sink: bool = True) -> tuple[int, bool]:
        """Push a window's rows one at a time on its resting burnt-row
        masks, in place.  Returns the index of the last maximal rung among
        the leading rows that ignite in turn, or -1 (a row's burn grows
        from nothing, so its first round decides; with ``ignite`` the pass
        stops at the first that does not, as no extension is then
        left-burnable), and, with ``sink``, whether every row burns under a
        fully burnt row above: left-burnability after an ignited pass,
        recurrence after any (burning is order-free)."""
        n, full, cmax = self.n, self.full, self.cmax
        burnt: list[int] = []
        last, lit = -1, True
        for k, (c, tbl) in enumerate(zip(rungs, tbls)):
            row = tbl[(burnt[-1] if k else full) << n]  # the first round
            if not row:
                if ignite:
                    return last, False
                lit = False
            elif lit and c == cmax:
                last = k
            burnt.append(row)
            if row and k:
                _close(burnt, tbls, 1 << k - 1, full, n)
        if not sink:
            return last, False
        burnt.append(full)  # a full row is never reprocessed
        _close(burnt, tbls, 1 << len(tbls) - 1, full, n)
        return last, burnt.count(full) == len(burnt)

    def accepts(self, rungs: Sequence[RungConfig], ignite: bool = True) -> bool:
        """Left-burnability (with ``ignite``) or recurrence of a nonempty
        rung sequence, in one pass."""
        return self._pass(rungs, self.rows(rungs), ignite)[1]

    def last_max_prefix(self, rungs: Sequence[RungConfig]) -> int:
        """The index of the last maximal rung of a recurrent window that
        ends a left-burnable prefix, or -1: the last one an ignited pass
        pushes (left-burnability is closed under prefixes).  A pushed
        maximal rung burns whole, and the window's ordinary burn reaches
        the rows below it only through it and the left sink, so in that
        burn's order they all burn here too."""
        return self._pass(rungs, self.rows(rungs), True, sink=False)[0]

    def layers(self, rungs: Sequence[RungConfig]) -> tuple[bool, int, int]:
        """Recurrence of a nonempty rung sequence and :meth:`last_max_prefix`
        of it and of its mirror image, its table rows read once; an
        unignited pass pushes what an ignited one does."""
        tbls = self.rows(rungs)
        left, recurrent = self._pass(rungs, tbls, False)
        return recurrent, left, self._pass(rungs[::-1], tbls[::-1], True, sink=False)[0]

    def _entry(self, state, tbl: bytes, t: int, z: int = 0) -> int:
        """Entry ``t`` of :meth:`right_step`: the new row's burn is the least
        fixed point under the old last row's, at most ``n + 1`` rounds from
        ``z``, any burn inside it."""
        n, full = self.n, self.full
        y = -1
        while z != y:
            y, z = z, tbl[(state[z] & full) << n | t]
        return y | (y == full and state[y] >> n) << n

    def right_step(self, state, tbl: bytes) -> tuple[int, ...]:
        """The transfer state after appending a rung of table row ``tbl``:
        entry ``t`` is ``last | flag << n``, the last row's burn and whether
        every row burns while the set ``t`` is burnt to the right.  An
        entry's burn holds that of ``t`` less its lowest vertex, so its
        rounds start there."""
        full, out = self.full, [self._entry(state, tbl, 0)]
        for t in range(1, 1 << self.n):
            out.append(self._entry(state, tbl, t, out[t & t - 1] & full))
        return tuple(out)

    def _accepted(self, state, row: dict, steps, ignite: bool) -> list[int]:
        """The positions in ``steps`` of the rungs whose child of ``state``
        burns every row under a burnt right end (entry ``full``) and, with
        ``ignite``, burns with nothing there (entry 0, nonzero iff its
        first round is): read off the child where ``row`` (:meth:`_child`)
        has it, otherwise in :meth:`_entry`'s rounds."""
        n, full = self.n, self.full
        first, out = (state[0] & full) << n, []
        for i, (c, tbl) in enumerate(steps):
            child = row.get(c)
            if child is not None:
                if child and child[full] >> n:
                    out.append(i)
            elif not ignite or tbl[first]:
                y, z = -1, 0
                while z != y:
                    y, z = z, tbl[(state[z] & full) << n | full]
                if y == full and state[y] >> n:
                    out.append(i)
        return out

    def _accepts(self, state, tbl: bytes, ignite: bool) -> bool:
        """:meth:`_accepted` of one table row, by :meth:`_entry`."""
        n, full = self.n, self.full
        return bool((not ignite or tbl[(state[0] & full) << n])
                    and self._entry(state, tbl, full) >> n)

    def _child(self, row: dict, seen: dict, state, c: RungConfig, tbl: bytes,
               ignite: Optional[bool] = None) -> tuple[int, ...]:
        """The child of ``state`` after rung ``c`` (table row ``tbl``), kept
        in ``row``, the call's memo of the state's children, which callers
        read first: whole (:meth:`right_step`), as the copy in ``seen`` if
        there is one, or ``()`` if ``ignite`` is given and it rejects."""
        child = (self.right_step(state, tbl) if ignite is None
                 or self._accepts(state, tbl, ignite) else None)
        row[c] = child = seen.setdefault(child, child) if child else ()
        return child

    def walk(self, rungs: Sequence[RungConfig], n_max: int, ignite: bool
             ) -> Iterator[list[RungConfig]]:
        """Every burnable sequence of at most ``n_max`` of the given
        rungs, the empty one first, depth first in their order, as the
        walk's own path (copy what you keep).  A node's children are taken
        by state (:meth:`_child`), but those of ``n_max`` rungs are only
        tested, all at once (:meth:`_accepted`).  With ``ignite`` the
        sequences are left-burnable, otherwise recurrent; either way a
        prefix that is not burnable has no burnable extension."""
        steps = list(zip(rungs, self.rows(rungs)))
        moves: dict = {}  # state -> rung -> child, () when rejected
        seen: dict = {}  # each distinct child once
        path: list[RungConfig] = []
        yield path
        stack = [(self.source, moves.setdefault(self.source, {}), iter(steps))] if n_max else []
        while stack:
            state, row, children = stack[-1]
            if len(path) + 1 == n_max:  # its children have no children
                row, children = None, [steps[i] for i in self._accepted(state, row, steps, ignite)]
            for c, tbl in children:
                if row is None:
                    path.append(c)
                    yield path
                    path.pop()
                elif child := (row[c] if c in row
                               else self._child(row, seen, state, c, tbl, ignite)):
                    path.append(c)
                    yield path
                    stack.append((child, moves.setdefault(child, {}), iter(steps)))
                    break
            else:
                stack.pop()
                if path:
                    path.pop()

    def count(self, depths: Sequence[Sequence[RungConfig]], ignite: bool,
              two_sided: bool = False, max_states: int = DEFAULT_MAX_STATES
              ) -> list[int]:
        """The number of burnable sequences of each length ``0..len(depths)``
        whose ``k``-th rung is one of ``depths[k - 1]``, counted one length
        at a time by transfer state (:meth:`right_step`), all that later
        rungs see of a prefix: a layer maps each state to its number of
        accepted prefixes.  Children are taken by state (:meth:`_child`);
        the last layer's are only tested, on the children taken already or
        the entries acceptance needs (:meth:`_accepted`).  A rejected
        prefix has no accepted extension.  With ``two_sided`` the state adds the right-seeded one
        from :attr:`sink`, which is never dropped.  A layer of more than
        ``max_states`` states (pairs, two-sided) is refused as soon as it
        holds them; the layers of lengths below ``len(depths)`` are the ones
        kept."""
        n, full = self.n, self.full
        counts = [1] + [0] * len(depths)
        # (left-seeded state, right-seeded state or None) -> prefixes
        layer = {(self.source, self.sink if two_sided else None): 1}
        lmoves: dict = {}  # state -> rung -> child, () when rejected
        rmoves: dict = {}
        seen: dict = {}  # each distinct child once

        for depth, rungs in enumerate(depths, start=1):
            steps = list(zip(rungs, self.rows(rungs)))
            if depth == len(depths):
                # the accepted rungs' positions, one set per state and side
                lsets = {left: set(self._accepted(left, lmoves.get(left, {}), steps, ignite))
                         for left in {left for left, _ in layer}}
                rsets = ({right: set(self._accepted(right, rmoves.get(right, {}), steps, False))
                          for right in {right for _, right in layer}} if two_sided
                         else {None: set(range(len(steps)))})
                counts[depth] = sum(mult * len(lsets[left] & rsets[right])
                                    for (left, right), mult in layer.items())
                break
            nxt: dict = {}
            for (left, right), mult in layer.items():
                lrow, rrow = lmoves.setdefault(left, {}), rmoves.setdefault(right, {})
                for c, tbl in steps:
                    child = lrow[c] if c in lrow else self._child(lrow, seen, left, c, tbl, ignite)
                    if child:
                        key = child, (None if not two_sided else rrow[c] if c in rrow
                                      else self._child(rrow, seen, right, c, tbl))
                        nxt[key] = nxt.get(key, 0) + mult
                if len(nxt) > max_states:
                    raise FeasibilityError(f"brute count exceeded max_states={max_states} "
                                           f"transfer states at {depth} rungs")
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
    n = _length(n, "n", 0)
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
                 max_states: int = DEFAULT_MAX_STATES) -> CountSeries:
    """Exact counts of the window classes: ``L`` left-burnable, ``L0``
    left-burnable without maximal rungs, ``S`` two-sided burnable, ``S0``
    two-sided without maximal rungs, ``REC`` all recurrent.  Either
    method holds at most ``max_states`` states.

    ``method="brute"`` counts on the census engine by transfer state (the
    module docstring says why), refused as soon as the states of one
    length, (left, right) pairs for ``S``/``S0``, outnumber the cap.

    ``method="automaton"`` counts accepted words of the rung-coding
    automaton instead of enumerating; it exists for ``L`` and ``L0``
    only (no automaton is built for the symmetric or recurrent classes).
    It reads the automaton, or its restriction to non-maximal rungs, from
    the per-graph cache the measures share, refused if the automaton has
    more states than the cap.
    """
    if variant not in VARIANTS:
        raise ValidationError(f"unknown variant {variant!r}; pick from {VARIANTS}")
    n_max = _length(n_max, "n_max", 1)
    max_states = _length(max_states, "max_states", 1)
    if method == "automaton":
        if variant not in ("L", "L0"):
            raise ValidationError(
                f"variant {variant!r} has no automaton; use method='brute'")
        from .measures import _AutomatonBundle
        bundle = _AutomatonBundle.get(graph, max_states)
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
    rungs = (single_rung_recurrent(graph) if rec else
             [c for c in enum_rungs(graph) if variant in ("L", "S") or c != dfs.cmax])
    counts = dfs.count([rungs] * n_max, ignite=not rec,
                       two_sided=variant in ("S", "S0"), max_states=max_states)
    return CountSeries(variant=variant, values=tuple(counts[1:]), provenance="brute",
                       graph_name=graph.name)


def _bareiss_det(matrix: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    a = [list(row) for row in matrix]
    size, sign, pivot = len(a), 1, 1
    for k in range(size - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // pivot
        pivot = a[k][k]
    return sign * a[-1][-1] if size else 1


def recurrent_counts(graph: Graph, n_max: int) -> tuple[int, ...]:
    """The number of recurrent windows of ``n = 1..n_max`` rungs, without
    listing any.  By the matrix-tree theorem it is the determinant of the
    reduced Laplacian of ``G x [1,n]`` (Dhar 1990), which is block
    tridiagonal with the commuting blocks ``A = L_G + 2I`` and ``-I``, so
    it is ``det P_n`` for ``P_0 = I``, ``P_1 = A`` and ``P_{n+1} = A P_n -
    P_{n-1}``."""
    n_max = _length(n_max, "n_max", 1)
    a = [[laplacian_entry(graph, (x, 1), (y, 1)) for y in graph.vertices]
         for x in graph.vertices]
    prev = [[int(x == y) for y in graph.vertices] for x in graph.vertices]
    cur, counts = a, []
    for _ in range(n_max):
        counts.append(_bareiss_det(cur))
        prev, cur = cur, [[sum(a[x][z] * cur[z][y] for z in graph.vertices) - prev[x][y]
                           for y in graph.vertices] for x in graph.vertices]
    return tuple(counts)


def recurrent_growth_rate(graph: Graph) -> float:
    """``Theta(G)``, the growth rate of :func:`recurrent_counts`.  The
    determinant factors over the Laplacian eigenvalues ``l`` of the base
    graph into a product of ``U_n(1 + l/2)`` (Chebyshev polynomials of
    the second kind), each growing like
    ``(2 + l + sqrt(l**2 + 4 l)) / 2``.  The zero eigenvalue of a
    connected graph contributes only the factor ``n + 1``, so it is
    dropped rather than read off the float spectrum, where ``sqrt`` would
    blow a rounding error of 1e-17 up to 1e-8."""
    lap = np.diag(np.array(graph.degree, dtype=float))
    for u, v in graph.edges:
        lap[u, v] = lap[v, u] = -1.0
    lam = np.linalg.eigvalsh(lap)[1:]
    return float(np.prod((2 + lam + np.sqrt(lam * lam + 4 * lam)) / 2))


def renewal_identity_check(a: CountSeries, b: CountSeries, n_max: int) -> bool:
    """Exact check that the full counts decompose over the position of
    the first maximal rung: a_n = b_n + sum_{k=1..n} b_{k-1} a_{n-k}."""
    if a.variant != "L" or b.variant != "L0":
        raise ValidationError("needs the L series and the L0 series")
    n_max = _length(n_max, "n_max", 1)
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
    "recurrent_counts", "recurrent_growth_rate", "renewal_identity_check",
    "single_rung_recurrent",
]
