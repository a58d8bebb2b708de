"""Exact enumeration and counting of burnable-configuration classes.

Counts are exact integers.  One engine per graph (:class:`_SequenceDFS`)
decides every window verdict the library computes for itself, reading
each row's burn off the one-rung burn table
(:func:`~laddersand.burning.burn_table`, whose rows it burns the first
time a stable rung is read).  It runs on *transfer states*: for each
vertex set held burnt right of a prefix, its last row's burn and whether
every row burns.  Taking the burn's least fixed point one row at a time
(Bekić's lemma), later rungs meet a prefix only through that state, and
a rejected prefix has no accepted extension.

Walks, brute counts and the verdicts on single windows read one memo of
steps that the engine keeps for its life: the states it has met,
numbered, and per state the child after each table row read from it,
or a mark that the child rejects.  That is the right-resolving
presentation of the accepted prefixes (Lind and Marcus 1995, ch. 3),
grown only as far as the engine reads it, so it is bounded by the
transfer states reachable from the burnt left sink and the right-seeded
sink over the rows read.  Each step is taken whole once, and the
children at the last length a walk or count asks for are only tested,
in the entries acceptance needs.  The depth-first walk yields every
accepted prefix in rung order, over the rung symbols with ignition (a
prefix that cannot ignite its last rung is pruned) or over the
single-rung recurrent rungs without it.  One run over a window decides
recurrence and the left boundary layer of
:func:`laddersand.measures.boundary_layer`, one over the mirror the right.

Brute counts (:meth:`_SequenceDFS.count`) go one length at a time over
transfer states, so the prefixes sharing a state are counted together,
and the states stay bounded as the windows grow.  Each length may draw
its own rungs (the mixture pins an event's).  ``S``/``S0`` pair the
left-seeded state with the right-seeded one.  A count is refused as soon
as one length holds more than ``max_states`` states, the cap that bounds
the coding automaton's states too.

The coding automaton is built on the engine as well
(:meth:`_SequenceDFS.fold`): every transfer state reachable from the
left sink over the rung symbols with ignition, each layer of newly found
states stepped under every rung at once by numpy gathers into the table
rows, without the memo.  The brute counts read nothing of the automaton
and step their states one at a time (:meth:`_SequenceDFS.right_step`,
whose steps the fold's are tested against), so they stay its
independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, product
from operator import contains
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .burning import (_CHUNK_ENTRIES, RungConfig, _require_table_vertices,
                      _rung_symbols, burn_table, full_burnable, max_rung,
                      window_heights)
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
# The census engine: transfer states, and one memo of their steps
# ---------------------------------------------------------------------------

_DEAD = -1  # a memo child that was only tested and rejects


class _Fold(NamedTuple):
    """The flagless transfer states (``states[q]``, ``uint8`` rows), the
    state of each rung's child of the source (``first[c]``), and the step
    of state ``src[k]`` under rung ``rung[k]`` to state ``dst[k]``, ordered
    by source state and then rung (:meth:`_SequenceDFS.fold`)."""

    states: np.ndarray
    first: np.ndarray
    src: np.ndarray
    rung: np.ndarray
    dst: np.ndarray


class _SequenceDFS:
    """The census engine of one graph.  Walks, counts and the verdicts on
    single windows follow each prefix's transfer state (:meth:`right_step`)
    from the burnt left sink :attr:`source` or, right-seeded, from
    :attr:`sink`, through one memo of steps that lives as long as the
    engine and is made on first use.  The memo numbers the states it has
    met, ``source`` 0 and ``sink`` 1, and keeps two flags per state: it
    ignites (entry 0 is not empty) and it accepts (entry ``full`` is
    flagged).  Per state it keeps a dict from table row to the child's
    number, or to :data:`_DEAD` where the child was only tested and does
    not accept, so that no extension is accepted either.  A child that
    does not accept is numbered only where it was needed whole: a
    right-seeded count's state, or a run over a window that is not
    recurrent.  The memo is bounded by the transfer states reachable from
    the two seeds over the rows read.  The coding automaton is the
    left-seeded part found a layer at a time (:meth:`fold`), which reads
    and fills no memo."""

    _kids: Optional[list[dict]] = None  # the memo, made on first use

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

    def _memo(self) -> list[dict]:
        """The memo's child dicts, made with the two seeds on first use."""
        if self._kids is None:
            self._kids, self._ids, self._states, self._flags = [], {}, [], []
            self._id(self.source)
            self._id(self.sink)
        return self._kids

    def _id(self, state: tuple[int, ...]) -> int:
        """The number of a transfer state, given on first sight."""
        s = self._ids.get(state)
        if s is None:
            s = self._ids[state] = len(self._states)
            self._states.append(state)
            self._kids.append({})
            self._flags.append(bool(state[0] & self.full) | state[self.full] >> self.n << 1)
        return s

    def _step(self, s: int, tbl: bytes) -> int:
        """The number of state ``s``'s child after table row ``tbl``, a
        rejected one too, stepped whole (:meth:`right_step`) on first use."""
        kids = self._kids[s]
        kid = kids.get(tbl, _DEAD)
        if kid == _DEAD:
            kid = kids[tbl] = self._id(self.right_step(self._states[s], tbl))
        return kid

    def _take(self, s: int, tbls: Sequence[bytes], ignite: bool, whole: bool
              ) -> list[tuple[int, Optional[int]]]:
        """The positions ``k`` in ``tbls`` whose child of state ``s`` is
        accepted, each with the child's number.  A child accepts when it
        burns every row under a burnt right end (entry ``full``) and, with
        ``ignite``, burns with nothing there (entry 0, not empty iff its
        first round is not).  One the memo lacks is tested in those
        entries' rounds (:meth:`_entry`); with ``whole`` an accepted one is
        then stepped and a rejected one marked dead, otherwise it is kept
        nowhere and its number is None."""
        n, full = self.n, self.full
        kids, state, flags = self._kids[s], self._states[s], self._flags
        need = 3 if ignite else 2
        first, out = (state[0] & full) << n, []
        for k, tbl in enumerate(tbls):
            kid = kids.get(tbl)
            if kid is None:
                if ignite and not tbl[first]:
                    continue
                y, z = -1, 0
                while z != y:
                    y, z = z, tbl[(state[z] & full) << n | full]
                if y != full or not state[y] >> n:
                    if whole:
                        kids[tbl] = _DEAD
                    continue
                if whole:
                    kid = kids[tbl] = self._id(self.right_step(state, tbl))
                out.append((k, kid))
            elif kid != _DEAD and flags[kid] & need == need:
                out.append((k, kid))
        return out

    def _run(self, rungs: Sequence[RungConfig], tbls: Sequence[bytes], ignite: bool
             ) -> tuple[int, bool]:
        """Step a window's rows from :attr:`source` through the memo.
        Returns the index of the last maximal rung among the leading rows
        that ignite in turn, or -1, and whether the window is accepted:
        recurrent, or with ``ignite`` left-burnable, in which case the run
        stops at the first row that does not ignite (no extension is then
        left-burnable).  Once no row can change either answer the run
        stops."""
        kids, flags, cmax = self._memo(), self._flags, self.cmax
        s, last, lit = 0, -1, 1
        for k, (c, tbl) in enumerate(zip(rungs, tbls)):
            kid = kids[s].get(tbl, _DEAD)
            s = self._step(s, tbl) if kid == _DEAD else kid
            lit &= flags[s]
            if not lit:
                if ignite or not flags[s] & 2:
                    return last, False
            elif c == cmax:
                last = k
        return last, flags[s] > 1

    def accepts(self, rungs: Sequence[RungConfig], ignite: bool = True) -> bool:
        """Left-burnability (with ``ignite``) or recurrence of a nonempty
        rung sequence, in one run."""
        return self._run(rungs, self.rows(rungs), ignite)[1]

    def last_max_prefix(self, rungs: Sequence[RungConfig]) -> int:
        """The index of the last maximal rung of a recurrent window that
        ends a left-burnable prefix, or -1: the last one an ignited run
        steps (left-burnability is closed under prefixes).  A maximal rung
        that ignites burns whole, and the window's ordinary burn reaches
        the rows below it only through it and the left sink, so in that
        burn's order they all burn here too."""
        return self._run(rungs, self.rows(rungs), True)[0]

    def layers(self, rungs: Sequence[RungConfig]) -> tuple[bool, int, int]:
        """Recurrence of a nonempty rung sequence and :meth:`last_max_prefix`
        of it and of its mirror image, its table rows read once; an
        unignited run finds what an ignited one does."""
        tbls = self.rows(rungs)
        left, recurrent = self._run(rungs, tbls, False)
        return recurrent, left, self._run(rungs[::-1], tbls[::-1], True)[0]

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

    def _steps(self, flat: np.ndarray, states: np.ndarray, p: np.ndarray,
               c: np.ndarray) -> np.ndarray:
        """Row ``k`` is :meth:`right_step` of flagless state ``states[p[k]]``
        under rung ``c[k]``, whose table row starts at ``c[k] * 4**n`` in
        ``flat``, without flags.  Entry 0 settles first; every entry's
        burn holds it, so every entry starts one round past it."""
        n, size = self.n, 1 << self.n
        base = c * (size * size)
        # each entry as the set below, entry t of row k at k * size + t
        below = (states[p].astype(np.intp) << n).reshape(-1)
        rows = np.arange(0, len(p) * size, size)
        cur = flat[base + below[rows]]
        while not np.array_equal(nxt := flat[base + below[rows + cur]], cur):
            cur = nxt
        cells = base[:, None] + np.arange(size)
        cur = flat[cells + below[rows + cur][:, None]]
        rows = rows[:, None]
        while not np.array_equal(nxt := flat[cells + below[rows + cur]], cur):
            cur = nxt
        return cur

    def fold(self, rungs: Sequence[RungConfig], max_states: int) -> _Fold:
        """Every transfer state reachable from :attr:`source` over the rung
        symbols ``rungs``, a layer of newly found states at a time, each
        layer stepped under every rung at once (:meth:`_steps`).  Every
        symbol's child of the source is kept; a later child is kept when
        its rung ignites (entry 0's first round is not empty) and it burns
        every row under a burnt right end (entry ``full``).  The flag of a
        kept state's entry is then whether the entry is ``full``, so states
        are stored as ``uint8`` rows of entries without it.  The (rung,
        state) pairs are counted as they are found, and the search is
        refused as soon as there are more than ``max_states``."""
        n, size, full = self.n, 1 << self.n, self.full
        if len(rungs) > max_states:  # each rung's child of the source is a pair
            raise FeasibilityError(f"automaton exceeded max_states={max_states}")
        flat = np.frombuffer(b"".join(self.rows(rungs)), dtype=np.uint8)
        table = flat.reshape(len(rungs), size * size)
        index: dict[bytes, int] = {}
        pairs: set[int] = set()  # state id * len(rungs) + rung

        def intern(kids: np.ndarray, cs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """Ids of the states, numbered on first sight, and the states seen
            for the first time; they are reached under ``cs``."""
            buf = kids.tobytes()
            ids, fresh = [], []
            for row, at in enumerate(range(0, len(buf), size)):
                key = buf[at:at + size]
                if key not in index:
                    index[key] = len(index)
                    fresh.append(row)
                ids.append(index[key])
            ids = np.array(ids, dtype=np.intp)
            pairs.update((ids * len(rungs) + cs).tolist())
            if len(pairs) > max_states:
                raise FeasibilityError(f"automaton exceeded max_states={max_states}")
            return ids, kids[fresh]

        every = np.arange(len(rungs))
        source = np.full((1, size), full, dtype=np.uint8)
        first, layer = intern(self._steps(flat, source, every * 0, every), every)
        layers, src, rung, dst = [layer], [], [], []
        offset = 0
        chunk = max(1, _CHUNK_ENTRIES // size)
        while len(layer):
            pick, cs = np.nonzero(table[:, layer[:, 0].astype(np.intp) << n].T)
            fresh = []
            for lo in range(0, len(pick), chunk):
                p, c = pick[lo:lo + chunk], cs[lo:lo + chunk]
                kids = self._steps(flat, layer, p, c)
                ok = kids[:, full] == full
                ids, new = intern(kids[ok], c[ok])
                src.append(p[ok] + offset)
                rung.append(c[ok])
                dst.append(ids)
                fresh.append(new)
            offset += len(layer)
            layer = np.concatenate(fresh) if fresh else layer[:0]
            layers.append(layer)
        empty = np.zeros(0, dtype=np.intp)
        return _Fold(np.concatenate(layers), first, np.concatenate(src or [empty]),
                     np.concatenate(rung or [empty]), np.concatenate(dst or [empty]))

    def walk(self, rungs: Sequence[RungConfig], n_max: int, ignite: bool
             ) -> Iterator[list[RungConfig]]:
        """Every burnable sequence of at most ``n_max`` of the given
        rungs, the empty one first, depth first in their order, as the
        walk's own path (copy what you keep).  A node's accepted children
        are read off the memo (:meth:`_take`), and those of ``n_max`` rungs
        are only tested.  With ``ignite`` the sequences are left-burnable,
        otherwise recurrent; either way a prefix that is not burnable has
        no burnable extension."""
        tbls = self.rows(rungs)
        self._memo()
        path: list[RungConfig] = []
        yield path
        stack = [iter(self._take(0, tbls, ignite, n_max > 1))] if n_max else []
        while stack:
            for k, kid in stack[-1]:
                path.append(rungs[k])
                yield path
                if len(path) < n_max:
                    stack.append(iter(self._take(kid, tbls, ignite, len(path) + 1 < n_max)))
                    break
                path.pop()
            else:
                stack.pop()
                if path:
                    path.pop()

    def count(self, depths: Sequence[Sequence[RungConfig]], ignite: bool,
              two_sided: bool = False, max_states: int = DEFAULT_MAX_STATES
              ) -> list[int]:
        """The number of burnable sequences of each length ``0..len(depths)``
        whose ``k``-th rung is one of ``depths[k - 1]``, counted one length
        at a time by transfer state, all that later rungs see of a prefix:
        a layer maps each state to its number of accepted prefixes.  The
        states' children are read off the memo (:meth:`_take`), and those
        of the last length are only tested.  A rejected prefix has no
        accepted extension.  With ``two_sided`` the state adds the
        right-seeded one from :attr:`sink`, stepped whole and never dropped
        (:meth:`_step`).  A layer of more than ``max_states`` states (pairs,
        two-sided) is refused as soon as it holds them; the layers of
        lengths below ``len(depths)`` are the ones kept."""
        self._memo()
        flags = self._flags
        counts = [1] + [0] * len(depths)
        # (left-seeded state, right-seeded state or None) -> prefixes
        layer = {(0, 1 if two_sided else None): 1}
        for depth, rungs in enumerate(depths, start=1):
            tbls = self.rows(rungs)
            if depth == len(depths):
                # the accepted rungs' positions as the bits of one int per
                # state and side
                lbits = {left: sum(1 << k for k, _ in self._take(left, tbls, ignite, False))
                         for left in {left for left, _ in layer}}
                rbits = ({right: sum(1 << k for k, _ in self._take(right, tbls, False, False))
                          for right in {right for _, right in layer}} if two_sided
                         else {None: (1 << len(tbls)) - 1})
                counts[depth] = sum(mult * (lbits[left] & rbits[right]).bit_count()
                                    for (left, right), mult in layer.items())
                break
            nxt: dict = {}
            for (left, right), mult in layer.items():
                for k, kid in self._take(left, tbls, ignite, True):
                    key = kid, None if right is None else self._step(right, tbls[k])
                    nxt[key] = nxt.get(key, 0) + mult
                if len(nxt) > max_states:
                    raise FeasibilityError(f"brute count exceeded max_states={max_states} "
                                           f"transfer states at {depth} rungs")
            layer = nxt
            counts[depth] = sum(mult for (_, right), mult in layer.items()
                                if right is None or flags[right] > 1)
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
