"""The rung-coding automaton and its maximal-entropy Markov chain.

Left-burnable configurations are coded rung by rung.  The state carried
across a rung boundary is the triple (rung heights, burnt set at the
phase boundary, influence map), which is exactly the information the
burning process needs about everything to its left.  States are closed
under the one-rung advance; reading a rung from a state either yields a
unique successor or is impossible, so the word coding a configuration
is determined by its rungs and the correspondence is one-to-one.

The construction runs on integer tables.  One table holds the one-rung
burn for every rung and every pair of burnt sets declared on its left
and right, the right-hand set counting once the burn reaches it
(:func:`rung_burn_table`, read from the two-sided table
:func:`~laddersand.burning.burn_table` that the census walks share;
:func:`~laddersand.burning.rung_burn` is its reference).  A state's
burnt set is its influence map's value at the empty set, and its
successors depend on the map alone, so the closure is taken over maps,
one layer of newly found maps at a time: each layer is advanced under
every rung at once, both alternation fixed points becoming gathers into
the table repeated until they settle.  The states, (rung, map) pairs,
are then numbered in breadth-first order from the first-rung states,
reading successors in alphabet order (:func:`build_coding`).

The transition matrix is transitive, its Perron data give the per-rung
growth rate, and the maximal-entropy chain scaled out of them is what
the measure samplers draw from, all read off the list of transitions.

Word counts run on two lumpings of the automaton rather than on its
states, both computed on its row classes: a state's successors depend
on its influence map alone, so many states share one successor row
(the 745 states of cycle4 have 127 distinct rows), and the states
grouped by row are the row classes.  The suffix lumping is the coarsest
partition in which all members of a block have the same multiset of
successor blocks; the number of words of a given length starting at a
state then depends only on the state's block, and one step of the count
is a sum over that multiset (Kemeny and Snell, *Finite Markov Chains*,
1960, 6.3).  States of one class always share a block, so it is taken
on the classes and lifted to the states.  The prefix lumping is the
same construction on the classes' predecessors, a class ``k'`` counted
once for each state of class ``k`` in its row, seeded with each class's
number of start states: the number of words of a given length ending
in a state of a class then depends only on the class's block, and the
words ending at one state are those of the classes whose row holds it,
read through the state's (block, count) pairs.  Both counts are exact
integers, equal to the per-state sweeps they replace; on cycle4 the
suffix lumping has 22 blocks of states and the prefix lumping 22 blocks
of classes.  The quotients carry the Perron data too: the suffix
quotient's Perron value and eigenvector, read on each state's block,
are those of the transition matrix, and the prefix quotient's, summed
over the classes whose row holds a state, give its left eigenvector
(:func:`spectral`).
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import accumulate, islice
from operator import or_
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .burning import _CHUNK_ENTRIES, InfluenceMap, RungConfig, burn_table
from .census import enum_rungs
from .errors import (FeasibilityError, InternalInvariantError,
                     ValidationError)
from .graphs import DEFAULT_MAX_STATES, Graph, _length, mask_to_vertices


@dataclass(frozen=True)
class CodeSymbol:
    """One automaton state: the rung heights, the vertex set burnt when
    the next rung is first entered, and the influence map recording how
    burnt sets declared on the next rung feed back through this one."""

    rung: RungConfig
    burnt: int
    influence: InfluenceMap

    def key(self) -> tuple:
        return (self.rung, self.burnt, self.influence)

    def to_json(self) -> dict:
        return {
            "rung": list(self.rung),
            "burnt": list(mask_to_vertices(self.burnt)),
            "influence": [list(mask_to_vertices(v)) for v in self.influence],
        }


class RowClasses(NamedTuple):
    """The automaton's states grouped by their successor rows: ``of[i]``
    is state ``i``'s class, numbered in order of first member, and
    ``rows[k]`` the successor states of every member of class ``k``."""

    of: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]


class PrefixPairs(NamedTuple):
    """The states grouped by how their prefix counts read off the prefix
    lumping: the members of group ``g`` (the states ``j`` with
    ``group[j] == g``) are start states if ``start[g]`` and none
    otherwise, and the row classes whose row holds one of them fall into
    the prefix blocks ``b`` with the multiplicities ``count`` of the
    pairs ``pairs[g]``."""

    group: tuple[int, ...]
    start: tuple[int, ...]
    pairs: tuple[tuple[tuple[int, int], ...], ...]

    def step(self, vec: list) -> list:
        """Per group, the sum of a per-prefix-block vector over the row
        classes whose row holds a member."""
        return [sum(count * vec[b] for b, count in row) for row in self.pairs]

    def lift(self, counts: list[list[int]]) -> list[list[int]]:
        """``[l][g]``: accepted words of length ``l + 1`` ending at a
        state of group ``g``, for ``l < len(counts)``, from the prefix
        lumping's :meth:`CodingAutomaton.prefix_counts`."""
        return [list(self.start)] + [self.step(vec) for vec in counts[:-1]]


class Lumping(NamedTuple):
    """A partition of the automaton's states, or of its row classes, into
    blocks: ``block[i]`` is member ``i``'s block, ``adj[b]`` the
    ``(neighbour block, count)`` pairs shared by every member of block
    ``b``."""

    block: tuple[int, ...]
    adj: tuple[tuple[tuple[int, int], ...], ...]

    def sweep(self, vec: list[int], steps: int) -> list[list[int]]:
        """The per-block vector after 0, 1, ..., ``steps`` steps of
        summing each block's neighbours."""
        out = [vec]
        for _ in range(steps):
            vec = [sum(count * vec[b] for b, count in row) for row in self.adj]
            out.append(vec)
        return out


def _lump(adj: Sequence[Sequence[int]], init: Sequence[int]) -> Lumping:
    """Coarsest refinement of the partition ``init`` in which all members
    of a block have the same multiset of neighbour blocks under ``adj``
    (Moore's partition refinement); blocks are numbered in order of
    their first member."""
    block = list(init)
    count = len(set(block))
    while True:
        names: dict[tuple, int] = {}
        block = [names.setdefault((block[i], tuple(sorted(block[j] for j in row))),
                                  len(names))
                 for i, row in enumerate(adj)]
        if len(names) == count:
            break
        count = len(names)
    first: dict[int, int] = {}
    for i, b in enumerate(block):
        first.setdefault(b, i)
    pairs = tuple(tuple(sorted(Counter(block[j] for j in adj[i]).items()))
                  for i in first.values())
    return Lumping(tuple(block), pairs)


@dataclass
class CodingAutomaton:
    """Deterministic presentation of the left-burnable rung sequences."""

    graph: Graph
    alphabet: tuple[RungConfig, ...]
    states: tuple[CodeSymbol, ...]
    inclusion: dict[RungConfig, int]
    delta: tuple[dict[RungConfig, int], ...]
    targets: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self):
        self.targets = tuple(tuple(sorted(d.values())) for d in self.delta)

    def __len__(self) -> int:
        return len(self.states)

    @cached_property
    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """The transitions as arrays of sources and targets, in row order."""
        rows = np.repeat(np.arange(len(self.states)),
                         [len(row) for row in self.targets])
        cols = np.array([j for row in self.targets for j in row], dtype=np.intp)
        return rows, cols

    def matrix(self) -> np.ndarray:
        """The dense 0/1 transition matrix, a reference for tests."""
        t = np.zeros((len(self.states),) * 2, dtype=np.int64)
        t[self.edges] = 1
        return t

    def start_states(self) -> tuple[int, ...]:
        return tuple(sorted(self.inclusion.values()))

    @cached_property
    def row_classes(self) -> RowClasses:
        """The states grouped by identical successor rows."""
        index: dict[tuple[int, ...], int] = {}
        of = tuple(index.setdefault(row, len(index)) for row in self.targets)
        return RowClasses(of, tuple(index))

    @cached_property
    def class_predecessors(self) -> tuple[tuple[int, ...], ...]:
        """``[k]`` lists row class ``k'`` once for each state of class
        ``k`` in the row of ``k'``."""
        of, rows = self.row_classes
        preds: list[list[int]] = [[] for _ in rows]
        for k, row in enumerate(rows):
            for j in row:
                preds[of[j]].append(k)
        return tuple(map(tuple, preds))

    @cached_property
    def suffix_lumping(self) -> Lumping:
        """States lumped by their successor blocks.  Members of one row
        class always share a block, so the classes are lumped and the
        partition lifted to the states, numbered as on the states."""
        of, rows = self.row_classes
        lump = _lump([[of[j] for j in row] for row in rows], [0] * len(rows))
        return Lumping(tuple(lump.block[k] for k in of), lump.adj)

    def _class_starts(self) -> list[int]:
        """The number of start states in each row class."""
        starts = [0] * len(self.row_classes.rows)
        for i in self.start_states():
            starts[self.row_classes.of[i]] += 1
        return starts

    @cached_property
    def prefix_lumping(self) -> Lumping:
        """Row classes lumped by their predecessor classes, with
        multiplicity, seeded with their numbers of start states."""
        return _lump(self.class_predecessors, self._class_starts())

    @cached_property
    def prefix_pairs(self) -> PrefixPairs:
        """The states grouped by their start flag and by the ``(prefix
        block, count)`` pairs of the row classes whose row holds them."""
        blocks: list[list[int]] = [[] for _ in self.states]
        for b, row in zip(self.prefix_lumping.block, self.row_classes.rows):
            for j in row:
                blocks[j].append(b)
        starts = set(self.start_states())
        index: dict[tuple, int] = {}
        group = tuple(index.setdefault((i in starts, tuple(sorted(bs))), len(index))
                      for i, bs in enumerate(blocks))
        return PrefixPairs(group, tuple(int(start) for start, _ in index),
                           tuple(tuple(sorted(Counter(bs).items())) for _, bs in index))

    def suffix_counts(self, n: int) -> list[list[int]]:
        """``[l][b]``: words of length ``l + 1`` starting at a state of
        suffix block ``b``, for ``l < n``."""
        lump = self.suffix_lumping
        return lump.sweep([1] * len(lump.adj), n - 1)

    def prefix_counts(self, n: int) -> list[list[int]]:
        """``[l][b]``: accepted words of length ``l + 1`` ending at any
        state of one row class of prefix block ``b``, for ``l < n``."""
        lump = self.prefix_lumping
        vec = [0] * len(lump.adj)
        for b, count in zip(lump.block, self._class_starts()):
            vec[b] = count
        return lump.sweep(vec, n - 1)

    def word_counts(self, n_max: int) -> list[int]:
        """Exact numbers of accepted words of lengths ``1..n_max``
        (equivalently, of left-burnable rung sequences), in one sweep."""
        if n_max < 1:
            raise ValidationError("word length must be >= 1")
        starts = Counter(self.suffix_lumping.block[i] for i in self.start_states())
        return [sum(k * vec[b] for b, k in starts.items())
                for vec in self.suffix_counts(n_max)]

    def count_words(self, n: int) -> int:
        """Exact number of accepted words of length ``n``."""
        return self.word_counts(n)[-1]

    def to_json(self) -> dict:
        return {
            "graph": self.graph.to_json(),
            "alphabet": [list(c) for c in self.alphabet],
            "states": [s.to_json() for s in self.states],
            "inclusion": {",".join(map(str, c)): i for c, i in self.inclusion.items()},
            "matrix": [list(row) for row in self.targets],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=1)


def rung_burn_table(graph: Graph, alphabet: Sequence[RungConfig]) -> np.ndarray:
    """``table[c, left << n | right]`` is ``rung_burn(graph, left,
    alphabet[c], right)``, for every rung and pair of declared burnt sets
    at once, read from :func:`~laddersand.burning.burn_table`.

    The right-hand copies count only once the burn touches them: the
    burn with ``left`` alone stands where it misses ``right``, and where
    it touches ``right`` the burn goes on to the one with both sides.
    """
    size = 1 << graph.n
    both = burn_table(graph, alphabet).reshape(len(alphabet), size, size)
    alone = both[:, :, :1]
    right = np.arange(size, dtype=np.uint8)
    return np.where(alone & right, both, alone).reshape(len(alphabet), size * size)


def _settle(step: Callable[[np.ndarray], np.ndarray], start: np.ndarray,
            rounds: int, what: str) -> np.ndarray:
    """Iterate ``step`` from ``start`` until no entry moves; the entries
    are independent, so each reaches the fixed point it would alone."""
    cur = start
    for _ in range(rounds):
        nxt = step(cur)
        if np.array_equal(nxt, cur):
            return cur
        cur = nxt
    raise InternalInvariantError(f"{what} alternation failed to settle")


def _advance(flat: np.ndarray, n: int, maps: np.ndarray,
             rungs: np.ndarray) -> np.ndarray:
    """Row ``i`` of the result is the influence map that
    :func:`~laddersand.burning.advance_rung_state` gives for map
    ``maps[i]`` and rung ``rungs[i]``, read from the flattened one-rung
    burn table."""
    size = 1 << n
    rows = np.arange(len(maps))
    base = rungs * (size * size)
    left = maps.astype(np.intp) << n  # each value as a set declared on the left
    # the burnt set, starting from the map's value at the empty set
    burnt = _settle(lambda a: flat[base + left[rows, a]], flat[base + left[:, 0]],
                    size + 2, "burnt-set")
    cells = base[:, None] + np.arange(size)
    return _settle(
        lambda b: flat[cells + np.take_along_axis(left, b.astype(np.intp), 1)],
        flat[cells + left[rows, burnt][:, None]], size + 2, "influence")


class _Maps(NamedTuple):
    """The distinct influence maps (``maps[q]``), the map of each rung's
    first-rung state (``first[c]``), and the advance of map ``src[k]``
    under rung ``rung[k]`` to map ``dst[k]``, ordered by source map and
    then rung."""

    maps: np.ndarray
    first: np.ndarray
    src: np.ndarray
    rung: np.ndarray
    dst: np.ndarray


def _discover(graph: Graph, alphabet: Sequence[RungConfig], table: np.ndarray,
              max_states: int) -> _Maps:
    """Every influence map reachable from a first rung, one layer of new
    maps at a time, each layer advanced under every rung at once.

    A state's burnt set is its map's value at the empty set and its
    successors depend on the map alone, not on its rung, so the closure
    runs on maps.  The states are the (rung, map) pairs that start a
    window or that an advance reaches; they are counted as they are
    found, and the search stops as soon as there are more than
    ``max_states``.
    """
    n = graph.n
    size = 1 << n
    full = size - 1
    flat = table.reshape(-1)
    maxmask = np.array([sum(1 << x for x in range(n) if c[x] == graph.max_height[x])
                        for c in alphabet])
    index: dict[bytes, int] = {}
    states: set[int] = set()  # map id * len(alphabet) + rung

    def intern(maps: np.ndarray, rungs: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
        """Ids of the maps, numbered on first sight, and the maps seen for
        the first time; the maps are reached under ``rungs``."""
        buf = maps.tobytes()  # one byte per entry
        ids, fresh = [], []
        for row, at in enumerate(range(0, len(buf), size)):
            key = buf[at:at + size]
            if key not in index:
                index[key] = len(index)
                fresh.append(row)
            ids.append(index[key])
        ids = np.array(ids, dtype=np.int64)
        states.update((ids * len(alphabet) + rungs).tolist())
        if len(states) > max_states:
            raise FeasibilityError(f"automaton exceeded max_states={max_states}")
        return ids, maps[fresh]

    first, layer = intern(table[:, (full << n) + np.arange(size)],
                          np.arange(len(alphabet)))
    layers = [layer]
    src, rung, dst = [], [], []
    offset = 0
    chunk = max(1, _CHUNK_ENTRIES // size)
    while len(layer):
        # burning enters rung c only where the burnt set meets its maximal
        # vertices
        pick, cs = np.nonzero(layer[:, :1] & maxmask)
        fresh = []
        for lo in range(0, len(pick), chunk):
            p, c = pick[lo:lo + chunk], cs[lo:lo + chunk]
            infl = _advance(flat, n, layer[p], c)
            # the extended window must still finish burning
            ok = infl[:, full] == full
            ids, new = intern(infl[ok], c[ok])
            src.append(p[ok] + offset)
            rung.append(c[ok])
            dst.append(ids)
            fresh.append(new)
        offset += len(layer)
        layer = np.concatenate(fresh) if fresh else layer[:0]
        layers.append(layer)
    empty = np.zeros(0, dtype=np.int64)
    return _Maps(np.concatenate(layers), first, np.concatenate(src or [empty]),
                 np.concatenate(rung or [empty]), np.concatenate(dst or [empty]))


def build_coding(graph: Graph, *, max_states: int = DEFAULT_MAX_STATES
                 ) -> CodingAutomaton:
    """Closure of the one-rung advance from the states a window's first
    rung can take, numbered breadth first.

    A successor exists for a rung exactly when the burning can enter it
    (the burnt set below touches one of its maximal-height vertices) and
    the advanced influence map still maps the full vertex set to itself;
    states failing that cannot occur in any burnable sequence.  The
    advances are read from the one-rung burn table (:func:`_discover`);
    a state is a (rung, map) pair, numbered in the order of a breadth
    first search that reads successors in alphabet order.  ``max_states``
    refuses exactly the automata with more states, as soon as the rung
    count or the states found so far exceed it.
    """
    max_states = _length(max_states, "max_states", 1)
    alphabet = enum_rungs(graph).rungs
    nrungs = len(alphabet)
    if nrungs > max_states:  # each rung starts a state of its own
        raise FeasibilityError(f"automaton exceeded max_states={max_states}")
    found = _discover(graph, alphabet, rung_burn_table(graph, alphabet), max_states)

    # a state is the key map * nrungs + rung, numbered breadth first from
    # the start states in order of first sight among the successors
    queue = (found.first * nrungs + np.arange(nrungs)).tolist()
    number = dict(zip(queue, range(nrungs)))
    targets = (found.dst * nrungs + found.rung).tolist()
    bounds = np.searchsorted(found.src, np.arange(len(found.maps) + 1)).tolist()
    for key in queue:
        q = key // nrungs
        for k in targets[bounds[q]:bounds[q + 1]]:
            if k not in number:
                number[k] = len(queue)
                queue.append(k)
    influence = [tuple(row) for row in found.maps.tolist()]
    succ_rungs = [alphabet[c] for c in found.rung.tolist()]
    succ_numbers = [number[k] for k in targets]
    states, delta = [], []
    for key in queue:
        q = key // nrungs
        states.append(CodeSymbol(alphabet[key % nrungs], influence[q][0], influence[q]))
        delta.append(dict(zip(succ_rungs[bounds[q]:bounds[q + 1]],
                              succ_numbers[bounds[q]:bounds[q + 1]])))
    return CodingAutomaton(
        graph=graph,
        alphabet=alphabet,
        states=tuple(states),
        inclusion={c: i for i, c in enumerate(alphabet)},
        delta=tuple(delta),
    )


def encode(automaton: CodingAutomaton, rungs: Sequence[RungConfig]
           ) -> Optional[list[int]]:
    """The state word coding a rung sequence, or None when the sequence
    is not left-burnable.  Projecting the word back onto rungs recovers
    the input exactly."""
    seq = [tuple(r) for r in rungs]
    if not seq:
        raise ValidationError("need at least one rung")
    for r in seq:
        if r not in automaton.inclusion and r not in automaton.alphabet:
            raise ValidationError(f"rung {r} is not a valid rung symbol")
    state = automaton.inclusion.get(seq[0])
    if state is None:  # pragma: no cover - every alphabet rung starts a word
        return None
    word = [state]
    for r in seq[1:]:
        state = automaton.delta[state].get(r)
        if state is None:
            return None
        word.append(state)
    return word


def decode(automaton: CodingAutomaton, word: Sequence[int]
           ) -> tuple[RungConfig, ...]:
    """Coordinatewise projection of a state word onto rung heights; a
    state index that is not an integer in ``0..len(automaton) - 1`` is
    refused."""
    word = [_length(i, "state", 0) for i in word]
    if word and max(word) >= len(automaton):
        raise ValidationError(f"state {max(word)} is outside 0..{len(automaton) - 1}")
    return tuple(automaton.states[i].rung for i in word)


def _levels(adj: Sequence[Sequence[int]], seeds: Sequence[int] = (0,)) -> list[int]:
    """Breadth-first distances from ``seeds`` under ``adj``, -1 where unreached."""
    level = [-1] * len(adj)
    for s in seeds:
        level[s] = 0
    order = list(seeds)
    for u in order:
        for v in adj[u]:
            if level[v] < 0:
                level[v] = level[u] + 1
                order.append(v)
    return level


def _irreducible_levels(automaton: CodingAutomaton) -> Optional[list[int]]:
    """Breadth-first levels from state 0 if every state is reached from
    state 0 and reaches it back (the automaton is irreducible), else None.

    The search back to state 0 runs over the row classes: a state other
    than 0 reaches it exactly when a state of its row does, which
    depends on its class alone, so it starts from the classes whose row
    holds state 0."""
    level = _levels(automaton.targets)
    of, class_rows = automaton.row_classes
    back = _levels(automaton.class_predecessors,
                   [k for k, row in enumerate(class_rows) if 0 in row])
    if min(level) < 0 or min((back[k] for k in of[1:]), default=0) < 0:
        return None
    return level


def check_transitive(automaton: CodingAutomaton
                     ) -> tuple[bool, Optional[int]]:
    """Strong connectivity plus the smallest power of the transition
    matrix with all entries positive (None if reducible or periodic).

    The period is the gcd of ``level[i] + 1 - level[j]`` over the edges
    ``i -> j``, with breadth-first levels from state 0.  At period 1 the
    powers run as bitset rows, row ``p`` of state ``i`` holding the
    states that walks of length ``p`` from ``i`` reach, until every row
    is full, which a primitive matrix reaches."""
    level = _irreducible_levels(automaton)
    if level is None:
        return False, None
    rows, cols = automaton.edges
    level = np.array(level)
    if np.gcd.reduce(level[rows] + 1 - level[cols]) != 1:
        return True, None
    full = (1 << len(automaton)) - 1
    reach = [sum(1 << j for j in row) for row in automaton.targets]
    power = 1
    while reach.count(full) < len(reach):
        reach = [reduce(or_, map(reach.__getitem__, row)) for row in automaton.targets]
        power += 1
    return True, power


@dataclass(frozen=True)
class SpectralData:
    """Perron data of the transition matrix; ``iterations`` reads 0.

    ``strictly_positive`` says that the automaton is irreducible, which
    makes both Perron vectors strictly positive.  It is not read off the
    vectors: on wider graphs some of their entries are genuinely as small
    as 1e-22."""

    rho: float
    right: np.ndarray
    left: np.ndarray
    residual_right: float
    residual_left: float
    iterations: int
    strictly_positive: bool

    @property
    def entropy(self) -> float:
        return math.log(self.rho)

    def require_positive(self) -> "SpectralData":
        """These data, if the maximal-entropy chain scales out of them."""
        if not self.strictly_positive:
            raise ValidationError(
                "maximal-entropy chain needs strictly positive Perron vectors "
                "(is the automaton transitive?)")
        return self


def _quotient(lump: Lumping) -> np.ndarray:
    """The lumping's quotient matrix: ``[b, c]`` counts the neighbours in
    block ``c`` of each member of block ``b``."""
    q = np.zeros((len(lump.adj),) * 2)
    for b, row in enumerate(lump.adj):
        for c, count in row:
            q[b, c] = count
    return q


def _perron(a: np.ndarray) -> tuple[float, np.ndarray]:
    """The largest eigenvalue of the non-negative matrix ``a`` and its
    eigenvector."""
    values, vectors = np.linalg.eig(a)
    top = int(np.argmax(values.real))
    return float(values[top].real), vectors[:, top].real


def spectral(automaton: CodingAutomaton) -> SpectralData:
    """Perron value and right vector from the suffix lumping's quotient,
    left vector from the prefix lumping's, each normalised to sum 1 and
    certified by the residual of one sparse product over the transitions.

    The prefix quotient's eigenvector weighs each row class with the sum
    of the left vector over its states, and a state's left entry is, up
    to the factor ``rho``, the sum of those weights over the classes
    whose row holds it: one step of its prefix group's pairs."""
    rho, vec = _perron(_quotient(automaton.suffix_lumping))
    right = vec[list(automaton.suffix_lumping.block)]
    right = right / right.sum()
    _, vec = _perron(_quotient(automaton.prefix_lumping))
    pairs = automaton.prefix_pairs
    left = np.array(pairs.step(vec.tolist()))[list(pairs.group)]
    left /= left.sum()
    rows, cols = automaton.edges
    res_r = np.abs(np.bincount(rows, right[cols], len(right)) - rho * right).max()
    res_l = np.abs(np.bincount(cols, left[rows], len(left)) - rho * left).max()
    return SpectralData(rho=rho, right=right, left=left,
                        residual_right=float(res_r), residual_left=float(res_l),
                        iterations=0,
                        strictly_positive=_irreducible_levels(automaton) is not None)


def restrict(automaton: CodingAutomaton,
             keep: Callable[[RungConfig], bool]) -> CodingAutomaton:
    """Subautomaton over the states whose rung satisfies the predicate."""
    kept = [i for i, s in enumerate(automaton.states) if keep(s.rung)]
    if not kept:
        raise ValidationError("restriction keeps no states")
    remap = {old: new for new, old in enumerate(kept)}
    states = tuple(automaton.states[i] for i in kept)
    delta = tuple(
        {c: remap[j] for c, j in automaton.delta[i].items() if j in remap}
        for i in kept)
    inclusion = {c: remap[i] for c, i in automaton.inclusion.items()
                 if i in remap and keep(c)}
    alphabet = tuple(c for c in automaton.alphabet if keep(c))
    return CodingAutomaton(graph=automaton.graph, alphabet=alphabet,
                           states=states, inclusion=inclusion, delta=delta)


@dataclass(frozen=True)
class ParryChain:
    """The maximal-entropy Markov chain on the automaton (Parry 1964):
    edge ``k`` of ``automaton.edges``, from ``i`` to ``j``, is taken with
    probability ``prob[k] = right[j] / (rho right[i])``; the stationary
    law is ``left * right``, ``left . right`` being 1.  The vectors are
    lists, which the cylinder queries read fastest."""

    automaton: CodingAutomaton
    rho: float
    left: list[float]
    right: list[float]
    prob: np.ndarray
    stationary: np.ndarray

    @cached_property
    def cumulative(self) -> list[list[float]]:
        """Each state's cumulative out-edge probabilities, in target
        order; the last is 1.0, so every draw lands on an edge."""
        prob = iter(self.prob.tolist())
        return [list(accumulate(islice(prob, len(row))))[:-1] + [1.0]
                for row in self.automaton.targets]

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense transition matrix, built on first read, for tests."""
        p = np.zeros((len(self.automaton),) * 2)
        p[self.automaton.edges] = self.prob
        return p

    def entropy_rate(self) -> float:
        rows, _ = self.automaton.edges
        return float(-(self.stationary[rows] * self.prob * np.log(self.prob)).sum())


def parry_chain(automaton: CodingAutomaton,
                spec: Optional[SpectralData] = None) -> ParryChain:
    if spec is None:
        spec = spectral(automaton)
    spec.require_positive()
    left = spec.left / (spec.left @ spec.right)
    rows, cols = automaton.edges
    pi = left * spec.right
    return ParryChain(automaton=automaton, rho=spec.rho, left=left.tolist(),
                      right=spec.right.tolist(),
                      prob=spec.right[cols] / (spec.rho * spec.right[rows]),
                      stationary=pi / pi.sum())


def influence_maps_monotone(automaton: CodingAutomaton) -> bool:
    """Empirical check that every reachable influence map is monotone
    (larger declared set, larger feedback).  Reported as data; nothing
    in the construction assumes it."""
    n = automaton.graph.n
    full = automaton.graph.full_mask
    for s in automaton.states:
        f = s.influence
        for a in range(full + 1):
            fa = f[a]
            for x in range(n):
                b = a | (1 << x)
                if fa & ~f[b]:
                    return False
    return True


__all__ = [
    "CodeSymbol", "CodingAutomaton", "Lumping", "ParryChain", "SpectralData",
    "build_coding", "check_transitive", "decode", "encode",
    "influence_maps_monotone", "parry_chain", "restrict", "rung_burn_table",
    "spectral",
    "DEFAULT_MAX_STATES",
]
