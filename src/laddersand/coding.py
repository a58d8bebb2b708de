"""The rung-coding automaton and its maximal-entropy Markov chain.

Left-burnable configurations are coded rung by rung, on a
right-resolving labelled graph (Lind and Marcus, *An Introduction to
Symbolic Dynamics and Coding*, 1995, ch. 3).  A state reads one rung,
the label of every transition into it, and carries across the rung
boundary an influence map, whose entry at the empty set is the burnt
set at the phase boundary: exactly the information the burning process
needs about everything to its left.  States are closed under the
one-rung advance; reading a rung from a state either yields a unique
successor or is impossible, so the word coding a configuration is
determined by its rungs and the correspondence is one-to-one.  The
automaton keeps each state's rung and influence map in two flat fields
and its successors once (:class:`CodingAutomaton`); only this module
reads the maps, and it writes a state's JSON form from the two fields.

The construction is the census engine's
(:meth:`~laddersand.census._SequenceDFS.fold`).  The state the engine
carries across a rung boundary, the transfer state, holds, for each
vertex set ``t`` burnt beyond the rung, the rung's burn; the rung's
burnt set and influence map are read off it.  The map counts ``t`` only
once the burn touches it, so its value at ``t`` is the entry at ``t``
where the entry at the empty set meets ``t``, and the entry at the empty
set (the burnt set) elsewhere.  The engine steps each layer of newly
found transfer states under every rung at once, by gathers into the
one-rung burn table repeated until they settle.  The states, (rung,
transfer state) pairs, are then numbered in breadth-first order from
the first-rung states, reading successors in alphabet order
(:func:`build_coding`).

The transition matrix is transitive; its Perron data give the per-rung
growth rate, and the maximal-entropy chain scaled out of them is what
the measure samplers draw from, read off the row classes.

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
(:func:`spectral`).  The transitivity certificate runs on the same row
classes (:func:`check_transitive`).
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate
from operator import or_
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .burning import RungConfig
from .census import _engine, enum_rungs
from .errors import ValidationError
from .graphs import DEFAULT_MAX_STATES, Graph, _length, mask_to_vertices


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


@dataclass(eq=False)
class CodingAutomaton:
    """Deterministic presentation of the left-burnable rung sequences.

    - ``graph`` is the base graph and ``alphabet`` its rung symbols.
    - ``rungs[i]`` is the rung state ``i`` reads, the label of every
      transition into it.
    - ``influence[i]`` is state ``i``'s influence map, a ``uint8`` row
      indexed by vertex-set mask: how burnt sets declared on the next
      rung feed back through this one.  Its entry at the empty set
      (column 0) is the burnt set when the next rung is first entered.
    - ``inclusion[c]`` is the state a word with first rung ``c`` starts at.
    - ``targets[i]`` are state ``i``'s successors, sorted.  Since each
      reads its own rung they are its transitions too: ``delta[i]``
      maps each successor's rung to the successor."""

    graph: Graph
    alphabet: tuple[RungConfig, ...]
    rungs: tuple[RungConfig, ...]
    influence: np.ndarray
    inclusion: dict[RungConfig, int]
    targets: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.rungs)

    @cached_property
    def delta(self) -> tuple[dict[RungConfig, int], ...]:
        """Per state, the successor reading each rung."""
        rungs = self.rungs
        return tuple({rungs[j]: j for j in row} for row in self.targets)

    @cached_property
    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """The transitions as arrays of sources and targets, in row order."""
        rows = np.repeat(np.arange(len(self)),
                         [len(row) for row in self.targets])
        cols = np.array([j for row in self.targets for j in row], dtype=np.intp)
        return rows, cols

    def matrix(self) -> np.ndarray:
        """The dense 0/1 transition matrix, a reference for tests."""
        t = np.zeros((len(self),) * 2, dtype=np.int64)
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
        blocks: list[list[int]] = [[] for _ in self.rungs]
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
        sets = [list(mask_to_vertices(m)) for m in range(1 << self.graph.n)]
        return {
            "graph": self.graph.to_json(),
            "alphabet": [list(c) for c in self.alphabet],
            "states": [{"rung": list(c), "burnt": sets[f[0]],
                        "influence": [sets[v] for v in f]}
                       for c, f in zip(self.rungs, self.influence.tolist())],
            "inclusion": {",".join(map(str, c)): i for c, i in self.inclusion.items()},
            "matrix": [list(row) for row in self.targets],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=1)


def build_coding(graph: Graph, *, max_states: int = DEFAULT_MAX_STATES
                 ) -> CodingAutomaton:
    """Closure of the one-rung advance from the states a window's first
    rung can take, numbered breadth first.

    A successor exists for a rung exactly when the burning can enter it
    (the burnt set below touches one of its maximal-height vertices) and
    the advanced influence map still maps the full vertex set to itself;
    states failing that cannot occur in any burnable sequence.  The
    advances are the census engine's transfer-state steps
    (:meth:`~laddersand.census._SequenceDFS.fold`); a state is a (rung,
    transfer state) pair, numbered in the order of a breadth first search
    that reads successors in alphabet order.  Its rung is the pair's, and
    its influence map, burnt set included, is read off the pair's
    transfer state.  ``max_states`` refuses exactly the automata with
    more states, as soon as the rung count or the states found so far
    exceed it.
    """
    max_states = _length(max_states, "max_states", 1)
    alphabet = enum_rungs(graph).rungs
    nrungs = len(alphabet)
    found = _engine(graph).fold(alphabet, max_states)

    # a state is the key transfer state * nrungs + rung, numbered breadth
    # first from the start states in order of first sight among the
    # successors
    queue = (found.first * nrungs + np.arange(nrungs)).tolist()
    number = dict(zip(queue, range(nrungs)))
    succ = (found.dst * nrungs + found.rung).tolist()
    bounds = np.searchsorted(found.src, np.arange(len(found.states) + 1)).tolist()
    for key in queue:
        q = key // nrungs
        for k in succ[bounds[q]:bounds[q + 1]]:
            if k not in number:
                number[k] = len(queue)
                queue.append(k)
    succ = [number[k] for k in succ]
    qs, cs = np.divmod(np.array(queue), nrungs)
    # the right set counts once the burn with nothing there touches it
    burnt = found.states[:, :1]
    touched = burnt & np.arange(1 << graph.n, dtype=np.uint8)
    influence = np.where(touched, found.states, burnt)
    return CodingAutomaton(
        graph=graph,
        alphabet=alphabet,
        rungs=tuple(alphabet[c] for c in cs.tolist()),
        influence=influence[qs],
        inclusion={c: i for i, c in enumerate(alphabet)},
        targets=tuple(tuple(sorted(succ[bounds[q]:bounds[q + 1]])) for q in qs.tolist()),
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
        try:
            known = r in automaton.inclusion
        except TypeError:  # an unhashable height equals no height
            known = False
        if not known and r not in automaton.alphabet:
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
    return tuple(automaton.rungs[i] for i in word)


def _levels(adj: Sequence[Sequence[int]]) -> list[int]:
    """Breadth-first distances from node 0 under ``adj``, -1 where unreached."""
    level = [-1] * len(adj)
    level[0] = 0
    order = [0]
    for u in order:
        for v in adj[u]:
            if level[v] < 0:
                level[v] = level[u] + 1
                order.append(v)
    return level


def _irreducible_levels(automaton: CodingAutomaton) -> Optional[list[int]]:
    """Breadth-first levels of the row classes from class 0, which holds
    state 0, if the automaton is irreducible, else None.  With ``T =
    P·B`` (``P`` maps states to classes, ``B`` classes to rows), the
    states are strongly connected exactly when the class graph ``B·P``
    is and every state lies in some row, or there is only one state."""
    of, rows = automaton.row_classes
    if len(of) > 1 and len({j for row in rows for j in row}) < len(of):
        return None
    level = _levels([[of[j] for j in row] for row in rows])
    if min(level) < 0 or min(_levels(automaton.class_predecessors)) < 0:
        return None
    return level


def check_transitive(automaton: CodingAutomaton
                     ) -> tuple[bool, Optional[int]]:
    """Strong connectivity plus the smallest power of the transition
    matrix with all entries positive (None if reducible or periodic),
    both on the row classes.  ``T = P·B`` and ``B·P`` share their nonzero
    spectrum, hence their period: the gcd of ``level[k] + 1 - level[k']``
    over the class edges ``k -> k'``.  ``T^p = P·(B·P)^(p-1)·B`` is
    positive exactly when each class's row of ``(B·P)^(p-1)·B`` is full;
    those rows run as bitsets, ``reach[k]`` the states that walks of
    length ``p`` from class ``k`` reach, until all are full."""
    level = _irreducible_levels(automaton)
    if level is None:
        return False, None
    of, rows = automaton.row_classes
    if math.gcd(*[level[k] + 1 - level[of[j]]
                  for k, row in enumerate(rows) for j in row]) != 1:
        return True, None
    full = (1 << len(of)) - 1
    reach = [sum(1 << j for j in row) for row in rows]
    power = 1
    while reach.count(full) < len(reach):
        reach = [reduce(or_, [reach[of[j]] for j in row]) for row in rows]
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
    kept = [i for i, c in enumerate(automaton.rungs) if keep(c)]
    if not kept:
        raise ValidationError("restriction keeps no states")
    remap = {old: new for new, old in enumerate(kept)}
    targets = tuple(tuple(remap[j] for j in automaton.targets[i] if j in remap)
                    for i in kept)
    inclusion = {c: remap[i] for c, i in automaton.inclusion.items()
                 if i in remap and keep(c)}
    alphabet = tuple(c for c in automaton.alphabet if keep(c))
    return CodingAutomaton(graph=automaton.graph, alphabet=alphabet,
                           rungs=tuple(automaton.rungs[i] for i in kept),
                           influence=automaton.influence[kept],
                           inclusion=inclusion, targets=targets)


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
        """Per row class ``k``, the running sum of ``right`` over the
        class's successor row ``automaton.row_classes.rows[k]``.  Every
        member ``i`` of the class has that row and the same ``right[i]``,
        read off the class's suffix block, so the increment at a state
        ``j`` of the row, over the last entry, is the probability
        ``right[j] / (rho right[i])`` of the edge from ``i`` to ``j``,
        normalised to sum 1 over the row."""
        right = self.right
        return [list(accumulate([right[j] for j in row]))
                for row in self.automaton.row_classes.rows]

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
    f = automaton.influence
    sets = np.arange(f.shape[1])
    return not any((f & ~f[:, sets | 1 << x]).any() for x in range(automaton.graph.n))


__all__ = [
    "CodingAutomaton", "Lumping", "ParryChain", "SpectralData",
    "build_coding", "check_transitive", "decode", "encode",
    "influence_maps_monotone", "parry_chain", "restrict", "spectral",
    "DEFAULT_MAX_STATES",
]
