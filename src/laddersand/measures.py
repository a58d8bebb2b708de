"""Limit measures of the one-sided burning classes.

The uniform measures on left-burnable windows converge as the window
grows; maximal rungs are renewal points, so the limit is governed by a
renewal process whose step distribution comes from the counts of
windows with no maximal rung.  Cylinder probabilities under the limit
are computed three independent ways, each weighting the first and last
states of the walks through the event's rungs (the automaton is
deterministic, so each state of the first rung starts at most one):

* ``renewal``  - the renewal representation: sum over the nearest
  renewal on each side of the event window.  A walk weighs the left
  flank sum at its start times the right at its end, each flank a
  geometric series summed in closed form on a quotient of the automaton
  restricted to non-maximal rungs.  The root, the mean gap and both
  flank sums depend only on the graph; they are computed once, from the
  Perron data of the renewal quotient, and kept with the automaton;
* ``parry``    - the stationary marginal of the maximal-entropy chain
  on the coding automaton, ``u[first] v[last] / (rho**(len - 1) u.v)``;
* ``finite_dp`` - exact rational probability on a large finite window
  by integer path counting: the prefix-group count of words ending at a
  walk's start times the suffix-block count of words starting at its
  end, over the number of words of the window's length.  Both tables
  are swept once per window length and kept with the automaton, so a
  query costs the same wherever its event sits.

The right-sided measure is the reflection of the left-sided one, so all
right-sided quantities are computed by reflecting events and samples.
The boundary layers of recurrent windows are decided on the census
engine, and the mixture counts its windows by transfer state on the
same engine, never burning or listing a window.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .burning import RungConfig, max_rung
from .census import _engine, count_series, enum_rungs, single_rung_recurrent
from .coding import (CodingAutomaton, ParryChain, _perron, _quotient,
                     build_coding, parry_chain, restrict, spectral)
from .errors import FeasibilityError, ValidationError
from .graphs import DEFAULT_MAX_STATES, Graph, Window, _integer, _length, _seed
from .toppling import LadderConfig, _require_integers

DEFAULT_TAIL_TOL = 1e-9
METHODS = ("parry", "renewal", "finite_dp")


# ---------------------------------------------------------------------------
# Renewal quantities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RenewalData:
    """Root of the renewal mass and the mean of the renewal-step
    distribution it induces.

    Consecutive maximal rungs sit ``k`` apart with probability
    ``lam**k`` times the number of windows of ``k - 1`` rungs with no
    maximal rung; ``tail_bound`` is ``|mass(lam) - 1|``, the residual of
    the renewal mass at the root, taken by a solve independent of the
    eigenvector the root came with.  ``alpha`` rescales the counts so
    that the number of left-burnable windows of length ``n`` grows like
    ``alpha / lam**n``.
    """

    lam: float
    tail_bound: float
    mean_gap: float
    alpha: float

    @property
    def renewal_density(self) -> float:
        return 1.0 / self.mean_gap


class _AutomatonBundle:
    """Per-graph cache of the automaton, the states reading each rung
    and, computed on first use, the maximal-entropy chain, the
    automaton's restriction to non-maximal rungs, the renewal data with
    their flank weights, and the finite_dp window counts.  A parry or a
    renewal query is one event walk and one dot product against these.
    ``max_states`` caps the automaton whether it is built or found in
    the cache, which keeps the ``CACHE_SIZE`` most recently read
    graphs."""

    CACHE_SIZE = 8
    _cache: dict[Graph, "_AutomatonBundle"] = {}  # least recent first

    def __init__(self, graph: Graph, max_states: int):
        self.graph = graph
        self.automaton = build_coding(graph, max_states=max_states)
        self.cmax = max_rung(graph)
        # the states reading each rung, where an event's walks start
        self.rung_states: dict[RungConfig, list[int]] = {
            c: [] for c in self.automaton.alphabet}
        for i, c in enumerate(self.automaton.rungs):
            self.rung_states[c].append(i)
        self._window_counts: dict[int, tuple] = {}

    @classmethod
    def get(cls, graph: Graph, max_states: int = DEFAULT_MAX_STATES) -> "_AutomatonBundle":
        max_states = _length(max_states, "max_states", 1)
        cache = cls._cache
        bundle = cache.get(graph)
        if bundle is None:
            bundle = cache[graph] = cls(graph, max_states)
            if len(cache) > cls.CACHE_SIZE:
                del cache[next(iter(cache))]
            return bundle
        if len(bundle.automaton) > max_states:
            raise FeasibilityError(f"automaton has {len(bundle.automaton)} "
                                   f"states > max_states={max_states}")
        if next(reversed(cache.values())) is not bundle:
            cache[graph] = cache.pop(graph)  # now the most recent
        return bundle

    @cached_property
    def chain(self) -> ParryChain:
        """The maximal-entropy chain, for parry and the chain sampler."""
        return parry_chain(self.automaton, spectral(self.automaton))

    @cached_property
    def nonmax(self) -> Optional[CodingAutomaton]:
        """The automaton restricted to non-maximal rungs (None when the
        maximal rung is the only one), for renewal and the L0 census."""
        if len(self.automaton.alphabet) == 1:
            return None
        return restrict(self.automaton, lambda c: c != self.cmax)

    @cached_property
    def renewal(self) -> tuple[RenewalData, np.ndarray, np.ndarray]:
        """The renewal data (see :func:`renewal_quantities`) and, per
        state, the ``lam``-weighted sums over the flanks, runs of
        non-maximal rungs, that enter it (``enter``) and that leave it
        (``tail``).  A refused root is not kept."""
        auto, nonmax = self.automaton, self.nonmax
        size = len(auto)
        start = np.zeros(size)
        start[list(auto.start_states())] = 1.0
        if nonmax is None:  # one admissible rung only: every flank is empty
            return RenewalData(1.0, 0.0, 1.0, 1.0), start, np.ones(size)
        lump = nonmax.suffix_lumping
        q = _quotient(lump)
        c = np.bincount([lump.block[i] for i in nonmax.start_states()],
                        minlength=len(q))
        # a maximal rung, then a run of non-maximal rungs
        rho, v = _perron(np.block([[1.0, c], [np.ones((len(q), 1)), q]]))
        lam = 1.0 / rho
        suffixes = v[1:] / (lam * v[0])  # (I - lam Q)**-1 1
        mass = lam * (1.0 + lam * c @ _resolvent(q, lam, np.ones(len(q))))
        tail_bound = float(abs(mass - 1.0))
        if not tail_bound <= DEFAULT_TAIL_TOL:
            raise FeasibilityError(
                f"renewal mass misses 1 by {tail_bound:.3g} > "
                f"{DEFAULT_TAIL_TOL:.3g} at the root {lam:.17g}")
        mean_gap = float(1.0 + lam ** 2 * c @ _resolvent(q, lam, suffixes))
        data = RenewalData(lam=lam, tail_bound=tail_bound, mean_gap=mean_gap,
                           alpha=1.0 / (lam * mean_gap))
        rows, cols = auto.edges
        # the restriction keeps the non-maximal states in order
        inner = np.flatnonzero([c != self.cmax for c in auto.rungs])
        # forward: lam-weighted flank prefixes ending at a non-maximal
        # state, through the prefix groups of the restriction
        pairs = nonmax.prefix_pairs
        seed = nonmax.prefix_counts(1)[0]
        longer = pairs.step(_resolvent(_quotient(nonmax.prefix_lumping), lam, seed))
        flank = lam * np.array(pairs.start) + lam ** 2 * np.array(longer)
        acc_f = np.zeros(size)
        acc_f[inner] = flank[list(pairs.group)]
        # entering the event block: either no left flank (the block starts
        # the window) or one transition out of the flank
        enter = start + np.bincount(cols, acc_f[rows], size)
        # backward: lam-weighted flank suffixes, including the empty one,
        # through the suffix blocks of the restriction
        acc_b = np.zeros(size)
        acc_b[inner] = suffixes[list(lump.block)]
        tail = 1.0 + lam * np.bincount(rows, acc_b[cols], size)
        return data, enter, tail

    def window_counts(self, length: int
                      ) -> tuple[list[list[int]], list[list[int]], int]:
        """Prefix-group and suffix-block counts for every word length up
        to ``length``, and the number of accepted words of that length.
        Swept and lifted to the prefix groups once per window length, so
        a finite_dp query's cost does not depend on where its event sits
        in the window."""
        if length not in self._window_counts:
            auto = self.automaton
            counts = auto.prefix_counts(length)
            # each row class of prefix block b ends counts[-1][b] words
            sizes = Counter(auto.prefix_lumping.block)
            total = sum(size * counts[-1][b] for b, size in sizes.items())
            self._window_counts[length] = (auto.prefix_pairs.lift(counts),
                                           auto.suffix_counts(length), total)
        return self._window_counts[length]


def _resolvent(q: np.ndarray, z: float, vec) -> np.ndarray:
    """``(I - z q)**-1 vec``: the ``z``-weighted sum of ``vec``'s sweeps."""
    return np.linalg.solve(np.eye(len(q)) - z * q, vec)


def renewal_quantities(graph: Graph) -> RenewalData:
    """The root of the renewal mass and the mean gap between maximal
    rungs, in closed form; computed once per graph and kept with its
    automaton.

    The gaps are counted on the automaton restricted to non-maximal
    rungs: with ``Q`` its suffix lumping's quotient and ``c`` its start
    states per block, the mass is ``F(z) = z (1 + z c.(I - zQ)**-1 1)``.
    The renewal quotient ``A = [[1, c], [1, Q]]`` (a maximal rung, then
    a run of non-maximal ones) has ``det(I - zA) = det(I - zQ) (1 -
    F(z))``, so the root of ``F = 1`` is ``lam = 1/rho(A)``, and the
    Perron vector ``v`` of ``A`` gives ``(I - lam Q)**-1 1 = v[1:] /
    (lam v[0])``.  The mean gap is ``lam F'(lam) = 1 + lam**2 c.(I - lam
    Q)**-2 1``.  A root whose mass, from a solve of its own, misses 1 by
    more than ``DEFAULT_TAIL_TOL`` is refused with
    :class:`FeasibilityError`.
    """
    return _AutomatonBundle.get(graph).renewal[0]


# ---------------------------------------------------------------------------
# Cylinder events and probabilities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CylinderEvent:
    """A fixed assignment of rungs on the positions ``lo..lo+len-1``."""

    rungs: tuple[RungConfig, ...]
    lo: int = 0

    @classmethod
    def centered(cls, rungs: Sequence[Sequence[int]]) -> "CylinderEvent":
        """Place an odd-length assignment symmetrically around rung 0."""
        rungs = tuple(tuple(r) for r in rungs)
        if len(rungs) % 2 == 0:
            raise ValidationError("centered event needs odd length")
        return cls(rungs=rungs, lo=-(len(rungs) // 2))

    @classmethod
    def single(cls, rung: Sequence[int], at: int = 0) -> "CylinderEvent":
        return cls(rungs=(tuple(rung),), lo=at)

    def __post_init__(self):
        object.__setattr__(self, "rungs", tuple(tuple(r) for r in self.rungs))
        object.__setattr__(self, "lo", _integer(self.lo, "lo"))

    def __len__(self) -> int:
        return len(self.rungs)

    @property
    def hi(self) -> int:
        return self.lo + len(self.rungs) - 1

    def reflected(self) -> "CylinderEvent":
        return CylinderEvent(rungs=tuple(reversed(self.rungs)), lo=-self.hi)

    def shifted(self, by: int) -> "CylinderEvent":
        return CylinderEvent(rungs=self.rungs, lo=self.lo + by)

    def in_alphabet(self, graph: Graph) -> bool:
        alpha = enum_rungs(graph)
        return all(r in alpha for r in self.rungs)


@dataclass(frozen=True)
class CylinderProbability:
    value: float
    method: str
    valid: bool  # False when an event rung is not an admissible symbol
    detail: dict


def _event_walks(bundle: _AutomatonBundle, event: CylinderEvent
                 ) -> tuple[list[int], list[int]]:
    """The first and last states of the walks that read the event's rungs."""
    delta = bundle.automaton.delta
    first = last = bundle.rung_states[event.rungs[0]]
    for c in event.rungs[1:]:
        nxt = [delta[state].get(c) for state in last]
        first = [f for f, state in zip(first, nxt) if state is not None]
        last = [state for state in nxt if state is not None]
    return first, last


def _parry_prob(bundle: _AutomatonBundle, event: CylinderEvent) -> float:
    chain = bundle.chain
    left, right = chain.left, chain.right
    first, last = _event_walks(bundle, event)
    return (sum(left[f] * right[s] for f, s in zip(first, last))
            / chain.rho ** (len(event) - 1))


def _renewal_prob(bundle: _AutomatonBundle, event: CylinderEvent) -> float:
    """Sum of the renewal representation over the positions of the
    nearest maximal rung strictly left and right of the event window.

    Counting configurations between those renewals factorizes into a
    left flank with no maximal rung, the fixed event block, and a right
    flank with no maximal rung.  The flank sums are the bundle's
    ``enter`` and ``tail`` weights, joined here over the event's walks.
    """
    data, enter, tail = bundle.renewal
    first, last = _event_walks(bundle, event)
    # with ell_s = ell_t = 0 the nearest renewals hug the event block,
    # sitting len(event)+2 rungs apart
    base = data.lam ** (len(event.rungs) + 2)
    return float(data.alpha * base * (enter[first] @ tail[last]))


def _finite_dp_prob(bundle: _AutomatonBundle, event: CylinderEvent,
                    halfwidth: int, exact: bool
                    ) -> tuple[float, Optional[Fraction]]:
    """Exact probability of the event under the uniform measure on
    left-burnable windows ``[-halfwidth, halfwidth]``."""
    auto = bundle.automaton
    halfwidth = _length(halfwidth, "dp_halfwidth", 0)
    if event.lo < -halfwidth or event.hi > halfwidth:
        raise ValidationError("event window larger than the DP window")
    before = event.lo + halfwidth + 1  # word length up to the event's first rung
    after = halfwidth - event.hi + 1  # word length from the event's last rung
    prefixes, suffixes, denominator = bundle.window_counts(2 * halfwidth + 1)
    prefix = prefixes[before - 1]
    suffix = suffixes[after - 1]
    group = auto.prefix_pairs.group
    sblock = auto.suffix_lumping.block
    numerator = sum(prefix[group[f]] * suffix[sblock[s]]
                    for f, s in zip(*_event_walks(bundle, event)))
    # int division rounds correctly, as float() of the fraction does
    return (numerator / denominator,
            Fraction(numerator, denominator) if exact else None)


def cylinder_prob(graph: Graph, event: CylinderEvent, method: str = "parry", *,
                  dp_halfwidth: int = 32, exact: bool = False,
                  max_states: int = DEFAULT_MAX_STATES) -> CylinderProbability:
    """Probability of a fixed rung assignment under the left-sided limit
    measure, by the chosen method.  Events containing an inadmissible
    rung have probability zero (flagged, not an error); an empty event
    is the full space."""
    if method not in METHODS:
        raise ValidationError(f"unknown method {method!r}")
    if not event.rungs:
        return CylinderProbability(1.0, method, True, {})
    for r in event.rungs:
        if len(r) != graph.n:
            raise ValidationError(f"event rung {r} does not fit the base graph")
    if not event.in_alphabet(graph):
        return CylinderProbability(0.0, method, False,
                                   {"reason": "rung outside alphabet"})
    bundle = _AutomatonBundle.get(graph, max_states)
    if method == "parry":
        return CylinderProbability(_parry_prob(bundle, event), method, True, {})
    if method == "renewal":
        return CylinderProbability(_renewal_prob(bundle, event), method, True,
                                   {"tail_bound": bundle.renewal[0].tail_bound})
    value, frac = _finite_dp_prob(bundle, event, dp_halfwidth, exact)
    detail = {"halfwidth": dp_halfwidth}
    if frac is not None:
        detail["exact"] = frac
    return CylinderProbability(value, method, True, detail)


def right_cylinder_prob(graph: Graph, event: CylinderEvent,
                        method: str = "parry", **kw) -> CylinderProbability:
    """Probability under the right-sided limit measure: the left-sided
    probability of the reflected event, exactly by construction."""
    return cylinder_prob(graph, event.reflected(), method, **kw)


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

def sample_chain_windows(graph: Graph, width: int, count: int, seed: int, *,
                         max_states: int = DEFAULT_MAX_STATES
                         ) -> list[tuple[RungConfig, ...]]:
    """Draw rung windows from the stationary maximal-entropy chain and
    project states onto their rungs; deterministic per seed."""
    width, count = _length(width, "width", 1), _length(count, "count", 1)
    seed = _seed(seed)
    bundle = _AutomatonBundle.get(graph, max_states)
    auto, chain = bundle.automaton, bundle.chain
    cum = chain.cumulative
    rng = np.random.default_rng(seed)
    firsts = rng.choice(len(auto), size=count, p=chain.stationary)
    rungs = auto.rungs
    out = []
    for state, u in zip(firsts.tolist(), rng.random((count, width)).tolist()):
        window = [rungs[state]]
        for x in u[1:]:
            state = auto.targets[state][bisect_left(cum[state], x)]
            window.append(rungs[state])
        out.append(tuple(window))
    return out


def sample_window_config(graph: Graph, halfwidth: int, seed: int, *,
                         max_states: int = DEFAULT_MAX_STATES) -> LadderConfig:
    """One stationary-chain sample laid out on ``[-halfwidth, halfwidth]``."""
    halfwidth = _length(halfwidth, "halfwidth", 0)
    rows = sample_chain_windows(graph, 2 * halfwidth + 1, 1, seed,
                                max_states=max_states)[0]
    return LadderConfig.from_rungs(rows, start=-halfwidth)


def sample_finite_exact(graph: Graph, n: int, m: int, seed: int,
                        count: int = 1, *, max_states: int = DEFAULT_MAX_STATES
                        ) -> list[LadderConfig]:
    """Exactly uniform samples of the left-burnable configurations on
    the window ``[n, m]``, by sequential draws proportional to integer
    suffix path counts in the automaton."""
    count, seed = _length(count, "count", 1), _seed(seed)
    length = len(Window(n, m))
    bundle = _AutomatonBundle.get(graph, max_states)
    auto = bundle.automaton
    # suffix[l][b]: words of length l + 1 starting in suffix block b
    suffix = auto.suffix_counts(length)
    block = auto.suffix_lumping.block
    rng = random.Random(seed)
    starts = auto.start_states()
    out = []
    for _ in range(count):
        weights = [(suffix[length - 1][block[s]], s) for s in starts]
        state = _weighted_pick(rng, weights)
        word = [state]
        for step in range(1, length):
            rem = length - 1 - step
            weights = [(suffix[rem][block[t]], t) for t in auto.targets[word[-1]]]
            state = _weighted_pick(rng, weights)
            word.append(state)
        rows = [auto.rungs[i] for i in word]
        out.append(LadderConfig.from_rungs(rows, start=n))
    return out


def _weighted_pick(rng: random.Random, weights: list[tuple[int, int]]) -> int:
    total = sum(w for w, _ in weights)
    if total <= 0:
        raise ValidationError("no admissible continuation")
    r = rng.randrange(total)
    acc = 0
    for w, item in weights:
        acc += w
        if r < acc:
            return item
    raise AssertionError("unreachable")  # pragma: no cover


# ---------------------------------------------------------------------------
# Boundary layers and the finite-window mixture
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryLayers:
    """Positions splitting a recurrent window into a left-burnable part
    and a right-burnable part, with the hatted variants skipping the
    extreme maximal rung.  Sentinels ``n-1`` / ``m+1`` mean "none"."""

    sigma_left: int
    sigma_right: int
    hat_left: int
    hat_right: int
    overlap: bool  # the two one-sided parts overlap (sigma_left >= sigma_right)


def boundary_layer(graph: Graph, config: LadderConfig) -> BoundaryLayers:
    """``sigma_left`` is the last maximal rung of a recurrent window that
    ends a left-burnable prefix, ``sigma_right`` the first that starts a
    right-burnable suffix.  Recurrence and the left side take one pass of
    the census engine, the right side one over the mirror image (the
    one-rung burn table is symmetric in its two sides).  The engine checks
    each rung's stable range before it first burns the rung's row."""
    window = config.window
    heights = np.asarray(config.heights)
    _require_integers(heights)
    if heights.shape != (len(window), graph.n):
        raise ValidationError(f"heights of shape {heights.shape} do not fit "
                              f"{len(window)} rungs of {graph.n} vertices")
    rungs = [tuple(row) for row in heights.tolist()]
    engine = _engine(graph)
    try:
        recurrent, left, right = engine.layers(rungs)
    except ValidationError:  # an unstable rung, refused before its row burnt
        top = graph.max_height
        h, x, r = next((h, x, r) for r, row in enumerate(rungs)
                       for x, h in enumerate(row) if not 1 <= h <= top[x])
        raise ValidationError(f"height {h} at site ({x},{window.n + r}) "
                              f"outside stable range 1..{top[x]}") from None
    if not recurrent:
        raise ValidationError("configuration is not recurrent")
    # an index of -1 (no such rung) gives the sentinel
    sigma_left, sigma_right = window.n + left, window.m - right
    maxes = [k for k, c in zip(window.rungs, rungs) if c == engine.cmax]
    hat_right = next((k for k in reversed(maxes) if k < sigma_right), window.n - 1)
    hat_left = next((k for k in maxes if k > sigma_left), window.m + 1)
    return BoundaryLayers(sigma_left=sigma_left, sigma_right=sigma_right,
                          hat_left=hat_left, hat_right=hat_right,
                          overlap=sigma_left >= sigma_right)


@dataclass(frozen=True)
class MixtureRow:
    window: Window
    weight_left: float
    measured: float
    predicted: float
    gap: float
    total_configs: int


def mixture_experiment(graph: Graph, windows: Iterable[Window],
                       event: CylinderEvent, *,
                       max_states: int = DEFAULT_MAX_STATES) -> list[MixtureRow]:
    """Compare the uniform-recurrent probability of an event on finite
    windows against the convex mixture of the two one-sided limits.

    The split point between the left-burnable and right-burnable parts
    of a recurrent window is close to uniform, and an event sees the
    left-sided measure exactly when the split lands to its right; the
    left weight is therefore the fraction of the window to the event's
    right.  (For an event centered in a symmetric window both
    orientations of the weight agree at one half; the asymmetric cases
    here were checked against exact enumeration.)  The finite-window
    probability is exact: the recurrent windows, and those with the
    event's rungs pinned, are counted by transfer state on the census
    engine.  One brute ``REC`` series up to the longest window gives
    every window's total.  ``max_states`` caps the automaton behind the
    limits and the transfer states of every count.
    """
    mu_l = cylinder_prob(graph, event, "parry", max_states=max_states).value
    mu_r = right_cylinder_prob(graph, event, "parry", max_states=max_states).value
    single = single_rung_recurrent(graph)
    windows = list(windows)
    for window in windows:
        if event.lo < window.n or event.hi > window.m:
            raise ValidationError(f"event does not fit window {window}")
    totals = (count_series(graph, "REC", max(map(len, windows)), max_states=max_states)
              if windows else None)
    rows = []
    for window in windows:
        length = len(window)
        total = totals[length]
        depths = [single] * length
        for k, c in enumerate(event.rungs, start=event.lo - window.n):
            # a rung that is not recurrent alone is in no recurrent window
            depths[k] = [c] if c in single else []
        matches = _engine(graph).count(depths, ignite=False,
                                       max_states=max_states)[length]
        measured = matches / total
        if window.m == window.n:
            weight = 0.5
        else:
            center = 0.5 * (event.lo + event.hi)
            weight = (window.m - center) / (window.m - window.n)
            weight = min(1.0, max(0.0, weight))
        predicted = weight * mu_l + (1 - weight) * mu_r
        rows.append(MixtureRow(window=window, weight_left=weight,
                               measured=measured, predicted=predicted,
                               gap=abs(measured - predicted),
                               total_configs=total))
    return rows


__all__ = [
    "BoundaryLayers", "CylinderEvent", "CylinderProbability", "MixtureRow",
    "RenewalData", "boundary_layer", "cylinder_prob", "mixture_experiment",
    "renewal_quantities", "right_cylinder_prob", "sample_chain_windows",
    "sample_finite_exact", "sample_window_config",
]
