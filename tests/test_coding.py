import itertools
import json
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from laddersand.burning import (advance_rung_state, first_rung_state, max_rung,
                                rung_burn)
from laddersand.census import (count_series, enum_rungs, iter_left_burnable,
                               recurrent_growth_rate)
from laddersand.coding import (CodeSymbol, CodingAutomaton, _lump, build_coding,
                               check_transitive, decode, encode,
                               influence_maps_monotone, parry_chain, restrict,
                               rung_burn_table, spectral)
from laddersand.errors import FeasibilityError, ValidationError
from laddersand.graphs import Window, builtin_graph, make_graph
from laddersand.measures import CylinderEvent, cylinder_prob, sample_chain_windows

PRINTED_MATRIX = np.array([
    [1, 1, 1, 1, 1, 0, 0],
    [1, 1, 1, 1, 1, 0, 0],
    [1, 1, 1, 1, 1, 0, 0],
    [1, 0, 0, 0, 0, 1, 0],
    [1, 0, 0, 0, 0, 0, 1],
    [1, 0, 0, 0, 0, 1, 0],
    [1, 0, 0, 0, 0, 0, 1],
], dtype=np.int64)


@pytest.fixture(scope="module")
def auto2(path2):
    return build_coding(path2)


def test_state_count(auto2):
    assert len(auto2) == 7
    assert len(auto2.inclusion) == 5


def test_permutation_equivalent_to_printed_matrix(auto2):
    t = auto2.matrix()
    for perm in itertools.permutations(range(7)):
        p = np.array(perm)
        if (t[np.ix_(p, p)] == PRINTED_MATRIX).all():
            return
    pytest.fail("no permutation matches the printed 7-state matrix")


def test_max_state_hub(auto2, path2):
    # every state reaches the all-maximal state in one step, and the
    # all-maximal state reaches every first-rung state in one step
    icmax = auto2.inclusion[max_rung(path2)]
    for row in auto2.delta:
        assert icmax in row.values()
    assert set(auto2.delta[icmax].values()) == set(auto2.inclusion.values())


def test_transitive(auto2, point, cycle3):
    irr, p = check_transitive(auto2)
    assert irr and p == 3
    a1 = build_coding(point)
    assert check_transitive(a1) == (True, 1)
    ac = build_coding(cycle3)
    irr, p = check_transitive(ac)
    assert irr and p is not None


@pytest.mark.parametrize("name", ["path4", "cycle4"])
def test_transitive_wider_graphs(name):
    assert check_transitive(build_coding(builtin_graph(name))) == (True, 5)


def _dense_transitivity(auto):
    """Reference for check_transitive: reach and powers of the dense matrix."""
    m = auto.matrix()
    size = len(auto)
    reach = np.eye(size, dtype=np.int64)
    for _ in range(size):
        reach = ((reach + reach @ m) > 0).astype(np.int64)
    if not reach.all():
        return False, None
    power = m
    for p in range(1, (size - 1) ** 2 + 2):  # Wielandt's bound
        if power.all():
            return True, p
        power = ((power @ m) > 0).astype(np.int64)
    return True, None


def _toy(graph, *rows):
    """An automaton whose state i has the successors rows[i]."""
    states = (CodeSymbol((0,) * graph.n, 0, ()),) * len(rows)
    return CodingAutomaton(graph=graph, alphabet=(), states=states, inclusion={},
                           delta=tuple({(j,): j for j in row} for row in rows))


def test_transitive_matches_dense_powers(point, path2, path3, cycle3):
    # a two-cycle, and cycles of lengths 2 and 4 through one state, are
    # periodic; the next two are reducible, one with a state without
    # successors; the next three are primitive; in the last two a state
    # shares its row with another, state 0 in the primitive one, and in
    # the reducible one no state reaches state 0; a lone state without
    # successors counts as strongly connected, with no positive power
    autos = [_toy(path2, [1], [0]), _toy(path2, [1], [0, 2], [3], [0]),
             _toy(path2, [1], [1]), _toy(path2, [1], []), _toy(path2, [0]),
             _toy(path2, [1], [0, 1]), _toy(path2, [1], [2], [0, 1]),
             _toy(path2, [1, 2], [0], [1, 2]), _toy(path2, [1, 2], [1], [1]),
             _toy(path2, [])]
    autos.append(build_coding(point))
    for graph in (path2, path3, cycle3):
        auto = build_coding(graph)
        autos += [auto, restrict(auto, lambda c, m=max_rung(graph): c != m)]
    for auto in autos:
        assert check_transitive(auto) == _dense_transitivity(auto)
    assert [check_transitive(a) for a in autos[:10]] == [
        (True, None), (True, None), (False, None), (False, None), (True, 1),
        (True, 2), (True, 5), (True, 3), (False, None), (True, None)]


def test_transitive_path5_without_the_dense_matrix(monkeypatch):
    def refuse(self):
        raise AssertionError("check_transitive built a dense matrix")

    auto = build_coding(builtin_graph("path5"))  # 4766 states
    monkeypatch.setattr(CodingAutomaton, "matrix", refuse)
    assert check_transitive(auto) == (True, 6)


def test_point_automaton(point):
    a1 = build_coding(point)
    assert len(a1) == 1
    assert a1.matrix().tolist() == [[1]]
    assert a1.count_words(5) == 1
    assert abs(spectral(a1).rho - 1.0) < 1e-12


def test_spectral_path2(auto2):
    spec = spectral(auto2)
    assert abs(spec.rho - (2 + math.sqrt(3))) < 1e-9
    assert spec.residual_right < 1e-12 and spec.residual_left < 1e-12
    assert spec.strictly_positive
    assert abs(spec.entropy - math.log(2 + math.sqrt(3))) < 1e-9


def test_restricted_growth_rate(auto2, path2):
    rest = restrict(auto2, lambda c: c != max_rung(path2))
    assert len(rest) == 6
    spec = spectral(rest)
    assert abs(spec.rho - 2.0) < 1e-9
    assert not spec.strictly_positive
    with pytest.raises(ValidationError):
        parry_chain(rest, spec)


def test_restrict_guards(auto2):
    with pytest.raises(ValidationError):
        restrict(auto2, lambda c: False)
    same = restrict(auto2, lambda c: True)
    assert len(same) == len(auto2)
    assert all(same.count_words(n) == auto2.count_words(n) for n in (1, 3, 5))


def test_restricted_counts(auto2, path2):
    rest = restrict(auto2, lambda c: c != max_rung(path2))
    assert rest.count_words(2) == 10
    b = count_series(path2, "L0", 7)
    assert tuple(rest.count_words(n) for n in range(1, 8)) == b.values
    assert all(rest.count_words(n) <= auto2.count_words(n) for n in range(1, 8))


def test_counts_match_brute(auto2, path2):
    a = count_series(path2, "L", 8)
    assert tuple(auto2.count_words(n) for n in range(1, 9)) == a.values


def test_parry_chain(auto2, path2):
    chain = parry_chain(auto2)
    assert np.abs(chain.matrix.sum(axis=1) - 1).max() < 1e-12
    assert np.abs(chain.stationary @ chain.matrix - chain.stationary).max() < 1e-12
    icmax = auto2.inclusion[max_rung(path2)]
    assert abs(chain.stationary[icmax] - (math.sqrt(3) - 1) / 2) < 1e-9
    assert abs(chain.entropy_rate() - math.log(2 + math.sqrt(3))) < 1e-9


def test_encode_decode(auto2):
    word = encode(auto2, [(3, 1), (3, 2), (3, 3)])
    assert word is not None
    mid = auto2.states[word[1]]
    assert mid.rung == (3, 2) and mid.burnt != auto2.graph.full_mask
    assert decode(auto2, word) == ((3, 1), (3, 2), (3, 3))

    assert encode(auto2, [(3, 1), (1, 3)]) is None
    assert encode(auto2, [(3, 1), (3, 1)]) is None
    with pytest.raises(ValidationError):
        encode(auto2, [(2, 2)])
    with pytest.raises(ValidationError):
        encode(auto2, [])


@pytest.mark.parametrize("word, message", [
    ([99], "state 99 is outside 0..6"), ([0, -1], "state must be >= 0"),
    ([1.0], "state=1.0 is not an integer"), ([7], "state 7 is outside 0..6"),
])
def test_decode_refuses_states_outside_the_automaton(auto2, word, message):
    # an index past the end, a negative one (which read from the end) and
    # a float are refused alike; numpy integers are integers
    assert len(auto2) == 7
    with pytest.raises(ValidationError) as refusal:
        decode(auto2, word)
    assert str(refusal.value) == message
    assert decode(auto2, [np.int64(6), 0]) == (auto2.states[6].rung, auto2.states[0].rung)


def test_encode_accepts_exactly_burnable(auto2, path2):
    from laddersand.burning import left_burnable, window_heights
    alphabet = enum_rungs(path2).rungs
    for seq in itertools.product(alphabet, repeat=4):
        word = encode(auto2, seq)
        expected = left_burnable(path2, window_heights(seq)).success
        assert (word is not None) == expected
        if word is not None:
            assert decode(auto2, word) == seq


def test_decode_encode_on_samples(auto2, path2):
    for window in sample_chain_windows(path2, 10, 300, seed=17):
        word = encode(auto2, window)
        assert word is not None
        assert decode(auto2, word) == window


def test_max_states_cap(path3):
    with pytest.raises(FeasibilityError):
        build_coding(path3, max_states=3)


@pytest.mark.parametrize("cap", [0, -1, 1.5, "10"])
def test_max_states_that_is_not_a_count_is_invalid(point, cap):
    # the point's automaton has one state, so no cap below 1 can be met
    with pytest.raises(ValidationError, match="max_states"):
        build_coding(point, max_states=cap)


@pytest.mark.parametrize("name", ["path4", "cycle4"])
def test_max_states_cap_is_exact(name):
    # the cap refuses exactly the automata with more states than it allows,
    # whichever stage notices: cycle4 has 147 rungs and 745 states
    graph = builtin_graph(name)
    size = len(build_coding(graph))
    assert len(build_coding(graph, max_states=size)) == size
    for cap in (size - 1, 200, 150, 100):
        with pytest.raises(FeasibilityError, match=f"max_states={cap}"):
            build_coding(graph, max_states=cap)


@pytest.mark.parametrize("name, cap", [("path5", 50), ("cycle5", 50),
                                       ("path5", 1000)])
def test_max_states_refuses_fast(name, cap):
    # 50 is below the rung count (363 on path5) and 1000 above it, so the
    # search for states must notice; path5 has 4766 states
    graph = builtin_graph(name)
    enum_rungs(graph)
    start = time.perf_counter()
    with pytest.raises(FeasibilityError, match=f"max_states={cap}"):
        build_coding(graph, max_states=cap)
    assert time.perf_counter() - start < 1.0


def test_monotonicity_report(auto2, path3, cycle3):
    # recorded as data; the construction never relies on it
    results = {
        "path2": influence_maps_monotone(auto2),
        "path3": influence_maps_monotone(build_coding(path3)),
        "cycle3": influence_maps_monotone(build_coding(cycle3)),
    }
    print(f"influence-map monotonicity: {results}")
    assert all(isinstance(v, bool) for v in results.values())


def test_json_stable_across_builds(path2):
    a = build_coding(path2).dumps()
    b = build_coding(path2).dumps()
    assert a == b
    doc = json.loads(a)
    assert len(doc["states"]) == 7
    assert doc["alphabet"] == [[1, 3], [2, 3], [3, 1], [3, 2], [3, 3]]
    assert all(len(s["influence"]) == 4 for s in doc["states"])


def test_path3_automaton_counts(path3):
    auto = build_coding(path3)
    a = count_series(path3, "L", 4)
    assert tuple(auto.count_words(n) for n in range(1, 5)) == a.values


def test_burn_table_too_large_is_refused():
    # path7 has 5445 rungs, so its table would hold 5445 * 4**7 entries
    with pytest.raises(FeasibilityError, match="one-rung burn table"):
        build_coding(builtin_graph("path7"))


# reference per-state sweeps: what the lumped counts replace

def _word_counts_by_state(auto, n_max):
    vec = [1] * len(auto.states)
    counts = [sum(vec[i] for i in auto.start_states())]
    for _ in range(n_max - 1):
        vec = [sum(vec[t] for t in row) for row in auto.targets]
        counts.append(sum(vec[i] for i in auto.start_states()))
    return counts


def _finite_dp_by_state(auto, event, halfwidth):
    window = Window(-halfwidth, halfwidth)
    fixed = {event.lo + j: c for j, c in enumerate(event.rungs)}
    starts = set(auto.start_states())
    vec = [int(i in starts) for i in range(len(auto))]
    for k in window.rungs:
        if k > window.n:
            nxt = [0] * len(auto)
            for i, v in enumerate(vec):
                for j in auto.targets[i]:
                    nxt[j] += v
            vec = nxt
        if k in fixed:
            vec = [v if auto.states[i].rung == fixed[k] else 0
                   for i, v in enumerate(vec)]
    return Fraction(sum(vec), _word_counts_by_state(auto, len(window))[-1])


_AUTOMATA = {}


def _automata(name):
    """The graph, its automaton and the restriction to non-maximal rungs."""
    if name not in _AUTOMATA:
        graph = builtin_graph(name)
        auto = build_coding(graph)
        cmax = max_rung(graph)
        _AUTOMATA[name] = (graph, auto, restrict(auto, lambda c: c != cmax))
    return _AUTOMATA[name]


def _assert_stable(lumping, adj):
    """Every member of a block has the block's neighbour-block multiset."""
    for i, row in enumerate(adj):
        pairs = dict(lumping.adj[lumping.block[i]])
        assert Counter(lumping.block[j] for j in row) == pairs


def _prefix_counts_by_state(auto, n_max):
    """``[l][j]``: accepted words of length ``l + 1`` ending at state ``j``."""
    starts = set(auto.start_states())
    vec = [int(i in starts) for i in range(len(auto))]
    out = [vec]
    for _ in range(n_max - 1):
        nxt = [0] * len(auto)
        for i, v in enumerate(vec):
            for j in auto.targets[i]:
                nxt[j] += v
        vec = nxt
        out.append(vec)
    return out


def _assert_lumped_counts(auto, n):
    counts = _word_counts_by_state(auto, n)
    assert auto.word_counts(n) == counts
    assert auto.count_words(n) == counts[-1]
    _assert_stable(auto.suffix_lumping, auto.targets)
    # lumped on the row classes, the suffix lumping is the one on the
    # states, numbering included
    assert auto.suffix_lumping == _lump(auto.targets, [0] * len(auto))
    # the row classes: each state's row, and no row twice
    of, rows = auto.row_classes
    preds = auto.class_predecessors
    assert [rows[k] for k in of] == list(auto.targets)
    assert len(set(rows)) == len(rows)
    # the prefix lumping is stable under the class predecessors, class
    # k' counted once per state of class k in its row, and splits no
    # block's number of start states
    lump = auto.prefix_lumping
    assert list(preds) == [tuple(k2 for k2, row in enumerate(rows)
                                 for j in row if of[j] == k)
                           for k in range(len(rows))]
    _assert_stable(lump, preds)
    starts = Counter(of[i] for i in auto.start_states())
    per_block = {}
    for k, b in enumerate(lump.block):
        per_block.setdefault(b, set()).add(starts[k])
    assert all(len(s) == 1 for s in per_block.values())
    # every class's prefix count, read on its block, against the
    # per-state sweep
    by_state = _prefix_counts_by_state(auto, n)
    prefix = auto.prefix_counts(n)
    for vec, by_class in zip(by_state, prefix):
        sums = [0] * len(rows)
        for i, count in enumerate(vec):
            sums[of[i]] += count
        assert [by_class[b] for b in lump.block] == sums
    # and every state's, read through its group's pairs
    group = auto.prefix_pairs.group
    lifted = auto.prefix_pairs.lift(prefix)
    for l in range(n):
        assert [lifted[l][g] for g in group] == by_state[l]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lumped_counts_match_per_state_sweep(data):
    # path2, path3 and cycle3 lump in one round of refinement; path4
    # needs two
    name = data.draw(st.sampled_from(["path2", "path3", "cycle3", "path4"]))
    _, full, nonmax = _automata(name)
    auto = data.draw(st.sampled_from([full, nonmax]))
    _assert_lumped_counts(auto, data.draw(st.integers(1, 20)))


def test_lumped_counts_match_per_state_sweep_on_cycle4():
    # cycle4 has the most states sharing one successor row: 745 states
    # in 127 row classes, whose prefix lumping has 22 blocks
    _, full, nonmax = _automata("cycle4")
    assert len(full.row_classes.rows) == 127
    assert len(full.prefix_lumping.adj) == 22
    for auto in (full, nonmax):
        _assert_lumped_counts(auto, 12)


def test_word_counts_guard(auto2):
    with pytest.raises(ValidationError):
        auto2.word_counts(0)
    with pytest.raises(ValidationError):
        auto2.count_words(0)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_finite_dp_matches_per_state_dp(data):
    name = data.draw(st.sampled_from(["path2", "path3", "cycle3"]))
    graph, auto, _ = _automata(name)
    halfwidth = data.draw(st.integers(0, 8))
    size = data.draw(st.integers(1, min(3, 2 * halfwidth + 1)))
    last = halfwidth - size + 1
    lo = data.draw(st.one_of(st.sampled_from([-halfwidth, last]),
                             st.integers(-halfwidth, last)))
    rungs = data.draw(st.lists(st.sampled_from(auto.alphabet),
                               min_size=size, max_size=size))
    event = CylinderEvent(rungs=tuple(rungs), lo=lo)
    res = cylinder_prob(graph, event, "finite_dp", dp_halfwidth=halfwidth,
                        exact=True)
    expected = _finite_dp_by_state(auto, event, halfwidth)
    assert res.detail["exact"] == expected
    assert res.value == float(expected)
    res = cylinder_prob(graph, event, "finite_dp", dp_halfwidth=halfwidth)
    assert "exact" not in res.detail
    assert res.value == float(expected)


# reference construction: the breadth-first search over the one-rung
# primitives that the batched construction replaces

def _build_coding_by_rung(graph):
    alphabet = enum_rungs(graph).rungs
    maxmask = {c: sum(1 << x for x in range(graph.n)
                      if c[x] == graph.max_height[x]) for c in alphabet}
    states, index = [], {}

    def add(sym):
        if sym.key() not in index:
            index[sym.key()] = len(states)
            states.append(sym)
        return index[sym.key()]

    inclusion = {}
    for c in alphabet:
        burnt, infl = first_rung_state(graph, c)
        inclusion[c] = add(CodeSymbol(c, burnt, infl))
    delta = []
    i = 0
    while i < len(states):
        sym = states[i]
        row = {}
        for c in alphabet:
            if sym.burnt & maxmask[c]:
                burnt, infl = advance_rung_state(graph, sym.burnt, c, sym.influence)
                if infl[graph.full_mask] == graph.full_mask:
                    row[c] = add(CodeSymbol(c, burnt, infl))
        delta.append(row)
        i += 1
    return CodingAutomaton(graph=graph, alphabet=alphabet, states=tuple(states),
                           inclusion=inclusion, delta=tuple(delta))


_REFERENCE = {}


def _assert_same_as_reference(graph):
    key = (graph.n, graph.edges)
    if key not in _REFERENCE:
        _REFERENCE[key] = _build_coding_by_rung(graph)
    ref = _REFERENCE[key]
    auto = build_coding(graph)
    assert auto.states == ref.states
    assert auto.delta == ref.delta
    assert auto.inclusion == ref.inclusion
    assert auto.dumps() == ref.dumps()


BUILTINS = ["point", "path2", "path3", "cycle3", "path4", "cycle4"]


@pytest.mark.parametrize("name", BUILTINS)
def test_build_matches_reference_on_builtins(name):
    _assert_same_as_reference(builtin_graph(name))


@st.composite
def connected_graphs(draw, max_vertices=4):
    """A random spanning tree plus any subset of the other edges."""
    n = draw(st.integers(1, max_vertices))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    others = [e for e in itertools.combinations(range(n), 2)
              if e not in tree and e[::-1] not in tree]
    extra = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
    return make_graph(n, tree + extra)


@settings(max_examples=10, deadline=None)
@given(graph=connected_graphs())
def test_build_matches_reference_on_random_graphs(graph):
    _assert_same_as_reference(graph)


@pytest.mark.parametrize("name", BUILTINS)
def test_rung_burn_table_matches_rung_burn(name):
    graph = builtin_graph(name)
    alphabet = enum_rungs(graph).rungs
    table = rung_burn_table(graph, alphabet)
    size = 1 << graph.n
    assert table.shape == (len(alphabet), size * size)
    for c, rung in enumerate(alphabet):
        assert table[c].tolist() == [rung_burn(graph, left, rung, right)
                                     for left in range(size)
                                     for right in range(size)]


@pytest.mark.parametrize("name", BUILTINS)
def test_perron_data_match_dense_eigenvalues(name):
    # reference: every eigenvalue of the dense transition matrix
    graph = builtin_graph(name)
    auto = build_coding(graph)
    autos = [auto]
    if len(auto.alphabet) > 1:
        autos.append(restrict(auto, lambda c: c != max_rung(graph)))
    for a in autos:
        spec = spectral(a)
        m = a.matrix().astype(float)
        dense = np.linalg.eigvals(m).real.max()
        assert spec.rho == pytest.approx(dense, rel=1e-13)
        assert spec.residual_right <= 1e-12 * spec.rho
        assert spec.residual_left <= 1e-12 * spec.rho
        # the Perron eigenvectors of the dense matrix, summing to 1
        for vec, mat in ((spec.right, m), (spec.left, m.T)):
            values, vectors = np.linalg.eig(mat)
            ref = vectors[:, np.argmax(values.real)].real
            assert vec == pytest.approx(ref / ref.sum(), rel=1e-12)


@pytest.mark.parametrize("name", BUILTINS + ["path5", "cycle5"])
def test_growth_rate_at_most_recurrent_growth_rate(name):
    # every left-burnable window is recurrent, and the left-burnable ones
    # already grow at the recurrent rate: the limit has maximal entropy
    graph = builtin_graph(name)
    rho = spectral(build_coding(graph)).rho
    assert rho == pytest.approx(recurrent_growth_rate(graph), rel=1e-13)


@settings(max_examples=10, deadline=None)
@given(graph=connected_graphs())
def test_brute_counts_match_automaton_on_random_graphs(graph):
    auto = build_coding(graph)
    assert count_series(graph, "L", 2).values == tuple(auto.word_counts(2))
    nonmax = (restrict(auto, lambda c: c != max_rung(graph)).word_counts(2)
              if len(auto.alphabet) > 1 else [0, 0])
    assert count_series(graph, "L0", 2).values == tuple(nonmax)


@settings(max_examples=10, deadline=None)
@given(graph=connected_graphs())
def test_encode_decode_on_random_graphs(graph):
    auto = build_coding(graph)
    for window in iter_left_burnable(graph, 2):
        word = encode(auto, window)
        assert word is not None and decode(auto, word) == window


@settings(max_examples=10, deadline=None)
@given(graph=connected_graphs())
def test_growth_rate_at_most_recurrent_growth_rate_on_random_graphs(graph):
    rho = spectral(build_coding(graph)).rho
    assert rho == pytest.approx(recurrent_growth_rate(graph), rel=1e-13)
