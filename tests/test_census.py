import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from laddersand.burning import (burn_table, full_burnable, is_rung_symbol, left_burnable,
                                leftmost_schedule, max_rung, right_burnable,
                                window_heights)
from laddersand.census import (_DEAD, VARIANTS, _bareiss_det, _SequenceDFS, _engine,
                               count_series, entropy_bounds, enum_rungs,
                               iter_left_burnable, iter_recurrent, recurrent_counts,
                               renewal_identity_check, single_rung_recurrent)
from laddersand.coding import build_coding, restrict
from laddersand.errors import FeasibilityError, ValidationError
from laddersand.graphs import builtin_graph, laplacian_entry
from laddersand.measures import _AutomatonBundle, boundary_layer, sample_chain_windows
from laddersand.toppling import LadderConfig
from reference_census import _RowMaskEngine
from test_coding import connected_graphs

I01_A = (5, 19, 71, 265, 989, 3691, 13775, 51409)
I01_B = (4, 10, 22, 46, 94, 190, 382, 766)


def test_alphabet_path2(path2):
    assert enum_rungs(path2).rungs == ((1, 3), (2, 3), (3, 1), (3, 2), (3, 3))


def test_alphabet_point(point):
    assert enum_rungs(point).rungs == ((2,),)


def test_alphabet_cycle3(cycle3):
    rungs = enum_rungs(cycle3)
    assert (4, 4, 4) in rungs
    # the one-deficit rungs exist for every vertex
    for x in range(3):
        c = tuple(3 if z == x else 4 for z in range(3))
        assert c in rungs
    assert len(rungs) == 34


@pytest.mark.parametrize("name", ["path2", "path3"])
def test_alphabet_is_recurrent_with_max(name, request):
    # admissible rungs = single-rung recurrent vectors holding a maximal
    # height somewhere
    graph = request.getfixturevalue(name)
    alpha = set(enum_rungs(graph).rungs)
    expected = set()
    for h in itertools.product(*[range(1, m + 1) for m in graph.max_height]):
        if not full_burnable(graph, window_heights([h], start=0)).success:
            continue
        if any(h[x] == graph.max_height[x] for x in range(graph.n)):
            expected.add(h)
    assert alpha == expected


def test_counts_path2(path2):
    a = count_series(path2, "L", 8)
    b = count_series(path2, "L0", 8)
    assert a.values == I01_A
    assert b.values == I01_B
    assert a[1] == 5 and a[2] == 19 and b[1] == 4 and b[2] == 10


def test_counts_point(point):
    assert count_series(point, "L", 6).values == (1,) * 6
    assert count_series(point, "L0", 4).values == (0,) * 4


def test_count_series_validation(path2):
    with pytest.raises(ValidationError):
        count_series(path2, "X", 3)
    with pytest.raises(ValidationError):
        count_series(path2, "L", 0)
    with pytest.raises(ValidationError):
        count_series(path2, "L", 3, method="guess")
    with pytest.raises(ValidationError):
        count_series(path2, "S", 3, method="automaton")
    with pytest.raises(ValidationError):
        count_series(path2, "REC", 3, method="automaton")


def test_brute_cap(path2):
    # every length from 1 on holds path2's 3 left-burnable transfer states
    with pytest.raises(FeasibilityError, match="max_states=2"):
        count_series(path2, "L", 12, max_states=2)
    assert count_series(path2, "L", 12, max_states=3) == count_series(path2, "L", 12)


def test_renewal_identity_small(path2, point):
    a = count_series(path2, "L", 8)
    b = count_series(path2, "L0", 8)
    assert renewal_identity_check(a, b, 8)
    # degenerate graph: identity collapses to a_n = a_{n-1}
    ap = count_series(point, "L", 5)
    bp = count_series(point, "L0", 5)
    assert renewal_identity_check(ap, bp, 5)


def test_renewal_identity_guards(path2):
    a = count_series(path2, "L", 4)
    b = count_series(path2, "L0", 4)
    with pytest.raises(ValidationError):
        renewal_identity_check(b, a, 4)
    with pytest.raises(ValidationError):
        renewal_identity_check(a, b, 9)


@pytest.mark.parametrize("n_max", [0, -5, 1.5, "3"])
def test_renewal_identity_refuses_a_length_it_cannot_check(path2, n_max):
    # a length below 1 checked nothing and passed
    a = count_series(path2, "L", 4)
    b = count_series(path2, "L0", 4)
    with pytest.raises(ValidationError, match="n_max"):
        renewal_identity_check(a, b, n_max)


def test_submultiplicative(path2):
    a = count_series(path2, "L", 8).values
    for n in range(1, 9):
        for m in range(1, 9 - n):
            assert a[n + m - 1] <= a[n - 1] * a[m - 1]


def test_superadditive_with_renewal_gap(path2):
    a = count_series(path2, "L", 8).values
    for n in range(1, 8):
        for m in range(1, 8 - n):
            assert a[n + m] >= a[n - 1] * a[m - 1]


def test_renewal_factorization(path2):
    # windows whose rung k is maximal factor into independent halves
    cmax = max_rung(path2)
    a = (1,) + count_series(path2, "L", 6).values
    for n in range(1, 7):
        seqs = list(iter_left_burnable(path2, n))
        assert len(seqs) == a[n]
        for k in range(1, n + 1):
            hits = sum(1 for s in seqs if s[k - 1] == cmax)
            assert hits == a[k - 1] * a[n - k], (n, k)


def test_reflection_set_equality(path2):
    # reflecting every left-burnable window yields exactly the
    # right-burnable windows
    n = 4
    lefts = {tuple(reversed(s)) for s in iter_left_burnable(path2, n)}
    alphabet = enum_rungs(path2).rungs
    rights = {s for s in itertools.product(alphabet, repeat=n)
              if right_burnable(path2, window_heights(s)).success}
    assert lefts == rights


def test_variant_chain(path2):
    a = count_series(path2, "L", 6).values
    b = count_series(path2, "L0", 6).values
    s = count_series(path2, "S", 6).values
    r = count_series(path2, "S0", 6).values
    for i in range(6):
        assert r[i] <= s[i] <= a[i]
        assert b[i] <= a[i]


def test_recurrent_counts(path2):
    rec = count_series(path2, "REC", 4)
    assert rec.values[0] == 8  # stable minus the mutually-starved pair
    a = count_series(path2, "L", 4).values
    assert all(x <= y for x, y in zip(a, rec.values))
    assert sum(1 for _ in iter_recurrent(path2, 3)) == rec.values[2]


def test_single_rung_recurrent_point(point):
    assert single_rung_recurrent(point) == ((1,), (2,))


def test_brute_matches_automaton(path2, path3):
    for graph, nmax in ((path2, 6), (path3, 4)):
        brute = count_series(graph, "L", nmax)
        auto = count_series(graph, "L", nmax, method="automaton")
        assert brute.values == auto.values
        brute0 = count_series(graph, "L0", nmax)
        auto0 = count_series(graph, "L0", nmax, method="automaton")
        assert brute0.values == auto0.values


def test_brute_matches_automaton_wider_graphs():
    from laddersand.graphs import builtin_graph
    for name, nmax in (("path4", 3), ("cycle4", 2)):
        graph = builtin_graph(name)
        brute = count_series(graph, "L", nmax)
        auto = count_series(graph, "L", nmax, method="automaton")
        assert brute.values == auto.values


@pytest.mark.parametrize("name", ["path5", "cycle5"])
def test_brute_matches_automaton_five_vertices(name):
    graph = builtin_graph(name)
    auto = build_coding(graph)
    cmax = max_rung(graph)
    auto0 = restrict(auto, lambda c: c != cmax)
    assert count_series(graph, "L", 2).values == tuple(auto.word_counts(2))
    assert count_series(graph, "L0", 2).values == tuple(auto0.word_counts(2))


def test_automaton_counts_on_the_point(point):
    # the maximal rung is the point's only rung, so no L0 window exists
    assert count_series(point, "L0", 3, method="automaton").values == (0, 0, 0)
    assert count_series(point, "L", 3, method="automaton").values == (1, 1, 1)


def test_automaton_counts_read_the_cached_bundle(path3, monkeypatch):
    import laddersand.coding as coding
    import laddersand.measures as measures
    builds = []

    def counted(graph, **kwargs):
        builds.append(graph)
        return build_coding(graph, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("a count ran power iteration")

    monkeypatch.setattr(_AutomatonBundle, "_cache", {})
    monkeypatch.setattr(coding, "build_coding", counted)
    monkeypatch.setattr(measures, "build_coding", counted)
    monkeypatch.setattr(measures, "spectral", refuse)
    for variant in ("L", "L0", "L", "L0"):
        assert (count_series(path3, variant, 4, method="automaton").values
                == count_series(path3, variant, 4).values)
    assert builds == [path3]


def test_census_beyond_the_burn_table_is_refused():
    # path7 has 5445 rungs, so its table would hold 5445 * 4**7 entries
    with pytest.raises(FeasibilityError, match="one-rung burn table"):
        count_series(builtin_graph("path7"), "L", 1)


def test_census_refuses_graphs_beyond_the_table_before_any_burn(monkeypatch, capsys):
    # the vertex limit comes first: iter_recurrent on path9 once spent
    # seconds on one-rung burns of its alphabet before the table refused
    # it, and build_coding did the same through the alphabet
    import laddersand.burning as burning
    from laddersand.cli import main
    from laddersand.graphs import make_graph
    from laddersand.measures import CylinderEvent, boundary_layer, cylinder_prob
    from laddersand.toppling import LadderConfig

    def refuse(*args, **kwargs):
        raise AssertionError("burnt a window of a graph beyond the table")

    monkeypatch.setattr(burning, "_burn", refuse)
    path9 = make_graph(9, [(v, v + 1) for v in range(8)])
    top = max_rung(path9)
    calls = [lambda: next(iter_recurrent(path9, 1)),
             lambda: next(iter_left_burnable(path9, 1)),
             lambda: boundary_layer(path9, LadderConfig.from_rungs([top] * 2)),
             lambda: enum_rungs(path9), lambda: single_rung_recurrent(path9),
             lambda: burning.is_rung_symbol(path9, top),
             lambda: build_coding(path9),
             lambda: count_series(path9, "L", 1, method="automaton"),
             lambda: cylinder_prob(path9, CylinderEvent.single(top))]
    calls += [lambda v=v: count_series(path9, v, 1) for v in ("L", "L0", "S", "S0", "REC")]
    for call in calls:
        with pytest.raises(FeasibilityError, match="at most 8 vertices"):
            call()
    assert main(["coding", "--graph", "path9", "--vertex-cap", "9"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "at most 8 vertices" in err


def _assert_alphabets_match_the_traced_burn(graph):
    symbols, recurrent = [], []
    for c in _stable_rungs(graph):
        window = window_heights([c], start=0)
        left = left_burnable(graph, window).success
        assert is_rung_symbol(graph, c) == left, c
        symbols += [c] * left
        recurrent += [c] * full_burnable(graph, window).success
    assert enum_rungs(graph).rungs == tuple(symbols)
    assert single_rung_recurrent(graph) == tuple(recurrent)


@pytest.mark.parametrize("name", ["point", "path2", "path3", "path4", "path5",
                                  "cycle3", "cycle4", "cycle5"])
def test_alphabets_match_the_traced_burn(name):
    _assert_alphabets_match_the_traced_burn(builtin_graph(name))


@settings(max_examples=15, deadline=None)
@given(graph=connected_graphs())
def test_alphabets_match_the_traced_burn_on_random_graphs(graph):
    _assert_alphabets_match_the_traced_burn(graph)


def test_rung_symbol_needs_the_shape_and_stable_heights(path2, cycle3):
    for graph in (path2, cycle3):
        top = max_rung(graph)
        assert is_rung_symbol(graph, top)
        for bad in (top[:-1], top + (1,), (0,) + top[1:], (top[0] + 1,) + top[1:],
                    (-1,) * graph.n, ()):
            assert not is_rung_symbol(graph, bad), bad


def test_entropy_bounds(path2, point):
    a = count_series(path2, "L", 8)
    bounds = entropy_bounds(a)
    target = math.log(2 + math.sqrt(3))
    # uppers decrease toward the growth rate, lowers stay below it
    assert all(u >= target - 1e-12 for u in bounds.upper)
    assert all(l <= target + 1e-12 for l in bounds.lower)
    assert bounds.upper[-1] < bounds.upper[0]
    assert bounds.estimate == min(bounds.upper)
    exact = entropy_bounds(a, exact_rate=target)
    assert exact.estimate == target

    p = entropy_bounds(count_series(point, "L", 5))
    assert all(u == 0.0 for u in p.upper)


def test_entropy_bounds_refuse_a_zero_count(point):
    # the point's only rung is maximal, so no L0 window exists
    with pytest.raises(ValidationError, match="zero count"):
        entropy_bounds(count_series(point, "L0", 3))


def test_symmetric_strictly_smaller_at_depth_8(path2):
    s8 = count_series(path2, "S", 8).values[7]
    a8 = I01_A[7]
    assert math.log(s8) / 8 < math.log(a8) / 8


def _stable_rungs(graph):
    return list(itertools.product(*[range(1, m + 1) for m in graph.max_height]))


def _engine_run(dfs, rungs, ignite=True):
    """One engine run over a nonempty window: the index of the last maximal
    rung that ends a left-burnable prefix, or -1, and whether the window
    is left-burnable (with ``ignite``) or recurrent."""
    return dfs._run(rungs, dfs.rows(rungs), ignite)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_engine_matches_burning_oracles(data):
    # the engine's closure decides recurrence like ordinary burning and
    # left-burnability like the rung-at-a-time schedule, and so does its
    # walk over transfer states
    graph = builtin_graph(data.draw(st.sampled_from(["path2", "path3", "cycle3",
                                                     "path4"])))
    dfs = _SequenceDFS(graph)
    seq = data.draw(st.lists(st.sampled_from(_stable_rungs(graph)),
                             min_size=1, max_size=5))
    assert (_engine_run(dfs, seq, False)[1]
            == full_burnable(graph, window_heights(seq)).success)
    symbols = data.draw(st.lists(st.sampled_from(enum_rungs(graph).rungs),
                                 min_size=1, max_size=5))
    assert _engine_run(dfs, symbols)[1] == leftmost_schedule(graph, symbols).success
    for rungs, ignite in ((seq, False), (symbols, True)):
        verdict = _engine_run(dfs, rungs, ignite)[1]
        walked = [tuple(p) for p in dfs.walk(rungs, len(rungs), ignite)]
        assert (tuple(rungs) in walked) == verdict


def _reduced_laplacian_det(graph, n):
    sites = [(x, k) for k in range(1, n + 1) for x in range(graph.n)]
    return _bareiss_det([[laplacian_entry(graph, u, v) for v in sites] for u in sites])


@pytest.mark.parametrize("name, n_max", [("point", 5), ("path2", 5), ("path3", 4),
                                         ("cycle3", 4), ("path4", 3), ("cycle4", 3)])
def test_matrix_polynomial_is_the_reduced_laplacian_det(name, n_max):
    graph = builtin_graph(name)
    assert recurrent_counts(graph, n_max) == tuple(
        _reduced_laplacian_det(graph, n) for n in range(1, n_max + 1))


@pytest.mark.parametrize("name, n_max", [("point", 40), ("path2", 40), ("path3", 40),
                                         ("cycle3", 40), ("path4", 8)])
def test_recurrent_counts_match_the_determinant_oracle(name, n_max):
    graph = builtin_graph(name)
    assert (count_series(graph, "REC", n_max).values
            == recurrent_counts(graph, n_max))


def test_recurrent_counts_reach_hundreds_of_rungs(path2, monkeypatch):
    # merged by the rungs above their last full row, the prefixes of one
    # length fall into about 4 times more groups at each rung; by transfer
    # state, into the 8 live states of path2's recurrent windows
    steps = []
    right_step = _SequenceDFS.right_step

    def counted(self, state, tbl):
        steps.append((state, tuple(tbl)))
        return right_step(self, state, tbl)

    monkeypatch.setattr(_SequenceDFS, "right_step", counted)
    assert (count_series(path2, "REC", 200).values
            == recurrent_counts(path2, 200))
    assert len(set(steps)) == len(steps)  # one step per state and rung
    assert len({state for state, _ in steps}) <= 8


def test_recurrent_counts_path5_are_matrix_tree_counts():
    graph = builtin_graph("path5")
    assert count_series(graph, "REC", 2).values == tuple(
        _reduced_laplacian_det(graph, n) for n in (1, 2))


@pytest.mark.parametrize("name, expected", [
    ("path2", (8, 45, 224, 1045, 4680)),
    ("path3", (30, 576, 9660)),
    ("cycle3", (50, 1728, 52900)),
])
def test_recurrent_counts_are_matrix_tree_counts(name, expected):
    graph = builtin_graph(name)
    rec = count_series(graph, "REC", len(expected))
    assert rec.values == expected
    assert expected == tuple(_reduced_laplacian_det(graph, n)
                             for n in range(1, len(expected) + 1))


def test_left_burnable_counts_are_renewals_of_recurrent_counts(path2):
    # on path2, |L_n| = q_n + q_{n-1} with q_n = |REC_n| / (n + 1), the
    # factor n + 1 being the zero Laplacian mode's
    rec = (1,) + recurrent_counts(path2, 8)
    q = [count // (n + 1) for n, count in enumerate(rec)]
    assert all(count % (n + 1) == 0 for n, count in enumerate(rec))
    assert count_series(path2, "L", 8).values == tuple(q[n] + q[n - 1]
                                                       for n in range(1, 9))


def test_recurrent_counts_refuse_lengths_below_one(path2):
    for n_max in (0, -1, 1.5):
        with pytest.raises(ValidationError):
            recurrent_counts(path2, n_max)


@pytest.mark.parametrize("name, n", [("path2", 3), ("path3", 2), ("cycle3", 2),
                                     ("point", 4)])
def test_iter_recurrent_is_filtered_product(name, n):
    graph = builtin_graph(name)
    expected = [s for s in itertools.product(_stable_rungs(graph), repeat=n)
                if full_burnable(graph, window_heights(s)).success]
    assert list(iter_recurrent(graph, n)) == expected


def test_iter_recurrent_edge_lengths(path2):
    assert list(iter_recurrent(path2, 0)) == [()]
    with pytest.raises(ValidationError):
        list(iter_recurrent(path2, -1))


def test_iter_left_burnable_edge_lengths(path2):
    assert list(iter_left_burnable(path2, 0)) == [()]
    with pytest.raises(ValidationError):
        list(iter_left_burnable(path2, -1))


def test_iter_recurrent_refuses_a_fractional_length(path2):
    with pytest.raises(ValidationError, match="not an integer"):
        list(iter_recurrent(path2, 2.5))


def test_iter_left_burnable_refuses_a_float_length(path2):
    # 2.0 is refused like 2.5, not read as 2
    with pytest.raises(ValidationError, match="not an integer"):
        list(iter_left_burnable(path2, 2.0))


@pytest.mark.parametrize("method", ["brute", "automaton"])
def test_count_series_refuses_a_fractional_length(path2, method):
    with pytest.raises(ValidationError, match="not an integer"):
        count_series(path2, "L", 2.5, method=method)


def test_two_sided_counts_pinned(path2, path3, cycle3):
    assert count_series(path2, "S", 6).values == (5, 17, 59, 205, 713, 2481)
    assert count_series(path2, "S0", 6).values == (4, 8, 14, 24, 42, 76)
    assert count_series(path3, "S", 3).values == (22, 258, 2944)
    assert count_series(path3, "S0", 3).values == (21, 215, 2009)
    assert count_series(cycle3, "S", 2).values == (34, 682)
    assert count_series(cycle3, "S0", 2).values == (33, 615)


def _mirror_walked_counts(graph, n_max):
    """The ``S`` and ``S0`` counts of the reference walk: every
    left-burnable path whose mirror image is left-burnable too, an ``S0``
    one holding no maximal rung."""
    ref = _RowMaskEngine(graph)
    cmax = max_rung(graph)
    s, s0 = [0] * n_max, [0] * n_max
    for path in ref.walk(enum_rungs(graph).rungs, n_max, ignite=True):
        if path and ref.accepts(path[::-1]):
            s[len(path) - 1] += 1
            s0[len(path) - 1] += cmax not in path
    return tuple(s), tuple(s0)


@pytest.mark.parametrize("name, n_max", [("point", 6), ("path2", 8), ("path3", 4),
                                         ("cycle3", 4), ("path4", 3), ("cycle4", 2)])
def test_two_sided_counts_match_the_mirror_walk(name, n_max):
    graph = builtin_graph(name)
    s, s0 = _mirror_walked_counts(graph, n_max)
    assert count_series(graph, "S", n_max).values == s
    assert count_series(graph, "S0", n_max).values == s0


@settings(max_examples=10, deadline=None)
@given(graph=connected_graphs())
def test_two_sided_counts_match_the_mirror_walk_on_random_graphs(graph):
    n_max = 3 if graph.n <= 2 else 2
    s, s0 = _mirror_walked_counts(graph, n_max)
    assert count_series(graph, "S", n_max).values == s
    assert count_series(graph, "S0", n_max).values == s0


def _right_verdict(dfs, rungs):
    state = dfs.sink
    for tbl in dfs.rows(rungs):
        state = dfs.right_step(state, tbl)
    return bool(state[dfs.full] >> dfs.n)


def _check_right_state(data, graph):
    # stable rungs, then symbols, since most stable windows are not
    # right-burnable
    dfs = _SequenceDFS(graph)
    for alphabet in (_stable_rungs(graph), enum_rungs(graph).rungs):
        rungs = data.draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=5))
        assert (_right_verdict(dfs, rungs)
                == right_burnable(graph, window_heights(rungs)).success)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_right_burn_state_matches_right_burning(data):
    graph = builtin_graph(data.draw(st.sampled_from(
        ["point", "path2", "path3", "cycle3", "path4", "cycle4"])))
    _check_right_state(data, graph)


@settings(max_examples=15, deadline=None)
@given(graph=connected_graphs(), data=st.data())
def test_right_burn_state_matches_right_burning_on_random_graphs(graph, data):
    _check_right_state(data, graph)


def test_two_sided_counts_burn_no_window(path2, path3, monkeypatch):
    # the right-burn state replaces the walk and the mirror image's burn
    def refuse(*args, **kwargs):
        raise AssertionError("a two-sided count walked or re-burnt a window")

    monkeypatch.setattr(_SequenceDFS, "walk", refuse)
    monkeypatch.setattr(_SequenceDFS, "_run", refuse)
    assert count_series(path2, "S", 6).values == (5, 17, 59, 205, 713, 2481)
    assert count_series(path2, "S0", 6).values == (4, 8, 14, 24, 42, 76)
    assert count_series(path3, "S", 3).values == (22, 258, 2944)
    assert count_series(path3, "S0", 3).values == (21, 215, 2009)


def _walked_counts(graph, variant, n_max):
    """Per-length numbers of the reference walk's windows of a class; an
    ``L0`` window is a left-burnable one with no maximal rung."""
    ref = _RowMaskEngine(graph)
    rec = variant == "REC"
    counts = [0] * n_max
    for path in ref.walk(single_rung_recurrent(graph) if rec else enum_rungs(graph).rungs,
                         n_max, ignite=not rec):
        if path and (variant != "L0" or ref.cmax not in path):
            counts[len(path) - 1] += 1
    return tuple(counts)


@pytest.mark.parametrize("name, n_max", [("point", 6), ("path2", 6), ("path3", 3),
                                         ("cycle3", 2)])
@pytest.mark.parametrize("variant", ["L", "L0", "REC"])
def test_suffix_counts_match_the_plain_walk(name, n_max, variant):
    graph = builtin_graph(name)
    assert (count_series(graph, variant, n_max).values
            == _walked_counts(graph, variant, n_max))


@settings(max_examples=10, deadline=None)
@given(graph=connected_graphs())
def test_suffix_counts_match_the_plain_walk_on_random_graphs(graph):
    n_max = 3 if graph.n <= 2 else 2
    for variant in ("L", "L0", "REC"):
        assert (count_series(graph, variant, n_max).values
                == _walked_counts(graph, variant, n_max))


def test_suffix_count_on_the_point_is_not_recursive(point):
    # every length holds the point's one transfer state, so the length is unbounded
    assert count_series(point, "L", 5000).values == (1,) * 5000


def test_brute_counts_build_no_automaton(path3, monkeypatch):
    # the brute counts are the coding automaton's independent check
    import laddersand.coding as coding
    import laddersand.measures as measures

    def refuse(*args, **kwargs):
        raise AssertionError("a brute count built the coding automaton")

    monkeypatch.setattr(_AutomatonBundle, "_cache", {})
    monkeypatch.setattr(coding, "build_coding", refuse)
    monkeypatch.setattr(measures, "build_coding", refuse)
    for variant in ("L", "L0", "S", "S0", "REC"):
        assert count_series(path3, variant, 2).provenance == "brute"


@pytest.mark.parametrize("name, variant, n_max", [
    ("path2", "L", 14), ("path2", "L0", 14), ("path3", "L", 6),
    ("path3", "L0", 5), ("cycle3", "L", 4), ("cycle3", "L0", 4),
])
def test_brute_matches_automaton_at_longer_lengths(name, variant, n_max):
    graph = builtin_graph(name)
    brute = count_series(graph, variant, n_max)
    auto = count_series(graph, variant, n_max, method="automaton")
    assert brute.values == auto.values


# the most transfer states one length holds below n_max: path3 REC holds
# 1, 19, 48 and 54 at lengths 0..3, path2 S (left, right) pairs 1, 5, 9,
# 12, 14 and 16 at lengths 0..5, and path2 S0 pairs 1, 4, 8 and 10
@pytest.mark.parametrize("name, variant, n_max, held", [
    ("path3", "REC", 4, 54), ("path3", "REC", 3, 48), ("path2", "S", 6, 16),
    ("path2", "S0", 4, 10),
])
def test_brute_refusals_name_the_state_cap(name, variant, n_max, held):
    graph = builtin_graph(name)
    assert (count_series(graph, variant, n_max, max_states=held)
            == count_series(graph, variant, n_max))
    with pytest.raises(FeasibilityError) as exc:
        count_series(graph, variant, n_max, max_states=held - 1)
    assert str(exc.value) == (f"brute count exceeded max_states={held - 1} "
                              f"transfer states at {n_max - 1} rungs")


def test_counts_the_enumeration_cap_refused(path2):
    # refused while brute counts were capped at 10**7 windows (base**n_max)
    assert (count_series(path2, "L", 15).values
            == count_series(path2, "L", 15, method="automaton").values)
    assert count_series(path2, "REC", 9).values == recurrent_counts(path2, 9)
    assert count_series(path2, "S", 11).values == (
        5, 17, 59, 205, 713, 2481, 8635, 30057, 104629, 364225, 1267923)
    # the brute count is pinned in test_counts_pinned_on_larger_graphs
    assert recurrent_counts(builtin_graph("path5"), 3)[-1] == 16560324


@pytest.mark.parametrize("cap", [0, -1, 1.5, "10", None])
@pytest.mark.parametrize("method", ["brute", "automaton"])
def test_count_series_refuses_a_cap_that_is_not_a_count(path2, cap, method):
    with pytest.raises(ValidationError, match="max_states"):
        count_series(path2, "L", 3, method=method, max_states=cap)


@pytest.mark.parametrize("name, variant, n, expected", [
    ("path3", "L", 8, 1161748727), ("path3", "REC", 6, 33380711),
    ("cycle3", "S", 6, 125432689), ("path4", "L", 4, 7511609),
    ("cycle4", "S", 3, 771441), ("cycle4", "REC", 4, 259683545),
    ("path5", "L", 2, 59891), ("path5", "S", 2, 53187),
    ("cycle5", "L", 2, 184761), ("cycle5", "S", 2, 157891),
    ("path5", "REC", 3, 16560324),
])
def test_counts_pinned_on_larger_graphs(name, variant, n, expected):
    # pinned from the count by unresolved suffix, which shares no code with
    # the transfer states
    graph = builtin_graph(name)
    assert count_series(graph, variant, n)[n] == expected


@pytest.mark.parametrize("name", ["path4", "cycle4"])
@pytest.mark.parametrize("variant", ["L", "L0"])
def test_brute_matches_automaton_at_ten_rungs(name, variant):
    graph = builtin_graph(name)
    assert (count_series(graph, variant, 10).values
            == count_series(graph, variant, 10, method="automaton").values)


def test_a_layer_without_rungs_counts_nothing_from_there_on(path2):
    # the mixture pins a rung that is not recurrent alone as no rung at all
    dfs = _SequenceDFS(path2)
    rec, symbols = single_rung_recurrent(path2), enum_rungs(path2).rungs
    assert dfs.count([rec, [], rec, rec], ignite=False) == [1, 8, 0, 0, 0]
    assert dfs.count([rec, rec, []], ignite=False) == [1, 8, 45, 0]
    assert dfs.count([[], symbols], ignite=True) == [1, 0, 0]
    assert dfs.count([symbols, [], symbols], ignite=True, two_sided=True) == [1, 5, 0, 0]
    assert dfs.count([], ignite=False) == [1]


def _inline_right_step(dfs, state, tbl):
    """The right-burn step as one loop over the held sets."""
    n, full = dfs.n, dfs.full
    out = []
    for t in range(1 << n):
        y, z = -1, 0
        while z != y:
            y, z = z, tbl[(state[z] & full) << n | t]
        out.append(y | (y == full and state[y] >> n) << n)
    return tuple(out)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_right_step_is_its_entries(data):
    # every entry is one fixed point, and acceptance reads the entries
    # it needs without taking the step: tested, then taken into the memo
    # and read back off it
    graph = builtin_graph(data.draw(st.sampled_from(
        ["point", "path2", "path3", "cycle3", "path4"])))
    dfs = _SequenceDFS(graph)
    n, full = dfs.n, dfs.full
    rungs = data.draw(st.lists(st.sampled_from(_stable_rungs(graph)),
                               min_size=1, max_size=5))
    dfs._memo()
    for state in (tuple(full | 1 << n for _ in range(1 << n)), dfs.sink):
        for tbl in dfs.rows(rungs):
            child = dfs.right_step(state, tbl)
            assert child == _inline_right_step(dfs, state, tbl)
            assert child == tuple(dfs._entry(state, tbl, t) for t in range(1 << n))
            s = dfs._id(state)
            for ignite in (False, True):
                accepted = bool(child[full] >> n and (not ignite or child[0] & full))
                for whole in (False, True):
                    taken = dfs._take(s, [tbl], ignite, whole)
                    assert [k for k, _ in taken] == ([0] if accepted else [])
                assert all(dfs._states[kid] == child for _, kid in taken)
            state = child


@pytest.mark.parametrize("name", ["point", "path2", "path3", "cycle3", "path4", "cycle4"])
def test_fold_is_the_bfs_of_right_step(name):
    # the states a breadth-first search of right_step reaches from the
    # source, keeping the ignited children that burn every row, are the
    # fold's once each entry's flag (entry == full) is restored, and every
    # step of the fold is right_step's
    graph = builtin_graph(name)
    dfs = _SequenceDFS(graph)
    n, full = dfs.n, dfs.full
    rungs = enum_rungs(graph).rungs
    tbls = dfs.rows(rungs)
    found = dfs.fold(rungs, 10 ** 6)
    states = [tuple(e | (e == full) << n for e in row) for row in found.states.tolist()]
    reached, queue = set(), [dfs.source]
    for state in queue:
        for tbl in tbls:
            child = dfs.right_step(state, tbl)
            if child[full] >> n and child[0] & full:
                if child not in reached:
                    reached.add(child)
                    queue.append(child)
    assert len(states) == len(set(states)) == {
        "point": 1, "path2": 3, "path3": 15, "cycle3": 19, "path4": 111, "cycle4": 183}[name]
    assert set(states) == reached
    for c, q in enumerate(found.first.tolist()):
        assert dfs.right_step(dfs.source, tbls[c]) == states[q]
    for p, c, q in zip(found.src.tolist(), found.rung.tolist(), found.dst.tolist()):
        assert dfs.right_step(states[p], tbls[c]) == states[q]


def _check_against_reference(data, graph):
    dfs, ref = _SequenceDFS(graph), _RowMaskEngine(graph)
    symbols, recurrent = enum_rungs(graph).rungs, single_rung_recurrent(graph)
    n_max = data.draw(st.integers(0, {1: 6, 2: 4, 3: 3}.get(graph.n, 2)))
    for ignite, alphabet in ((True, symbols), (False, recurrent)):
        rungs = data.draw(st.one_of(st.just(list(alphabet)),
                                    st.permutations(alphabet)))
        assert ([tuple(p) for p in dfs.walk(rungs, n_max, ignite)]
                == [tuple(p) for p in ref.walk(rungs, n_max, ignite)])
    for alphabet in (_stable_rungs(graph), symbols, recurrent):
        for _ in range(3):
            rungs = data.draw(st.lists(st.sampled_from(alphabet), min_size=1,
                                       max_size=8))
            # a maximal rung last ends the prefixes that ignite it
            for window in (rungs, rungs + [ref.cmax]):
                assert _engine_run(dfs, window)[0] == ref.last_max_prefix(window)
            for ignite in (True, False):
                assert _engine_run(dfs, rungs, ignite)[1] == ref.accepts(rungs, ignite)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_engine_matches_the_reference_engine(data):
    graph = builtin_graph(data.draw(st.sampled_from(
        ["point", "path2", "path3", "cycle3", "path4", "cycle4"])))
    _check_against_reference(data, graph)


@settings(max_examples=15, deadline=None)
@given(graph=connected_graphs(), data=st.data())
def test_engine_matches_the_reference_engine_on_random_graphs(graph, data):
    _check_against_reference(data, graph)


def _check_layers_against_reference(data, graph):
    # recurrence and both last-maximal indices, on windows drawn from each
    # alphabet, their mirror images and joins across a maximal rung; about
    # half of them are not recurrent
    dfs, ref = _SequenceDFS(graph), _RowMaskEngine(graph)
    for alphabet in (_stable_rungs(graph), enum_rungs(graph).rungs,
                     single_rung_recurrent(graph)):
        rungs = data.draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=8))
        for window in (rungs, rungs[::-1], rungs + [ref.cmax] + rungs[::-1]):
            assert dfs.layers(window) == (ref.accepts(window, False),
                                          ref.last_max_prefix(window),
                                          ref.last_max_prefix(window[::-1]))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_layers_match_the_reference_engine(data):
    graph = builtin_graph(data.draw(st.sampled_from(
        ["point", "path2", "path3", "cycle3", "path4", "cycle4"])))
    _check_layers_against_reference(data, graph)


@settings(max_examples=15, deadline=None)
@given(graph=connected_graphs(), data=st.data())
def test_layers_match_the_reference_engine_on_random_graphs(graph, data):
    _check_layers_against_reference(data, graph)


@pytest.mark.parametrize("bad", [(4, 1), (3,), (3, 3, 3), (0, 3), (2.5, 3), (3, "3")])
def test_the_engine_refuses_unstable_rungs_before_burning(path2, bad):
    # the refused rung, and the good one read beside it, leave no table row
    dfs = _SequenceDFS(path2)
    for call in (lambda w: _engine_run(dfs, w), lambda w: _engine_run(dfs, w, False),
                 dfs.layers, lambda w: list(dfs.walk(w, 2, True))):
        with pytest.raises(ValidationError, match="is not a stable rung"):
            call([(3, 3), bad])
        assert dfs.tables == {}
    assert _engine_run(dfs, [(3, 3), (2.0, 3)])[1]  # a height is compared by value


@pytest.mark.parametrize("name", ["point", "path2", "cycle3", "path4"])
def test_table_rows_are_bytes_of_the_burn_table(name):
    # one byte an entry, as the table's uint8 holds it; the verdicts read
    # off them are those of the reference engine's rows of Python ints
    graph = builtin_graph(name)
    dfs, ref = _SequenceDFS(graph), _RowMaskEngine(graph)
    rungs = _stable_rungs(graph)
    rows = dfs.rows(rungs)
    assert all(type(row) is bytes and len(row) == 4 ** graph.n for row in rows)
    assert [list(row) for row in rows] == burn_table(graph, rungs).tolist()
    windows = [list(w) for w in itertools.islice(
        itertools.product(rungs, repeat=3), 0, None, max(1, len(rungs) ** 3 // 400))]
    _check_windows_against_reference(dfs, ref, windows)


def _check_windows_against_reference(dfs, ref, windows):
    for window in windows:
        assert dfs.layers(window) == (ref.accepts(window, False),
                                      ref.last_max_prefix(window),
                                      ref.last_max_prefix(window[::-1]))
        assert _engine_run(dfs, window)[1] == ref.accepts(window, True)


@pytest.mark.parametrize("name, width", [("path2", 64), ("path4", 64), ("cycle4", 64),
                                         ("path5", 16)])
def test_long_windows_match_the_reference_engine(name, width):
    # chain-sampled windows (left-burnable), mirror images of others
    # (right-burnable), joins of the two, and windows with one stable rung
    # swapped in or with a second rung that ends a prefix that is not
    # recurrent, read after a count of two rungs has marked those
    # prefixes' children dead in the memo
    graph = builtin_graph(name)
    dfs, ref = _SequenceDFS(graph), _RowMaskEngine(graph)
    recurrent = single_rung_recurrent(graph)
    dfs.count([recurrent, recurrent, []], ignite=False)
    left = [list(w) for w in sample_chain_windows(graph, width, 12, seed=29)]
    right = [list(w)[::-1] for w in sample_chain_windows(graph, width, 12, seed=30)]
    stable = _stable_rungs(graph)
    windows = left + right
    for k, (a, b) in enumerate(zip(left, right)):
        cut = (k * 5 + 3) % width
        windows.append(a[:cut] + b[cut:])
        windows.append(a[:cut] + [stable[k * 7 % len(stable)]] + a[cut + 1:])
        turned = recurrent[k:] + recurrent[:k]
        dead = next((c for c in turned if not ref.accepts([a[0], c], False)), None)
        if dead is not None:
            windows.append(a[:1] + [dead] + a[2:])
    assert len(windows) > 4 * len(left)
    _check_windows_against_reference(dfs, ref, windows)


@pytest.mark.parametrize("name", ["path2", "cycle3"])
def test_the_engine_keeps_one_memo_of_right_steps(name, monkeypatch):
    # an engine that has only read table rows and folded holds no memo;
    # counts, walks and boundary layers then fill one memo, which the same
    # calls repeated read without a step, and whose every entry is
    # right_step of its state (or, marked dead, a child that rejects)
    graph = builtin_graph(name)
    _engine.cache_clear()
    dfs = _engine(graph)
    dfs.fold(enum_rungs(graph).rungs, 10 ** 6)
    assert "_kids" not in vars(dfs)

    def calls():
        counts = [count_series(graph, variant, 4).values for variant in VARIANTS]
        walks = [list(iter_recurrent(graph, 3)), list(iter_left_burnable(graph, 3))]
        layers = [boundary_layer(graph, LadderConfig.from_rungs(w, start=0))
                  for w in walks[0][::7]]
        return counts, walks, layers

    first = calls()
    steps = []
    right_step = _SequenceDFS.right_step

    def counted(self, state, tbl):
        steps.append((state, tbl))
        return right_step(self, state, tbl)

    monkeypatch.setattr(_SequenceDFS, "right_step", counted)
    assert calls() == first
    assert steps == [] and _engine(graph) is dfs
    n, full = dfs.n, dfs.full
    assert dfs._states[:2] == [dfs.source, dfs.sink]
    assert len(dfs._kids) == len(dfs._ids) == len(dfs._flags) == len(dfs._states)
    dead = 0
    for s, (state, kids) in enumerate(zip(dfs._states, dfs._kids)):
        assert dfs._ids[state] == s
        assert dfs._flags[s] == bool(state[0] & full) | state[full] >> n << 1
        for tbl, kid in kids.items():
            child = right_step(dfs, state, tbl)
            if kid == _DEAD:
                dead += 1
                assert not child[full] >> n
            else:
                assert dfs._states[kid] == child
    assert dead > 0


@pytest.mark.parametrize("name, n_max", [("path3", 3), ("cycle4", 2), ("path5", 2)])
def test_walks_step_each_state_and_rung_at_most_once(name, n_max, monkeypatch):
    # a walk takes a whole step only to descend from a prefix shorter than
    # n_max, once per distinct state of those prefixes and rung (its table
    # row) within the engine's life, and only tests the prefixes of n_max
    # rungs
    graph = builtin_graph(name)
    dfs = _SequenceDFS(graph)
    rungs = single_rung_recurrent(graph)
    steps = []
    right_step = _SequenceDFS.right_step

    def counted(self, state, tbl):
        steps.append((state, tbl))
        return right_step(self, state, tbl)

    monkeypatch.setattr(_SequenceDFS, "right_step", counted)
    assert sum(1 for _ in dfs.walk(rungs, 1, ignite=False)) == len(rungs) + 1
    assert steps == []
    walked = [tuple(p) for p in dfs.walk(rungs, n_max, ignite=False)]
    assert walked == [tuple(p) for p in _RowMaskEngine(graph).walk(rungs, n_max, False)]
    assert len(set(steps)) == len(steps)
    states = set()
    for prefix in walked:
        if len(prefix) < n_max:
            state = dfs.source
            for tbl in dfs.rows(prefix):
                state = right_step(dfs, state, tbl)
            states.add(state)
    assert {state for state, _ in steps} <= states
    assert 0 < len(steps) <= len(states) * len(rungs)


def test_walks_on_five_vertices_yield_every_window():
    path5 = builtin_graph("path5")
    assert (sum(1 for _ in iter_recurrent(path5, 2))
            == recurrent_counts(path5, 2)[1] == 90915)
    assert (sum(1 for _ in iter_left_burnable(path5, 2))
            == count_series(path5, "L", 2)[2] == 59891)


@pytest.mark.parametrize("name", ["path3", "cycle4"])
def test_a_walk_can_go_thousands_of_rungs_deep(name):
    # a walk keeps its path on lists, not on the Python call stack
    graph = builtin_graph(name)
    dfs = _SequenceDFS(graph)
    assert _engine_run(dfs, next(iter_recurrent(graph, 1500)), False)[1]
    assert _engine_run(dfs, next(iter_left_burnable(graph, 1500)))[1]


@pytest.mark.parametrize("name", ["point", "path2", "path3", "cycle3", "path4", "cycle4"])
def test_rung_alphabet_lookup_agrees_with_a_scan_of_its_rungs(name):
    # membership and index read a dict; a scan of the tuple is the oracle,
    # comparing heights by value as the dict does
    graph = builtin_graph(name)
    alphabet = enum_rungs(graph)
    stable = itertools.product(*[range(1, m + 1) for m in graph.max_height])
    for rung in stable:
        for probe in (rung, tuple(map(float, rung)), tuple(map(np.int64, rung)),
                      (rung[0] + 0.5,) + rung[1:], rung + (1,), rung[:-1],
                      list(rung)):
            inside = any(tuple(probe) == c for c in alphabet.rungs)
            assert (probe in alphabet) == inside, probe
            if inside:
                assert alphabet.index(probe) == alphabet.rungs.index(tuple(probe))
            else:
                with pytest.raises(ValidationError, match="not in the alphabet"):
                    alphabet.index(probe)
    assert [alphabet.index(c) for c in alphabet] == list(range(len(alphabet)))
    assert [[1]] + [0] * (graph.n - 1) not in alphabet  # an unhashable height
