import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from laddersand.burning import (full_burnable, left_burnable, max_rung,
                                right_burnable, window_heights)
from laddersand.census import (_SequenceDFS, _engine, count_series, enum_rungs,
                               iter_left_burnable, iter_recurrent, single_rung_recurrent)
from laddersand.coding import CodingAutomaton, build_coding, parry_chain, spectral
from laddersand.errors import FeasibilityError, ValidationError
from laddersand.graphs import Window, builtin_graph, make_graph
from laddersand.measures import (DEFAULT_TAIL_TOL, METHODS, BoundaryLayers,
                                 CylinderEvent, _AutomatonBundle, boundary_layer,
                                 cylinder_prob, mixture_experiment, renewal_quantities,
                                 right_cylinder_prob, sample_chain_windows,
                                 sample_finite_exact, sample_window_config)
from laddersand.toppling import LadderConfig
from test_coding import connected_graphs

SQRT3 = math.sqrt(3)
RENEWAL_MASS = (SQRT3 - 1) / 2  # stationary share of the all-maximal rung


def test_renewal_quantities_path2(path2):
    rd = renewal_quantities(path2)
    assert abs(rd.lam - (2 - SQRT3)) <= 1e-14
    assert abs(rd.alpha - (SQRT3 + 1) / 2) <= 1e-14
    assert abs(rd.mean_gap - (SQRT3 + 1)) <= 1e-14
    assert abs(rd.renewal_density - RENEWAL_MASS) <= 1e-14
    assert rd.tail_bound <= DEFAULT_TAIL_TOL


def test_renewal_matches_growth_rate(path2):
    from laddersand.coding import build_coding, spectral
    rd = renewal_quantities(path2)
    rho = spectral(build_coding(path2)).rho
    assert abs(rd.lam * rho - 1) < 1e-9
    assert abs(rd.lam - math.exp(-math.log(rho))) < 1e-9


def test_renewal_density_equals_stationary_renewal_mass(path2):
    # alpha*lam is the renewal density, which must match the stationary
    # chain's mass on the all-maximal state
    from laddersand.burning import max_rung
    from laddersand.coding import build_coding, parry_chain
    rd = renewal_quantities(path2)
    auto = build_coding(path2)
    chain = parry_chain(auto)
    pi_max = chain.stationary[auto.inclusion[max_rung(path2)]]
    assert abs(rd.alpha * rd.lam - 1 / rd.mean_gap) < 1e-12
    assert abs(rd.alpha * rd.lam - pi_max) < 1e-8


def test_cylinder_agreement_centered_window(path2):
    # five fixed rungs spanning [-2, 2], compared across all methods at
    # the default DP window
    ev = CylinderEvent.centered([(3, 3), (3, 2), (3, 3), (2, 3), (3, 3)])
    vals = {m: cylinder_prob(path2, ev, m).value
            for m in ("parry", "renewal", "finite_dp")}
    assert vals["parry"] > 0
    assert abs(vals["renewal"] - vals["parry"]) <= 1e-12
    assert abs(vals["finite_dp"] - vals["parry"]) < 1e-6


def test_three_way_agreement_on_path3(path3):
    rd = renewal_quantities(path3)
    assert rd.tail_bound <= 1e-9
    assert abs(rd.lam * spectral(build_coding(path3)).rho - 1) < 1e-9
    for ev in (CylinderEvent.single((3, 4, 3)),
               CylinderEvent.centered([(3, 4, 3), (2, 4, 3), (3, 4, 3)]),
               CylinderEvent(rungs=((3, 1, 3), (3, 4, 3)), lo=1),
               CylinderEvent.single((1, 4, 2), at=-2)):
        vals = {m: cylinder_prob(path3, ev, m).value
                for m in ("parry", "renewal", "finite_dp")}
        assert vals["parry"] > 0
        assert abs(vals["renewal"] - vals["parry"]) < 1e-9
        assert abs(vals["finite_dp"] - vals["parry"]) < 1e-9


def _assert_renewal_agrees_with_parry(graph, events=20):
    """The renewal root is the reciprocal of the automaton's growth rate,
    and renewal and parry agree on random events of one to three rungs."""
    rd = renewal_quantities(graph)
    assert rd.tail_bound <= DEFAULT_TAIL_TOL
    assert abs(rd.lam * _AutomatonBundle.get(graph).chain.rho - 1) <= 1e-12
    rng = random.Random(len(graph.edges))
    alphabet = enum_rungs(graph).rungs
    for _ in range(events):
        ev = CylinderEvent(rungs=[rng.choice(alphabet)
                                  for _ in range(rng.randint(1, 3))],
                           lo=rng.randint(-3, 3))
        renewal = cylinder_prob(graph, ev, "renewal")
        assert renewal.detail["tail_bound"] <= DEFAULT_TAIL_TOL
        assert abs(renewal.value - cylinder_prob(graph, ev, "parry").value) <= 1e-12


@pytest.mark.parametrize("name", ["point", "path2", "path3", "cycle3",
                                  "path4", "cycle4"])
def test_renewal_agrees_with_parry(name):
    _assert_renewal_agrees_with_parry(builtin_graph(name))


@settings(max_examples=10, deadline=None)
@given(graph=connected_graphs())
def test_renewal_agrees_with_parry_on_random_graphs(graph):
    _assert_renewal_agrees_with_parry(graph, events=5)


def test_renewal_agrees_with_parry_on_five_vertices():
    # 10512 states, primitive; some entries of the left Perron vector
    # are below 1e-16, which once made parry refuse the automaton
    graph = make_graph(5, [(0, 2), (0, 4), (1, 4), (2, 4), (3, 4)])
    _assert_renewal_agrees_with_parry(graph, events=3)


def test_a_warm_renewal_query_does_no_linear_algebra(path3, monkeypatch):
    import laddersand.measures as measures
    first = renewal_quantities(path3)
    assert cylinder_prob(path3, CylinderEvent.single((3, 4, 3)), "renewal").value > 0

    def refuse(*args, **kwargs):
        raise AssertionError("a warm renewal query did linear algebra")

    for name in ("_perron", "_quotient", "_resolvent"):
        monkeypatch.setattr(measures, name, refuse)
    for name in ("eig", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse)
    ev = CylinderEvent.centered([(3, 4, 3), (2, 4, 3), (3, 4, 3)])
    res = cylinder_prob(path3, ev, "renewal")
    assert res.value > 0 and res.detail["tail_bound"] == first.tail_bound
    assert renewal_quantities(path3) is first


def test_renewal_refuses_a_root_off_its_certificate(capsys, monkeypatch):
    import laddersand.measures as measures
    from laddersand.cli import main
    perron = measures._perron

    def off(a):
        rho, vec = perron(a)
        return rho * (1 + 1e-6), vec

    monkeypatch.setattr(measures, "_perron", off)
    monkeypatch.setattr(_AutomatonBundle, "_cache", {})
    cycle3 = builtin_graph("cycle3")
    with pytest.raises(FeasibilityError, match="renewal mass"):
        renewal_quantities(cycle3)
    with pytest.raises(FeasibilityError, match="renewal mass"):
        cylinder_prob(cycle3, CylinderEvent.single((4, 4, 4)), "renewal")
    assert main(["measure", "--graph", "cycle3", "--event", "4,4,4",
                 "--method", "renewal"]) == 3
    assert "renewal mass" in capsys.readouterr().err


def test_renewal_point_degenerate(point):
    rd = renewal_quantities(point)
    assert rd.lam == 1.0 and rd.mean_gap == 1.0 and rd.alpha == 1.0


def test_cylinder_methods_agree_on_renewal_mass(path2):
    ev = CylinderEvent.single((3, 3))
    parry = cylinder_prob(path2, ev, "parry").value
    renewal = cylinder_prob(path2, ev, "renewal").value
    dp = cylinder_prob(path2, ev, "finite_dp").value
    assert abs(parry - RENEWAL_MASS) < 1e-9
    assert abs(renewal - parry) <= 1e-12
    assert abs(renewal - RENEWAL_MASS) < 1e-6
    assert abs(dp - RENEWAL_MASS) < 1e-6


@pytest.mark.parametrize("rungs", [
    ((3, 1),),
    ((3, 1), (3, 2)),
    ((3, 3), (2, 3), (3, 1)),
    ((3, 3), (2, 3), (3, 1), (3, 3)),
])
def test_cylinder_method_agreement(path2, rungs):
    ev = CylinderEvent(rungs=rungs, lo=0)
    vals = {m: cylinder_prob(path2, ev, m).value
            for m in ("parry", "renewal", "finite_dp")}
    assert abs(vals["parry"] - vals["renewal"]) <= 1e-12
    assert abs(vals["parry"] - vals["finite_dp"]) < 1e-6


def test_cylinder_edge_cases(path2):
    assert cylinder_prob(path2, CylinderEvent(rungs=()), "parry").value == 1.0
    res = cylinder_prob(path2, CylinderEvent(rungs=((3, 1), (1, 3))), "parry")
    assert res.value == 0.0 and res.valid  # admissible rungs, excluded pattern
    res = cylinder_prob(path2, CylinderEvent(rungs=((2, 2),)), "parry")
    assert res.value == 0.0 and not res.valid  # inadmissible rung, flagged
    with pytest.raises(ValidationError):
        cylinder_prob(path2, CylinderEvent(rungs=((1, 2, 3),)), "parry")
    with pytest.raises(ValidationError):
        cylinder_prob(path2, CylinderEvent.single((3, 3)), "sorcery")


@pytest.mark.parametrize("rungs", [(), ((2, 2),), ((3, 3),)],
                         ids=["empty", "outside-alphabet", "admissible"])
def test_cylinder_prob_refuses_an_unknown_method_first(path2, rungs, monkeypatch):
    monkeypatch.setattr(_AutomatonBundle, "_cache", {})
    with pytest.raises(ValidationError, match="unknown method 'bogus'"):
        cylinder_prob(path2, CylinderEvent(rungs), "bogus")
    assert _AutomatonBundle._cache == {}  # refused before any automaton


@pytest.mark.parametrize("call", [
    lambda g: cylinder_prob(g, CylinderEvent.single((3, 3)), "finite_dp",
                            dp_halfwidth=2.5),
    lambda g: cylinder_prob(g, CylinderEvent(((3, 3),), lo=0.5), "finite_dp"),
    lambda g: sample_chain_windows(g, 2, 1.5, 0),
    lambda g: sample_chain_windows(g, 2.0, 1, 0),
    lambda g: sample_chain_windows(g, 2, 1, 1.5),
    lambda g: sample_finite_exact(g, 0, 2, 0, count=1.5),
    lambda g: sample_finite_exact(g, 0, 2.5, 0),
    lambda g: sample_finite_exact(g, 0, 2, 1.5),
    lambda g: sample_window_config(g, 1.5, 0),
], ids=["cylinder_prob-dp_halfwidth", "CylinderEvent-lo",
        "sample_chain_windows-count", "sample_chain_windows-width",
        "sample_chain_windows-seed", "sample_finite_exact-count",
        "sample_finite_exact-window", "sample_finite_exact-seed",
        "sample_window_config-halfwidth"])
def test_measures_refuse_non_integer_positions_and_sizes(path2, call):
    with pytest.raises(ValidationError, match="is not an integer"):
        call(path2)


@pytest.mark.parametrize("call", [
    lambda g: sample_chain_windows(g, 2, 1, -1),
    lambda g: sample_finite_exact(g, 0, 2, -1),
    lambda g: sample_window_config(g, 1, -1),
    lambda g: sample_chain_windows(g, 2, 1, True),
], ids=["sample_chain_windows", "sample_finite_exact", "sample_window_config",
        "sample_chain_windows-bool"])
def test_samplers_refuse_seeds_that_are_not_non_negative_integers(path2, call):
    # numpy refused -1 untyped, and random.Random took it as 1
    with pytest.raises(ValidationError, match="seed"):
        call(path2)


def test_sample_window_config_refuses_a_negative_halfwidth(path2):
    # it read as a window of width -1
    with pytest.raises(ValidationError) as refusal:
        sample_window_config(path2, -1, 0)
    assert str(refusal.value) == "halfwidth must be >= 0"
    assert len(sample_window_config(path2, 0, 0).window) == 1


def test_measures_take_numpy_integers(path2):
    two, one, zero = np.int64(2), np.int64(1), np.int64(0)
    assert (sample_chain_windows(path2, two, one, zero)
            == sample_chain_windows(path2, 2, 1, 0))
    assert (sample_finite_exact(path2, zero, two, zero, count=one)[0].heights
            == sample_finite_exact(path2, 0, 2, 0)[0].heights).all()
    assert (cylinder_prob(path2, CylinderEvent(((3, 3),), lo=one), "finite_dp",
                          dp_halfwidth=two).value
            == cylinder_prob(path2, CylinderEvent(((3, 3),), lo=1), "finite_dp",
                             dp_halfwidth=2).value)


def test_cylinder_exact_dp(path2):
    res = cylinder_prob(path2, CylinderEvent.single((3, 3)), "finite_dp",
                        dp_halfwidth=8, exact=True)
    frac = res.detail["exact"]
    assert float(frac) == res.value
    assert 0 < frac < 1
    # the reduced denominator divides the window's total word count
    from laddersand.coding import build_coding
    total = build_coding(path2).count_words(17)
    assert total % frac.denominator == 0


@pytest.mark.parametrize("name", ["path2", "path3", "cycle3"])
def test_window_counts_total_is_the_word_count(name):
    bundle = _AutomatonBundle.get(builtin_graph(name))
    for length in (1, 2, 9, 17):
        prefix, suffix, total = bundle.window_counts(length)
        assert len(prefix) == len(suffix) == length
        assert total == bundle.automaton.count_words(length)
    assert bundle.window_counts(17)[0] is bundle.window_counts(17)[0]


@pytest.mark.parametrize("name", ["path2", "path3", "cycle3"])
def test_parry_walk_matches_dense_product(name):
    # reference: the stationary chain carried through full vector-matrix
    # products, masked to each rung's states over the whole automaton
    g = builtin_graph(name)
    bundle = _AutomatonBundle.get(g)
    chain, states = parry_chain(bundle.automaton), bundle.automaton.states
    alphabet = bundle.automaton.alphabet
    rng = random.Random(3)
    for _ in range(60):
        rungs = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 4)))
        vec = chain.stationary * np.array([s.rung == rungs[0] for s in states])
        for c in rungs[1:]:
            vec = (vec @ chain.matrix) * np.array([s.rung == c for s in states])
        value = cylinder_prob(g, CylinderEvent(rungs=rungs), "parry").value
        assert value == pytest.approx(float(vec.sum()), rel=1e-12, abs=1e-300)


def test_reflection_identity(path2):
    ev = CylinderEvent(rungs=((3, 3), (2, 3), (3, 1), (3, 3)), lo=0)
    left_of_reflected = cylinder_prob(path2, ev.reflected(), "parry").value
    assert right_cylinder_prob(path2, ev, "parry").value == left_of_reflected
    # the reflected pattern is not left-burnable anywhere, so the
    # right-sided measure gives it mass zero while the left-sided is positive
    assert right_cylinder_prob(path2, ev, "parry").value == 0.0
    assert cylinder_prob(path2, ev, "parry").value > 0


def test_event_constructors():
    ev = CylinderEvent.centered([(3, 3), (3, 2), (3, 3)])
    assert ev.lo == -1 and ev.hi == 1
    with pytest.raises(ValidationError):
        CylinderEvent.centered([(3, 3), (3, 2)])
    ev = CylinderEvent.single((3, 1), at=4)
    assert ev.lo == 4 and ev.hi == 4
    assert ev.shifted(-4).lo == 0
    r = CylinderEvent(rungs=((1, 3), (3, 3)), lo=0).reflected()
    assert r.rungs == ((3, 3), (1, 3)) and r.lo == -1 and r.hi == 0


def test_chain_samples_are_burnable(path2):
    windows = sample_chain_windows(path2, 6, 400, seed=3)
    assert len(windows) == 400
    for w in windows:
        hm = window_heights(w)
        assert left_burnable(path2, hm).success
        # reflected samples are right-burnable
        assert right_burnable(path2,
                              {(x, -k): h for (x, k), h in hm.items()}).success


def test_chain_samples_deterministic(path2):
    a = sample_chain_windows(path2, 5, 50, seed=9)
    b = sample_chain_windows(path2, 5, 50, seed=9)
    c = sample_chain_windows(path2, 5, 50, seed=10)
    assert a == b
    assert a != c


def test_chain_renewal_frequency(path2):
    n = 20000
    windows = sample_chain_windows(path2, 1, n, seed=12)
    freq = sum(w[0] == (3, 3) for w in windows) / n
    sigma = math.sqrt(RENEWAL_MASS * (1 - RENEWAL_MASS) / n)
    assert abs(freq - RENEWAL_MASS) < 3 * sigma


def test_exact_sampler_single_rung_uniform(path2):
    n = 5000
    cfgs = sample_finite_exact(path2, 0, 0, seed=1, count=n)
    counts = Counter(tuple(c.heights[0].tolist()) for c in cfgs)
    assert set(counts) == {(1, 3), (2, 3), (3, 1), (3, 2), (3, 3)}
    sigma = math.sqrt(0.2 * 0.8 / n)
    for v in counts.values():
        assert abs(v / n - 0.2) < 3 * sigma


def test_exact_sampler_window_uniform(path2):
    # every window of length 3 appears at a rate consistent with 1/71
    n = 6000
    cfgs = sample_finite_exact(path2, 1, 3, seed=2, count=n)
    counts = Counter(tuple(map(tuple, c.heights.tolist())) for c in cfgs)
    assert len(counts) == 71
    p = 1 / 71
    sigma = math.sqrt(p * (1 - p) / n)
    for v in counts.values():
        assert abs(v / n - p) < 3 * sigma
    for cfg in cfgs[:100]:
        assert left_burnable(path2, cfg.heights_map()).success


def test_conditional_independence_across_renewal(path2):
    # given a maximal middle rung, the two outer rungs of exact uniform
    # three-rung samples are independent
    n = 10000
    cfgs = sample_finite_exact(path2, 1, 3, seed=4, count=n)
    table = Counter()
    for c in cfgs:
        rows = tuple(map(tuple, c.heights.tolist()))
        if rows[1] == (3, 3):
            table[(rows[0], rows[2])] += 1
    total = sum(table.values())
    lefts = Counter({a: 0 for a, _ in table})
    rights = Counter({b: 0 for _, b in table})
    for (a, b), v in table.items():
        lefts[a] += v
        rights[b] += v
    chi2 = 0.0
    for a in lefts:
        for b in rights:
            expected = lefts[a] * rights[b] / total
            observed = table.get((a, b), 0)
            if expected > 0:
                chi2 += (observed - expected) ** 2 / expected
    df = (len(lefts) - 1) * (len(rights) - 1)
    assert df == 16
    assert chi2 < 32.0  # chi-square critical value, df=16, level 0.01


def test_boundary_layer_all_max(path2):
    cfg = LadderConfig.from_rungs([(3, 3)] * 5, start=-2)
    bl = boundary_layer(path2, cfg)
    assert bl.sigma_left == 2 and bl.sigma_right == -2
    assert bl.overlap


def test_boundary_layer_one_sided_block(path2):
    # the one-sided pattern forces the right-burnable part to start at
    # its final maximal rung or later
    rows = [(3, 3), (2, 3), (3, 1), (3, 3), (3, 3), (3, 3)]
    cfg = LadderConfig.from_rungs(rows, start=1)
    bl = boundary_layer(path2, cfg)
    assert bl.sigma_left == 6
    assert bl.sigma_right == 4
    assert bl.hat_right == 1


def test_boundary_layer_sentinels(path2):
    cfg = LadderConfig.from_rungs([(3, 2), (2, 3)], start=0)
    bl = boundary_layer(path2, cfg)
    assert bl.sigma_left == -1 and bl.sigma_right == 2
    assert bl.hat_left == 2 and bl.hat_right == -1
    assert not bl.overlap


def test_boundary_layer_requires_recurrent(path2):
    cfg = LadderConfig.from_rungs([(1, 1)], start=0)
    with pytest.raises(ValidationError):
        boundary_layer(path2, cfg)


def test_boundary_layer_narrows(path2):
    # the relative split width shrinks as windows grow
    def mean_width(length):
        total = 0.0
        count = 0
        for rungs in iter_recurrent(path2, length):
            cfg = LadderConfig.from_rungs(rungs, start=1)
            bl = boundary_layer(path2, cfg)
            total += abs(bl.sigma_left - bl.sigma_right) / (length - 1)
            count += 1
        return total / count

    w4 = mean_width(4)
    w6 = mean_width(6)
    # sentinels can push single windows past 1, so only the trend and
    # the larger-window level are asserted
    assert w6 < w4
    assert w6 < 1.0


def _boundary_layer_definition(graph, config):
    """The boundary layers by their definition: the last maximal rung
    ending a left-burnable prefix and the first starting a
    right-burnable suffix, each prefix and suffix burnt on its own."""
    window = config.window
    heights = config.heights_map()
    if not full_burnable(graph, heights).success:
        raise ValidationError("configuration is not recurrent")
    cmax = max_rung(graph)
    maxes = [k for k in window.rungs
             if tuple(config.heights[k - window.n].tolist()) == cmax]
    sigma_left = next((k for k in reversed(maxes) if left_burnable(
        graph, {s: h for s, h in heights.items() if s[1] <= k}).success), window.n - 1)
    sigma_right = next((k for k in maxes if right_burnable(
        graph, {s: h for s, h in heights.items() if s[1] >= k}).success), window.m + 1)
    hat_right = next((k for k in reversed(maxes) if k < sigma_right), window.n - 1)
    hat_left = next((k for k in maxes if k > sigma_left), window.m + 1)
    return BoundaryLayers(sigma_left=sigma_left, sigma_right=sigma_right,
                          hat_left=hat_left, hat_right=hat_right,
                          overlap=sigma_left >= sigma_right)


def _assert_layers_as_defined(graph, rungs, start=1):
    config = LadderConfig.from_rungs(rungs, start=start)
    assert boundary_layer(graph, config) == _boundary_layer_definition(graph, config)


@pytest.mark.parametrize("name, n_max", [("point", 6), ("path2", 5), ("path3", 2),
                                         ("cycle3", 2), ("path4", 1), ("cycle4", 1)])
def test_boundary_layer_matches_its_definition(name, n_max):
    graph = builtin_graph(name)
    for n in range(1, n_max + 1):
        for i, rungs in enumerate(iter_recurrent(graph, n)):
            _assert_layers_as_defined(graph, rungs, start=i % 5 - 2)


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_boundary_layer_matches_its_definition_on_random_graphs(data):
    graph = data.draw(connected_graphs())
    rungs = data.draw(st.lists(st.sampled_from(single_rung_recurrent(graph)),
                               min_size=1, max_size=6))
    config = LadderConfig.from_rungs(rungs)
    try:
        expected = _boundary_layer_definition(graph, config)
    except ValidationError:
        with pytest.raises(ValidationError, match="not recurrent"):
            boundary_layer(graph, config)
    else:
        assert boundary_layer(graph, config) == expected
    for i, window in enumerate(iter_recurrent(graph, 2)):
        if i % 7 == 0:
            _assert_layers_as_defined(graph, window)


@pytest.mark.parametrize("name", ["path2", "path3", "cycle3"])
def test_boundary_layer_matches_its_definition_on_long_windows(name):
    # chain samples are left-burnable, their mirror images right-burnable,
    # and the recurrent concatenations of the two are mostly neither
    graph = builtin_graph(name)
    left = sample_chain_windows(graph, 32, 30, seed=5)
    right = [w[::-1] for w in sample_chain_windows(graph, 32, 30, seed=6)]
    neither = 0
    for rungs in left + right:
        _assert_layers_as_defined(graph, rungs)
    for a, b in zip(left, right):
        for rungs in (a + b, a[:9] + b[:20]):
            if full_burnable(graph, window_heights(rungs)).success:
                _assert_layers_as_defined(graph, rungs, start=-7)
                heights = window_heights(rungs)
                neither += not (left_burnable(graph, heights).success
                                or right_burnable(graph, heights).success)
    assert neither >= 30


def test_boundary_layer_rejects_heights_outside_the_stable_range(path2):
    for bad in (0, 4):
        cfg = LadderConfig.from_rungs([(3, 3), (bad, 3), (3, 3)], start=0)
        with pytest.raises(ValidationError, match="outside stable range"):
            boundary_layer(path2, cfg)


@pytest.mark.parametrize("row", [0, 2, 4])
@pytest.mark.parametrize("bad", [0, -1, 4])
def test_boundary_layer_names_the_first_site_outside_the_stable_range(path2, row, bad):
    # a second unstable height after the first one is not the one named
    rungs = [[3, 3] for _ in range(5)]
    rungs[row][1] = bad
    if row < 4:
        rungs[4][0] = 0
    cfg = LadderConfig.from_rungs(rungs, start=-2)
    with pytest.raises(ValidationError) as refusal:
        boundary_layer(path2, cfg)
    assert str(refusal.value) == (f"height {bad} at site (1,{row - 2}) "
                                  "outside stable range 1..3")


def test_boundary_layer_refuses_unstable_rungs_on_a_cold_engine(path2):
    # the refusal reads as before, whether or not the engine has read the
    # window's stable rungs, and leaves the unstable rung out of its table
    rungs = [(3, 3), (2, 3), (3, 4), (3, 3)]
    message = "height 4 at site (1,2) outside stable range 1..3"
    _engine.cache_clear()
    for _ in range(2):
        with pytest.raises(ValidationError) as refusal:
            boundary_layer(path2, LadderConfig.from_rungs(rungs, start=0))
        assert str(refusal.value) == message
        assert list(_engine(path2).tables) in ([], [(3, 3), (2, 3)])
        boundary_layer(path2, LadderConfig.from_rungs([(3, 3), (2, 3)]))


def test_boundary_layer_rejects_heights_that_are_not_integers(path2):
    # 2.5 burnt as need 1, like a height of 3
    cfg = LadderConfig(Window(0, 2), np.array([[3, 3], [2.5, 3], [3, 3]]))
    with pytest.raises(ValidationError, match="integers"):
        boundary_layer(path2, cfg)


def test_boundary_layer_rejects_a_wrong_shape(path2):
    wide = LadderConfig.from_rungs([(3, 3, 3)] * 2)
    short = LadderConfig(Window(0, 2), np.array([[3, 3], [3, 3]]))
    for cfg in (wide, short):
        with pytest.raises(ValidationError, match="do not fit"):
            boundary_layer(path2, cfg)


def test_boundary_layer_refuses_graphs_beyond_the_table():
    # the one-rung burn table holds at most 8 vertices, like iter_recurrent
    path9 = make_graph(9, [(v, v + 1) for v in range(8)])
    cfg = LadderConfig.from_rungs([max_rung(path9)] * 2)
    with pytest.raises(FeasibilityError):
        boundary_layer(path9, cfg)


def test_window_verdicts_burn_no_window(path2, monkeypatch):
    # once the one-rung alphabets are known, every census class, the
    # mixture and the boundary layers run on the census engine alone
    import laddersand.burning as burning
    enum_rungs(path2), single_rung_recurrent(path2)
    event = CylinderEvent.centered([(3, 3)])
    cylinder_prob(path2, event), right_cylinder_prob(path2, event)

    def refuse(*args, **kwargs):
        raise AssertionError("a window verdict burnt its window")

    monkeypatch.setattr(burning, "_burn", refuse)
    for variant in ("L", "L0", "S", "S0", "REC"):
        count_series(path2, variant, 4)
    assert len(list(iter_left_burnable(path2, 3))) == count_series(path2, "L", 3)[3]
    configs = list(iter_recurrent(path2, 3))
    assert len(configs) == count_series(path2, "REC", 3)[3]
    mixture_experiment(path2, [Window(-1, 1)], event)
    for rungs in configs:
        boundary_layer(path2, LadderConfig.from_rungs(rungs))


def test_mixture_weight_orientation(path2):
    # a pattern burnable only from the left concentrates at the left
    # edge of finite windows and dies out at the right edge
    xi = ((3, 3), (2, 3), (3, 1), (3, 3))
    freq = {}
    for length in (6, 7):
        cfgs = list(iter_recurrent(path2, length))
        left = sum(c[0:4] == xi for c in cfgs) / len(cfgs)
        right = sum(c[-4:] == xi for c in cfgs) / len(cfgs)
        freq[length] = (left, right)
        assert left > right
    assert freq[7][0] > freq[6][0]
    assert freq[7][1] < freq[6][1]
    mu_l = cylinder_prob(path2, CylinderEvent(rungs=xi), "parry").value
    assert freq[7][0] < mu_l  # approaching from below


def test_mixture_rows_small(path2):
    ev = CylinderEvent.single((3, 3))
    rows = mixture_experiment(path2, [Window(-2, 2)], ev)
    row = rows[0]
    assert row.weight_left == 0.5
    assert row.total_configs == 4680
    assert row.gap == abs(row.measured - row.predicted)


def test_mixture_point_graph_measures_coincide(point):
    ev = CylinderEvent.single((2,))
    mu_l = cylinder_prob(point, ev, "parry").value
    mu_r = right_cylinder_prob(point, ev, "parry").value
    assert mu_l == mu_r == 1.0
    rows = mixture_experiment(point, [Window(-2, 2), Window(-3, 3)], ev)
    # one-sided limits coincide, so the prediction cannot depend on the
    # mixture weight; finite windows approach it from below
    assert all(r.predicted == mu_l for r in rows)
    assert rows[0].gap > rows[1].gap


def test_mixture_guards(path2):
    ev = CylinderEvent.single((3, 3), at=7)
    with pytest.raises(ValidationError):
        mixture_experiment(path2, [Window(-2, 2)], ev)
    with pytest.raises(FeasibilityError):
        mixture_experiment(path2, [Window(-8, 8)],
                           CylinderEvent.single((3, 3)), max_states=7)
    # path2's automaton has 7 states, and its recurrent windows 8 transfer
    # states from 2 rungs on, which the brute REC count holds
    with pytest.raises(FeasibilityError,
                       match="brute count exceeded max_states=7 transfer states at 2"):
        mixture_experiment(path2, [Window(-2, 2)],
                           CylinderEvent.single((3, 3)), max_states=7)
    assert mixture_experiment(path2, [Window(-2, 2)], CylinderEvent.single((3, 3)),
                              max_states=8)[0].total_configs == 4680
    with pytest.raises(ValidationError, match="max_states"):
        mixture_experiment(path2, [Window(-2, 2)], CylinderEvent.single((3, 3)),
                           max_states=0)


def test_mixture_pins_its_events_under_the_same_cap(path2, monkeypatch):
    caps = []
    count = _SequenceDFS.count

    def counted(self, depths, ignite, two_sided=False, **kwargs):
        caps.append(kwargs.get("max_states"))
        return count(self, depths, ignite, two_sided, **kwargs)

    monkeypatch.setattr(_SequenceDFS, "count", counted)
    rows = mixture_experiment(path2, [Window(-1, 1), Window(-2, 2)],
                              CylinderEvent.single((3, 3)), max_states=8)
    assert [row.total_configs for row in rows] == [224, 4680]
    assert caps == [8, 8, 8]  # the totals, then each window's pinned count


def test_mixture_counts_the_totals_once(path2, monkeypatch):
    # one REC series up to the longest window gives every window's total,
    # after every window is checked to hold the event
    import laddersand.measures as measures
    calls = []

    def counted(graph, variant, n_max, **kwargs):
        calls.append((variant, n_max))
        return count_series(graph, variant, n_max, **kwargs)

    monkeypatch.setattr(measures, "count_series", counted)
    event = CylinderEvent.single((3, 3))
    windows = [Window(-1, 1), Window(-2, 2), Window(0, 0), Window(-2, 1), Window(-1, 1)]
    rows = mixture_experiment(path2, iter(windows), event)
    assert calls == [("REC", 5)]
    assert [row.window for row in rows] == windows
    assert [row.total_configs for row in rows] == [224, 4680, 8, 1045, 224]
    with pytest.raises(ValidationError, match="does not fit"):
        mixture_experiment(path2, [Window(-2, 2), Window(1, 3)], event)
    with pytest.raises(FeasibilityError, match="max_states=7"):
        mixture_experiment(path2, [Window(-1, 1), Window(-2, 2)], event,
                           max_states=7)
    assert calls == [("REC", 5), ("REC", 5)]
    assert mixture_experiment(path2, [], event) == []
    assert calls == [("REC", 5), ("REC", 5)]


def _enumerated_frequencies(graph, length, sizes):
    """The mixture's reference by enumeration: the number of recurrent
    windows of ``length`` rungs, and of those holding each block of each
    of ``sizes`` rungs at each offset."""
    held = Counter()
    total = 0
    for cfg in iter_recurrent(graph, length):
        total += 1
        held.update((off, cfg[off:off + size]) for size in sizes
                    for off in range(length - size + 1))
    return total, held


# per graph: the events at every offset of every window up to a length,
# then events at every offset of longer windows; path2's (1, 1) and the
# (1, 1, 1) of path3 and cycle3 are not recurrent alone, and path2's
# (3, 4) is not even stable
MIXTURE_EVENTS = {
    "path2": {5: [((1, 1),), ((3, 4),), ((3, 3),), ((2, 1),), ((2, 1), (3, 3)), ((1, 3), (1, 1)),
                  ((3, 1),), ((3, 1), (3, 2))],
              6: [((3, 1),), ((3, 1), (3, 2))],
              7: [((3, 1),)]},
    "path3": {3: [((3, 4, 3),), ((1, 4, 3),), ((1, 1, 1),), ((3, 4, 3), (1, 4, 3))]},
    "cycle3": {3: [((2, 4, 3),), ((1, 1, 1),), ((4, 3, 4), (4, 4, 2))]},
}


@pytest.mark.parametrize("name", sorted(MIXTURE_EVENTS))
def test_mixture_matches_the_enumeration(name):
    graph = builtin_graph(name)
    by_length = MIXTURE_EVENTS[name]
    for length in range(1, max(by_length) + 1):
        events = by_length[min(k for k in by_length if k >= length)]
        total, held = _enumerated_frequencies(graph, length, {len(e) for e in events})
        for rungs in events:
            offsets = range(length - len(rungs) + 1)
            rows = mixture_experiment(graph, [Window(-off, length - 1 - off) for off in offsets],
                                      CylinderEvent(rungs=rungs))
            assert len(rows) == len(offsets)
            for off, row in zip(offsets, rows):
                assert row.total_configs == total
                assert row.measured == held[off, rungs] / total, (rungs, length, off)
                assert row.gap == abs(row.measured - row.predicted)


@pytest.mark.parametrize("count", [0, -3])
def test_exact_sampler_refuses_count_below_one(path2, count):
    with pytest.raises(ValidationError, match="count"):
        sample_finite_exact(path2, -2, 2, seed=0, count=count)


def test_sample_window_config(path2):
    cfg = sample_window_config(path2, 5, seed=8)
    assert cfg.window == Window(-5, 5)
    assert left_burnable(path2, cfg.heights_map()).success


def test_max_states_caps_cold_and_cached_bundles(path2, monkeypatch):
    event = CylinderEvent.centered([(3, 3)])
    monkeypatch.setattr(_AutomatonBundle, "_cache", {})
    with pytest.raises(FeasibilityError, match="max_states"):
        cylinder_prob(path2, event, "parry", max_states=6)  # cold build
    assert cylinder_prob(path2, event, "parry", max_states=7).valid  # 7 states
    with pytest.raises(FeasibilityError, match="max_states"):
        cylinder_prob(path2, event, "parry", max_states=6)  # cached bundle
    with pytest.raises(FeasibilityError, match="max_states"):
        sample_chain_windows(path2, 3, 1, 0, max_states=6)


@pytest.mark.parametrize("cap", [0, -1, 1.5, "10"])
def test_bundles_refuse_a_cap_that_is_not_a_count(path2, monkeypatch, cap):
    monkeypatch.setattr(_AutomatonBundle, "_cache", {})
    for _ in ("cold", "cached"):
        with pytest.raises(ValidationError, match="max_states"):
            _AutomatonBundle.get(path2, cap)
        _AutomatonBundle.get(path2)


def test_bundle_cache_evicts_the_least_recent_and_rebuilds(monkeypatch):
    import laddersand.measures as measures
    builds = []

    def counted(graph, **kwargs):
        builds.append(graph.name)
        return build_coding(graph, **kwargs)

    monkeypatch.setattr(_AutomatonBundle, "_cache", {})
    monkeypatch.setattr(measures, "build_coding", counted)
    size = _AutomatonBundle.CACHE_SIZE
    assert size >= 8  # one automaton benchmark pass reads four graphs
    graphs = [make_graph(1, [], name=f"point{i}") for i in range(size + 1)]
    for graph in graphs[:size]:
        _AutomatonBundle.get(graph)
    first = _AutomatonBundle.get(graphs[0])  # now the most recent
    _AutomatonBundle.get(graphs[size])  # evicts graphs[1]
    assert len(_AutomatonBundle._cache) == size
    assert _AutomatonBundle.get(graphs[0]) is first
    _AutomatonBundle.get(graphs[1])
    assert builds == [g.name for g in graphs] + ["point1"]


@pytest.mark.parametrize("name", ["path3", "cycle3"])
def test_measures_path_builds_no_dense_matrix(name, monkeypatch):
    def refuse(self):
        raise AssertionError("the measures path built a dense matrix")

    monkeypatch.setattr(_AutomatonBundle, "_cache", {})
    monkeypatch.setattr(CodingAutomaton, "matrix", refuse)
    graph = builtin_graph(name)
    event = CylinderEvent(rungs=(max_rung(graph),) * 2)
    assert cylinder_prob(graph, event, "parry").value > 0
    assert cylinder_prob(graph, event, "finite_dp").value > 0
    assert cylinder_prob(graph, event, "renewal").value > 0
    assert len(sample_chain_windows(graph, 24, 5, seed=1)) == 5
    assert len(sample_finite_exact(graph, -3, 3, seed=2, count=2)) == 2
    for variant in ("L", "L0"):
        count_series(graph, variant, 6, method="automaton")


# sample_chain_windows(graph, width, count, seed), each rung written as
# its index in enum_rungs(graph).rungs, one base-36 digit
PINNED_CHAIN_DRAWS = {
    ("path2", 513, 1, 0): [
        "4044433344014314312413332334332433134413131234301144041234041041"
        "3141134234244423434234413440111444431441323433040144014123411411"
        "1334312344243412344234104134140424441144314114434444113312343133"
        "0140114113133404412430443444104433131324404143414434334014144323"
        "4344141124124441344423344434314304042431434430434344112343131143"
        "3404113114130444313043330432334331134114331043141241433043241414"
        "4244344344140424404141413434344443131413334132433432413314334331"
        "1343243424440434311341041011411133133324311333244234441041444334"
        "3",
    ],
    ("path2", 513, 1, 7): [
        "4411401141112434434113043343331043124411434340434130411423433312"
        "4244131431444311431433241014314040443244133134414011423434331111"
        "1431142343443234404341433341240444133331433310444314443404041130"
        "4130443433130111411134144144133304344134410413424241243424311124"
        "4310141101414312343044432434113441143344442414432424432432334144"
        "1344101413234414040413244441241041143131313332334114414133404304"
        "3444434341141431413014414334243413134040142433043404330411412343"
        "4334332423434314233430443333324112342434424433014312334424311340"
        "1",
    ],
    ("cycle3", 24, 5, 0): [
        "sorko6iu4x9hvdg1hpoofrrx", "epfhridivwelsntfgio47biv",
        "3p7hsb3ta5xdpawe6twgwigo", "1dprijvprqoprwx19vrhxvth",
        "wswcvhw2bw1x1bvw47eegxli",
    ],
    ("cycle3", 24, 5, 7): [
        "s0ddxdcihikrxoxa8x3eihwo", "xib1ipae0ebcdvuwr5xivenl",
        "vd7tfrwnwp7gbg6dlxdvp7tw", "dleawkevoltgb2hvksr1p1hx",
        "fsivempsisv7w0b7hgt1wsir",
    ],
}


@pytest.mark.parametrize("key", sorted(PINNED_CHAIN_DRAWS),
                         ids=lambda key: f"{key[0]}-{key[1]}x{key[2]}-seed{key[3]}")
def test_chain_draws_pinned(key):
    name, width, count, seed = key
    graph = builtin_graph(name)
    alphabet = enum_rungs(graph).rungs
    digits = "0123456789abcdefghijklmnopqrstuvwxyz"
    windows = sample_chain_windows(graph, width, count, seed)
    assert (["".join(digits[alphabet.index(r)] for r in w) for w in windows]
            == PINNED_CHAIN_DRAWS[key])


def test_equal_graphs_share_one_bundle_and_one_engine(monkeypatch):
    monkeypatch.setattr(_AutomatonBundle, "_cache", {})
    built = builtin_graph("cycle3")
    made = make_graph(3, [(0, 1), (1, 2), (2, 0)], name="cycle3")
    assert built is not made and hash(built) == hash(made)
    assert _AutomatonBundle.get(made) is _AutomatonBundle.get(built)
    assert len(_AutomatonBundle._cache) == 1
    assert _engine(made) is _engine(built)
    assert enum_rungs(made) is enum_rungs(built)


def test_a_warm_bundle_keeps_its_refusals(path2, monkeypatch):
    monkeypatch.setattr(_AutomatonBundle, "_cache", {})
    _AutomatonBundle.get(builtin_graph("path3"))
    bundle = _AutomatonBundle.get(path2)
    assert list(_AutomatonBundle._cache.values())[-1] is bundle  # the most recent
    assert _AutomatonBundle.get(path2, 7) is bundle
    with pytest.raises(FeasibilityError, match="7 states > max_states=6"):
        _AutomatonBundle.get(path2, 6)
    for cap in (6.5, "7", None, 0):
        with pytest.raises(ValidationError, match="max_states"):
            _AutomatonBundle.get(path2, cap)
    assert list(_AutomatonBundle._cache) == [builtin_graph("path3"), path2]


def test_a_warm_query_builds_nothing(cycle3, monkeypatch):
    import laddersand.coding as coding
    import laddersand.measures as measures
    monkeypatch.setattr(_AutomatonBundle, "_cache", {})
    alphabet = enum_rungs(cycle3).rungs
    for method in METHODS:
        cylinder_prob(cycle3, CylinderEvent.single(alphabet[0]), method)

    def refuse(*args, **kwargs):
        raise AssertionError("a warm query built a per-graph fact")

    monkeypatch.setattr(_AutomatonBundle, "__init__", refuse)
    for module in (coding, measures):
        monkeypatch.setattr(module, "spectral", refuse)
        monkeypatch.setattr(module, "parry_chain", refuse)
    monkeypatch.setattr(measures, "_perron", refuse)
    rng = random.Random(3)
    for method in METHODS:
        for _ in range(50):
            rungs = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 3)))
            result = cylinder_prob(cycle3, CylinderEvent(rungs, lo=rng.randint(-3, 3)),
                                   method)
            assert result.valid and 0.0 <= result.value <= 1.0
