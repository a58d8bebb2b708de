import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from laddersand.errors import StepCapExceeded, ValidationError
from laddersand.graphs import Window, builtin_graph
from laddersand.toppling import (CANONICAL, PARALLEL, LadderConfig, Odometer,
                                 Schedule, check_abelian, demo_wave_config,
                                 laplacian_apply, random_schedule,
                                 rung_zero_blast, stabilize)
from reference_toppling import stabilize as reference_stabilize
from test_coding import connected_graphs

I01_ALPHABET = [(1, 3), (2, 3), (3, 1), (3, 2), (3, 3)]


def random_stable(graph, rng, length, start=1):
    rows = [[rng.randint(1, graph.max_height[x]) for x in range(graph.n)]
            for _ in range(length)]
    return LadderConfig.from_rungs(rows, start=start)


def test_point_chain_example(point):
    cfg = LadderConfig.from_rungs([(2,), (2,), (2,)], start=1)
    final, odo = stabilize(point, cfg, [(0, 2)])
    assert final.heights.ravel().tolist() == [2, 1, 2]
    assert odo.counts.ravel().tolist() == [1, 2, 1]
    assert odo.grains_to_sink == 2


def test_no_additions_identity(point):
    cfg = LadderConfig.from_rungs([(2,), (2,)], start=0)
    final, odo = stabilize(point, cfg, [])
    assert (final.heights == cfg.heights).all()
    assert odo.counts.sum() == 0 and odo.grains_to_sink == 0


def test_wave_fixture_odometer(path2):
    cfg, site = demo_wave_config(length=12)
    final, odo = stabilize(path2, cfg, [site])
    assert odo.counts[:, 0].tolist() == [0, 0, 1, 2, 1, 1] + [1] * 6
    assert odo.counts[:, 1].tolist() == [0, 0, 0, 1, 1, 1] + [1] * 6
    assert final.is_stable(path2)


def test_wave_fixture_length_invariant(path2):
    # the rightward wave continues with single topplings to the sink at
    # any padding length
    for length in (8, 16):
        cfg, site = demo_wave_config(length=length)
        _, odo = stabilize(path2, cfg, [site])
        assert odo.counts[6:, :].tolist() == [[1, 1]] * (length - 6)


def test_abelian_random_instances(path2):
    rng = random.Random(2)
    schedules = [PARALLEL, CANONICAL,
                 random_schedule(10), random_schedule(11), random_schedule(12)]
    for trial in range(25):
        cfg = random_stable(path2, rng, rng.randint(1, 6), start=-2)
        adds = [(rng.randrange(2),
                 rng.randrange(cfg.window.n, cfg.window.m + 1))]
        assert check_abelian(path2, cfg, adds, schedules)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_abelian_multi_site_additions(data):
    graph = builtin_graph(data.draw(st.sampled_from(["path2", "path3", "cycle3"])))
    length = data.draw(st.integers(1, 8))
    start = data.draw(st.integers(-3, 3))
    rows = data.draw(st.lists(
        st.tuples(*[st.integers(1, m) for m in graph.max_height]),
        min_size=length, max_size=length))
    cfg = LadderConfig.from_rungs(rows, start=start)
    adds = data.draw(st.lists(
        st.tuples(st.integers(0, graph.n - 1),
                  st.integers(start, start + length - 1)),
        min_size=1, max_size=6))
    schedules = [PARALLEL, CANONICAL,
                 random_schedule(data.draw(st.integers(0, 2 ** 31 - 1)))]
    assert check_abelian(graph, cfg, adds, schedules)
    init = cfg.heights.copy()
    for x, k in adds:
        init[k - start, x] += 1
    final, odo = stabilize(graph, cfg, adds, CANONICAL)
    assert (final.heights ==
            init - laplacian_apply(graph, cfg.window, odo.counts)).all()


def test_abelian_empty_additions(path2):
    cfg = LadderConfig.from_rungs([(3, 3), (3, 3)], start=1)
    assert check_abelian(path2, cfg, [], [PARALLEL, CANONICAL])


def test_abelian_on_wave_fixture(path2):
    cfg, site = demo_wave_config(length=10)
    schedules = [PARALLEL, CANONICAL, random_schedule(5), random_schedule(6),
                 random_schedule(7)]
    assert check_abelian(path2, cfg, [site], schedules)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_balance_laws(data):
    graph = builtin_graph("path2")
    length = data.draw(st.integers(1, 5))
    rows = data.draw(st.lists(st.sampled_from(I01_ALPHABET) | st.tuples(
        st.integers(1, 3), st.integers(1, 3)),
        min_size=length, max_size=length))
    cfg = LadderConfig.from_rungs(rows, start=0)
    x = data.draw(st.integers(0, 1))
    k = data.draw(st.integers(0, length - 1))
    sched = data.draw(st.sampled_from(
        [PARALLEL, CANONICAL, random_schedule(4)]))
    final, odo = stabilize(graph, cfg, [(x, k)], sched)
    init = cfg.heights.copy()
    init[k, x] += 1
    # per-site conservation through the toppling operator
    assert (final.heights ==
            init - laplacian_apply(graph, cfg.window, odo.counts)).all()
    # global conservation including the sink
    assert init.sum() == final.heights.sum() + odo.grains_to_sink
    assert final.is_stable(graph)


def test_sink_multiplicity_single_rung(point):
    # a one-rung window drains on both sides
    cfg = LadderConfig(Window(0, 0), np.array([[2]]))
    final, odo = stabilize(point, cfg, [(0, 0)])
    assert final.heights.tolist() == [[1]]
    assert odo.grains_to_sink == 2


def test_sink_total_matches_multiplicities(path2):
    from laddersand.graphs import sink_multiplicity
    cfg, site = demo_wave_config(length=9)
    _, odo = stabilize(path2, cfg, [site])
    expected = sum(odo.count((x, k)) * sink_multiplicity(path2, cfg.window, (x, k))
                   for x in range(path2.n) for k in cfg.window.rungs)
    assert odo.grains_to_sink == expected


def test_replays_mid_avalanche_states(path2):
    # unstable inputs are accepted and relaxed
    cfg = LadderConfig(Window(1, 2), np.array([[9, 1], [1, 1]]))
    final, odo = stabilize(path2, cfg, [])
    assert final.is_stable(path2)


def test_validation(path2):
    cfg = LadderConfig.from_rungs([(3, 3)], start=0)
    with pytest.raises(ValidationError):
        stabilize(path2, cfg, [(0, 5)])
    with pytest.raises(ValidationError):
        stabilize(path2, cfg, [(7, 0)])
    with pytest.raises(ValidationError):
        stabilize(path2, cfg, [], step_cap=0)
    bad = LadderConfig(Window(0, 0), np.array([[0, 1]]))
    with pytest.raises(ValidationError):
        stabilize(path2, bad, [])
    mis = LadderConfig(Window(0, 1), np.array([[3, 3]]))
    with pytest.raises(ValidationError):
        stabilize(path2, mis, [])


def test_step_cap_carries_partial_state():
    from laddersand.graphs import sink_multiplicity
    for name, rung in (("path2", (3, 3)), ("path3", (3, 4, 3)),
                       ("cycle3", (4, 4, 4))):
        graph = builtin_graph(name)
        cfg = LadderConfig.from_rungs([rung] * 4, start=0)
        adds = [(0, 0), (graph.n - 1, 2), (0, 0)]
        init = cfg.heights.copy()
        for x, k in adds:
            init[k, x] += 1
        total = int(stabilize(graph, cfg, adds)[1].counts.sum())
        for sched in (CANONICAL, PARALLEL, random_schedule(1), random_schedule(2)):
            for cap in (1, 2, total // 2, total - 1):
                with pytest.raises(StepCapExceeded) as info:
                    stabilize(graph, cfg, adds, sched, step_cap=cap)
                err, case = info.value, (name, sched, cap)
                assert isinstance(err.odometer, Odometer)
                assert isinstance(err.heights, LadderConfig)
                counts = err.odometer.counts
                # a parallel round that would overrun the cap does not fire
                if sched is PARALLEL:
                    assert counts.sum() <= cap, case
                else:
                    assert counts.sum() == cap, case
                assert (err.heights.heights == init - laplacian_apply(
                    graph, cfg.window, counts)).all(), case
                assert err.odometer.grains_to_sink == sum(
                    counts[k, x] * sink_multiplicity(graph, cfg.window, (x, k))
                    for k in range(4) for x in range(graph.n)), case


@pytest.mark.parametrize("seed", [-1, 1.5, "abc", True, None])
def test_random_schedules_refuse_seeds_that_are_not_non_negative_integers(seed):
    # random.Random once took the seed -1 as 1, and True as 1
    with pytest.raises(ValidationError):
        random_schedule(seed)
    if seed is not None:
        with pytest.raises(ValidationError):
            Schedule("canonical", seed)


def test_schedules_keep_integer_seeds():
    assert random_schedule(np.int64(3)) == random_schedule(3)
    assert random_schedule(0).seed == 0


def test_random_schedule_partial_odometer_pinned():
    # a seed fixes the random schedule's toppling order, so the partial
    # odometer at a cap is part of its output; so it is for the canonical
    # order and the parallel rounds
    graph = builtin_graph("path3")
    cfg = LadderConfig.from_rungs([(3, 4, 3)] * 5, start=0)
    expected = {
        (random_schedule(5), 6): [[1, 0, 0], [1, 0, 1], [0, 1, 1], [0, 0, 1], [0, 0, 0]],
        (random_schedule(5), 23): [[1, 1, 1], [1, 2, 2], [2, 2, 2], [2, 2, 2], [1, 1, 1]],
        (CANONICAL, 6): [[1, 1, 1], [1, 1, 1], [0, 0, 0], [0, 0, 0], [0, 0, 0]],
        (CANONICAL, 23): [[2, 2, 2], [2, 2, 2], [1, 1, 2], [1, 1, 2], [1, 1, 1]],
        (PARALLEL, 6): [[1, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 1], [0, 0, 0]],
        (PARALLEL, 23): [[1, 1, 1], [1, 2, 2], [2, 2, 2], [2, 2, 2], [1, 1, 1]],
    }
    for (sched, cap), counts in expected.items():
        with pytest.raises(StepCapExceeded) as info:
            stabilize(graph, cfg, [(0, 0), (2, 3)], sched, step_cap=cap)
        assert info.value.odometer.counts.tolist() == counts, (sched, cap)


def _outcome(engine, graph, cfg, adds, sched, cap):
    try:
        final, odo = engine(graph, cfg, adds, sched, cap)
    except StepCapExceeded as err:
        final, odo, kind = err.heights, err.odometer, "cap"
    else:
        kind = "stable"
    return (kind, final.window, final.heights.tolist(), odo.window,
            odo.counts.tolist(), odo.grains_to_sink)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_schedules_match_the_reference_engine(data):
    # heights up to twice the maximum make unstable mid-avalanche inputs
    graph = data.draw(st.sampled_from(
        [builtin_graph(name) for name in ("path2", "path3", "cycle3")])
        | connected_graphs())
    length = data.draw(st.integers(1, 6))
    start = data.draw(st.integers(-3, 3))
    rows = data.draw(st.lists(
        st.tuples(*[st.integers(1, 2 * m) for m in graph.max_height]),
        min_size=length, max_size=length))
    cfg = LadderConfig.from_rungs(rows, start=start)
    adds = data.draw(st.lists(
        st.tuples(st.integers(0, graph.n - 1),
                  st.integers(start, start + length - 1)), max_size=6))
    seed = data.draw(st.integers(0, 2 ** 31 - 1))
    total = int(reference_stabilize(graph, cfg, adds)[1].counts.sum())
    caps = {1, 2, 17, max(total // 2, 1), max(total - 1, 1), total + 1,
            data.draw(st.integers(1, total + 2))}
    for sched in (CANONICAL, PARALLEL, random_schedule(seed)):
        for cap in sorted(caps):
            case = (sched, cap)
            assert (_outcome(stabilize, graph, cfg, adds, sched, cap)
                    == _outcome(reference_stabilize, graph, cfg, adds, sched, cap)), case


@pytest.mark.parametrize("seed", [3, 4])
def test_schedules_match_the_reference_engine_on_long_blasts(path2, seed):
    # rung-zero blasts on sampled windows of halfwidth 48, thousands of
    # topplings long, where the random schedule draws from long lists
    from laddersand.measures import sample_window_config
    cfg = sample_window_config(path2, 48, seed)
    adds = [(x, 0) for x in range(path2.n)]
    total = int(stabilize(path2, cfg, adds)[1].counts.sum())
    assert total > 2000
    for sched in (CANONICAL, PARALLEL, random_schedule(seed)):
        for cap in (1, 17, 1000, total // 2, total - 1, total):
            assert (_outcome(stabilize, path2, cfg, adds, sched, cap)
                    == _outcome(reference_stabilize, path2, cfg, adds, sched, cap))


@pytest.mark.parametrize("name, halfwidth, seed", [("path2", 24, 5),
                                                     ("cycle3", 8, 6),
                                                     ("cycle4", 8, 7)])
def test_caps_match_the_reference_engine_at_blast_scale(name, halfwidth, seed):
    # the canonical heap holds many cells here, so the loop that stops
    # with the next cell taken but not fired runs at every cap
    from laddersand.measures import sample_window_config
    graph = builtin_graph(name)
    cfg = sample_window_config(graph, halfwidth, seed)
    adds = [(x, 0) for x in range(graph.n)]
    total = int(reference_stabilize(graph, cfg, adds)[1].counts.sum())
    assert total > 100
    for sched in (CANONICAL, PARALLEL, random_schedule(seed),
                  random_schedule(seed + 10)):
        for cap in (1, 2, total // 3, total - 1, total, total + 1):
            case = (name, sched, cap)
            got = _outcome(stabilize, graph, cfg, adds, sched, cap)
            assert got == _outcome(reference_stabilize, graph, cfg, adds,
                                   sched, cap), case
            assert (got[0] == "stable") == (cap >= total), case


@pytest.mark.parametrize("step_cap", [2.5, "5", None, 0, -3])
def test_step_caps_that_are_not_counts_are_refused(path2, step_cap):
    cfg = LadderConfig.from_rungs([(3, 3)] * 3, start=-1)
    with pytest.raises(ValidationError, match="step_cap"):
        stabilize(path2, cfg, [(0, 0)], step_cap=step_cap)
    with pytest.raises(ValidationError, match="step_cap"):
        rung_zero_blast(path2, cfg, step_cap=step_cap)
    with pytest.raises(ValidationError, match="step_cap"):
        check_abelian(path2, cfg, [(0, 0)], [CANONICAL], step_cap=step_cap)


@pytest.mark.parametrize("site", [(1.5, 0), (0, 0.5), ("0", 0), (0, None)])
def test_addition_sites_that_are_not_integers_are_refused(path2, site):
    cfg = LadderConfig.from_rungs([(3, 3)] * 3, start=-1)
    for sched in (CANONICAL, PARALLEL, random_schedule(1)):
        with pytest.raises(ValidationError, match="not an integer"):
            stabilize(path2, cfg, [site], sched)


@pytest.mark.parametrize("site", [(0,), (0, 0, 0), 0])
def test_addition_sites_of_the_wrong_shape_are_refused(path2, site):
    cfg = LadderConfig.from_rungs([(3, 3)] * 3, start=-1)
    message = re.escape(f"addition site {site!r} is not a (vertex, rung) pair")
    for sched in (CANONICAL, PARALLEL, random_schedule(1)):
        with pytest.raises(ValidationError, match=message):
            stabilize(path2, cfg, [(1, 0), site], sched)
    with pytest.raises(ValidationError, match=message):
        check_abelian(path2, cfg, [site], [CANONICAL, PARALLEL])


def test_caps_and_sites_read_numpy_integers(path2):
    cfg = LadderConfig.from_rungs([(3, 3)] * 3, start=-1)
    site = (np.int64(1), np.int32(0))
    assert (stabilize(path2, cfg, [site], step_cap=np.int64(100))[1].counts
            == stabilize(path2, cfg, [(1, 0)])[1].counts).all()


def test_check_abelian_needs_a_schedule(path2):
    cfg = LadderConfig.from_rungs([(3, 3)] * 3, start=-1)
    with pytest.raises(ValidationError, match="schedule"):
        check_abelian(path2, cfg, [(0, 0)], [])
    assert check_abelian(path2, cfg, [(0, 0)], iter([CANONICAL]))


@pytest.mark.parametrize("schedule", ["canonical", None, ("random", 1)])
def test_schedules_that_are_not_schedules_are_refused(path2, schedule):
    cfg = LadderConfig.from_rungs([(3, 3)] * 3, start=-1)
    with pytest.raises(ValidationError, match="Schedule"):
        stabilize(path2, cfg, [(0, 0)], schedule)
    with pytest.raises(ValidationError, match="Schedule"):
        rung_zero_blast(path2, cfg, schedule)
    with pytest.raises(ValidationError, match="Schedule"):
        check_abelian(path2, cfg, [(0, 0)], [CANONICAL, schedule])


@pytest.mark.parametrize("heights", [[[3.5, 3.0]], [[3.0, 3.0]], [[True, True]]])
def test_refuses_heights_that_are_not_integers(path2, heights):
    # float heights made the schedules disagree: 3.5 + 1 toppled to 2 one
    # way and to 2.5 the other
    cfg = LadderConfig(Window(0, 0), np.array(heights))
    for sched in (CANONICAL, PARALLEL, random_schedule(1)):
        with pytest.raises(ValidationError, match="integers"):
            stabilize(path2, cfg, [(0, 0)], sched)


def test_from_json_refuses_heights_that_are_not_integers():
    with pytest.raises(ValidationError, match="integers"):
        LadderConfig.from_json({"window": [0, 1], "heights": [[2.5, 3], [3, 3.9]]})
    cfg = LadderConfig.from_json({"window": [0, 1], "heights": [[2, 3], [3, 3]]})
    assert cfg.heights.dtype == np.int64 and cfg.heights.tolist() == [[2, 3], [3, 3]]


def test_blast_all_max(path2):
    cfg = LadderConfig.from_rungs([(3, 3)] * 5, start=-2)
    final, odo = rung_zero_blast(path2, cfg)
    assert (odo.counts >= 1).all()
    mins = odo.rung_min()
    assert mins[0] >= mins[2] and mins[0] >= mins[-2]
    assert final.is_stable(path2)


def test_blast_point(point):
    cfg = LadderConfig.from_rungs([(2,)] * 7, start=-3)
    _, odo = rung_zero_blast(point, cfg)
    assert (odo.counts >= 1).all()


def test_blast_requires_rung_zero_and_burnable(path2):
    off = LadderConfig.from_rungs([(3, 3)] * 3, start=5)
    with pytest.raises(ValidationError):
        rung_zero_blast(path2, off)
    bad = LadderConfig.from_rungs([(1, 3), (1, 3), (1, 3)], start=-1)
    with pytest.raises(ValidationError):
        rung_zero_blast(path2, bad)


@pytest.mark.parametrize("rows, message", [
    ([(3, 3), (3, 3), (3, 3), (3, 4)], "height 4 at site (1,2) outside stable range 1..3"),
    ([(3, 3), (0, 3), (3, 3)], "height 0 at site (0,0) outside stable range 1..3"),
    ([(3, 4), (4, 3), (3, 3)], "height 4 at site (1,-1) outside stable range 1..3"),
    ([(1, 3), (1, 3), (1, 3)], "configuration is not left-burnable"),
    ([(3, 3), (3, 3), (1, 1)], "configuration is not left-burnable"),
])
def test_blast_refusals_are_worded_as_before(path2, rows, message):
    cfg = LadderConfig.from_rungs(rows, start=-1)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        rung_zero_blast(path2, cfg)


def test_config_helpers(path2):
    cfg = LadderConfig.from_rungs([(3, 1), (2, 3)], start=-1)
    assert cfg.height((0, -1)) == 3 and cfg.height((1, 0)) == 3
    hm = cfg.heights_map()
    assert hm[(1, -1)] == 1 and len(hm) == 4
    sub = cfg.restricted(Window(0, 0))
    assert sub.heights.tolist() == [[2, 3]]
    with pytest.raises(ValidationError):
        cfg.restricted(Window(-2, 0))
    doc = cfg.to_json()
    again = LadderConfig.from_json(doc)
    assert (again.heights == cfg.heights).all()
    assert again.window == cfg.window


def test_heights_map_is_plain_ints_by_site(path2):
    cfg = LadderConfig.from_rungs([(3, 1), (2, 3), (1, 2)], start=-1)
    hm = cfg.heights_map()
    assert hm == {(0, -1): 3, (1, -1): 1, (0, 0): 2, (1, 0): 3, (0, 1): 1, (1, 1): 2}
    assert all(type(h) is int for h in hm.values())
    assert list(hm) == [(0, -1), (1, -1), (0, 0), (1, 0), (0, 1), (1, 1)]
