"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime.  Tolerances and runtime caps are asserted as stated;
run with ``pytest -s tests/test_acceptance.py`` to see the lines."""

import itertools
import math
import time

import numpy as np

from laddersand.burning import (left_burnable, leftmost_schedule, max_rung,
                                path2_characterization, window_heights)
from laddersand.census import count_series, renewal_identity_check
from laddersand.coding import (build_coding, check_transitive, decode, encode,
                               restrict, spectral)
from laddersand.graphs import Window
from laddersand.measures import (CylinderEvent, cylinder_prob,
                                 mixture_experiment, renewal_quantities,
                                 right_cylinder_prob, sample_chain_windows,
                                 sample_window_config)
from laddersand.toppling import (CANONICAL, PARALLEL, LadderConfig,
                                 check_abelian, demo_wave_config,
                                 random_schedule, rung_zero_blast, stabilize)

SQRT3 = math.sqrt(3)

PRINTED_MATRIX = np.array([
    [1, 1, 1, 1, 1, 0, 0],
    [1, 1, 1, 1, 1, 0, 0],
    [1, 1, 1, 1, 1, 0, 0],
    [1, 0, 0, 0, 0, 1, 0],
    [1, 0, 0, 0, 0, 0, 1],
    [1, 0, 0, 0, 0, 1, 0],
    [1, 0, 0, 0, 0, 0, 1],
], dtype=np.int64)


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0


def report(num: int, timer: Timer, text: str) -> None:
    print(f"criterion {num:2d} PASS  [{timer.seconds:7.2f}s]  {text}")


def test_criterion_01_coding_fidelity(path2):
    with Timer() as t:
        auto = build_coding(path2)
        assert len(auto) == 7
        m = auto.matrix()
        assert any((m[np.ix_(p, p)] == PRINTED_MATRIX).all()
                   for p in (np.array(q)
                             for q in itertools.permutations(range(7))))
        irreducible, power = check_transitive(auto)
        assert irreducible and power == 3
    assert t.seconds < 1.0
    report(1, t, "7 states, matrix matches up to permutation, positive cube")


def test_criterion_02_characterization_equivalence(path2):
    alphabet = ((1, 3), (2, 3), (3, 1), (3, 2), (3, 3))
    with Timer() as t:
        checked = 0
        for length in range(1, 7):
            for seq in itertools.product(alphabet, repeat=length):
                reference = left_burnable(path2, window_heights(seq)).success
                assert leftmost_schedule(path2, seq).success == reference
                assert path2_characterization(path2, seq) == reference
                checked += 1
        assert checked == 5 + 25 + 125 + 625 + 3125 + 15625
    assert t.seconds < 10.0
    report(2, t, f"three verdicts agree on all {checked} sequences")


def test_criterion_03_renewal_identity(path2, path3):
    with Timer() as t:
        for graph, n_max in ((path2, 12), (path3, 8)):
            a = count_series(graph, "L", n_max, method="automaton")
            b = count_series(graph, "L0", n_max, method="automaton")
            assert renewal_identity_check(a, b, n_max)
    assert t.seconds < 60.0
    report(3, t, "exact renewal identity, 2-path n<=12 and 3-path n<=8")


def test_criterion_04_spectral_renewal_consistency(path2):
    with Timer() as t:
        auto = build_coding(path2)
        spec = spectral(auto)
        assert abs(spec.rho - (2 + SQRT3)) < 1e-9
        lam = renewal_quantities(path2).lam
        assert abs(lam * spec.rho - 1) < 1e-9
        spec0 = spectral(restrict(auto, lambda c: c != max_rung(path2)))
        assert abs(spec0.entropy - math.log(2)) < 1e-9
        assert spec.entropy - spec0.entropy > 0.1
        s8 = count_series(path2, "S", 8)[8]
        a8 = count_series(path2, "L", 8)[8]
        assert math.log(s8) / 8 < math.log(a8) / 8
    report(4, t, "rho=2+sqrt(3), lam*rho=1, restricted rate log 2, "
                 "two-sided counts strictly smaller at n=8")


def test_criterion_05_measure_cross_validation(path2):
    target = (SQRT3 - 1) / 2
    event = CylinderEvent.single((3, 3))
    with Timer() as t:
        assert abs(cylinder_prob(path2, event, "parry").value - target) < 1e-9
        assert abs(cylinder_prob(path2, event, "renewal").value - target) < 1e-6
        assert abs(cylinder_prob(path2, event, "finite_dp",
                                 dp_halfwidth=32).value - target) < 1e-6
        n = 100_000
        windows = sample_chain_windows(path2, 1, n, seed=5)
        freq = sum(w[0] == (3, 3) for w in windows) / n
        sigma = math.sqrt(target * (1 - target) / n)
        assert abs(freq - target) < 3 * sigma
    report(5, t, f"renewal-rung mass right to 1e-9/1e-6/1e-6; "
                 f"sample freq {freq:.5f} within 3 binomial sigma")


def test_criterion_06_avalanche_reproduction(path2):
    with Timer() as t:
        config, site = demo_wave_config(length=12)
        final, odo = stabilize(path2, config, [site])
        assert odo.counts[:, 0].tolist() == [0, 0, 1, 2, 1, 1] + [1] * 6
        assert odo.counts[:, 1].tolist() == [0, 0, 0, 1, 1, 1] + [1] * 6
        assert final.is_stable(path2)
    assert t.seconds < 1.0
    report(6, t, "printed odometer rows reproduced, ones continuing rightward")


def test_criterion_07_abelian_invariance(path2):
    import random as _random
    rng = _random.Random(123)
    schedules = [PARALLEL, CANONICAL, random_schedule(101),
                 random_schedule(102), random_schedule(103)]
    with Timer() as t:
        for _ in range(100):
            length = rng.randint(1, 6)
            rows = [[rng.randint(1, 3) for _ in range(2)]
                    for _ in range(length)]
            config = LadderConfig.from_rungs(rows, start=-2)
            addition = [(rng.randrange(2),
                         rng.randrange(-2, -2 + length))]
            assert check_abelian(path2, config, addition, schedules)
    report(7, t, "100 random instances x 5 schedules, identical runs")


def test_criterion_08_bijection_counting(path2, cycle3):
    with Timer() as t:
        auto2 = build_coding(path2)
        brute2 = count_series(path2, "L", 8)
        assert tuple(auto2.count_words(n) for n in range(1, 9)) == brute2.values
        auto3 = build_coding(cycle3)
        brute3 = count_series(cycle3, "L", 5)
        assert tuple(auto3.count_words(n) for n in range(1, 6)) == brute3.values
        words = 0
        for window in sample_chain_windows(path2, 12, 10_000, seed=21):
            word = encode(auto2, window)
            assert word is not None and decode(auto2, word) == window
            words += 1
        assert words == 10_000
    report(8, t, "automaton counts = brute counts (2-path n<=8, 3-cycle "
                 "n<=5); decode(encode) = id on 10^4 words")


def test_criterion_09_mixture_trend(path2, point):
    event = CylinderEvent.single((3, 3))
    with Timer() as t:
        rows = mixture_experiment(path2, [Window(-2, 2), Window(-3, 3)], event)
        assert rows[0].gap >= rows[1].gap
        # degenerate base graph: the one-sided limits coincide exactly,
        # so the mixture prediction is weight-independent
        ev_point = CylinderEvent.single((2,))
        mu_l = cylinder_prob(point, ev_point, "parry").value
        mu_r = right_cylinder_prob(point, ev_point, "parry").value
        assert mu_l - mu_r == 0.0
        point_rows = mixture_experiment(point, [Window(-2, 2)], ev_point)
        assert point_rows[0].predicted == mu_l == 1.0
    assert t.seconds < 300.0
    report(9, t, f"centered-event gap {rows[0].gap:.4f} -> {rows[1].gap:.4f} "
                 "non-increasing; degenerate graph exactly weight-free")


def test_criterion_10_blast_growth(path2):
    with Timer() as t:
        for seed in (11, 22, 33):
            wide = sample_window_config(path2, 16, seed=seed)
            minima = []
            for halfwidth in (4, 8, 16):
                config = wide.restricted(Window(-halfwidth, halfwidth))
                _, odo = rung_zero_blast(path2, config)
                rung_min = odo.rung_min()
                minima.append(min(rung_min[k] for k in range(-2, 3)))
            assert minima[0] >= 1
            assert minima[0] < minima[1] < minima[2]
    assert t.seconds < 60.0
    report(10, t, "central minimum toppling counts strictly grow along "
                  "K=4,8,16 for 3 seeds")
