import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from laddersand.burning import (_burn, advance_rung_state, burn_table,
                                first_rung_state, full_burnable, is_rung_symbol,
                                left_burnable, leftmost_schedule, max_rung,
                                path2_characterization, reflect_heights,
                                right_burnable, rung_burn, window_heights)
from laddersand.census import enum_rungs
from laddersand.errors import FeasibilityError, ValidationError
from laddersand.graphs import builtin_graph
from reference_burning import _burn as reference_burn
from test_coding import connected_graphs

I01_ALPHABET = [(1, 3), (2, 3), (3, 1), (3, 2), (3, 3)]


def heights_ok(graph, rungs):
    return window_heights(rungs)


# ---------------------------------------------------------------------------
# one-sided burnability
# ---------------------------------------------------------------------------

def test_alphabet_path2(path2):
    admissible = [r for r in itertools.product((1, 2, 3), repeat=2)
                  if is_rung_symbol(path2, r)]
    assert admissible == I01_ALPHABET


def test_single_rung_failures(path2):
    assert not left_burnable(path2, window_heights([(1, 1)])).success
    assert not full_burnable(path2, window_heights([(1, 1)])).success
    assert not is_rung_symbol(path2, (2, 2))  # recurrent but no maximal site


def test_deficient_run_pattern(path2):
    # a one-sided deficient rung followed by fillers, closed by a
    # maximal rung (which may be missing at the right edge)
    good = [
        [(3, 1), (3, 2), (3, 2), (3, 3)],
        [(3, 1), (3, 3)],
        [(3, 1), (3, 2)],
        [(3, 1)],
        [(1, 3), (2, 3), (2, 3), (3, 3)],
    ]
    bad = [
        [(3, 1), (2, 3)],
        [(3, 1), (1, 3)],
        [(3, 1), (3, 1)],
        [(3, 1), (3, 2), (2, 3)],
        [(1, 3), (3, 2)],
    ]
    for seq in good:
        assert left_burnable(path2, window_heights(seq)).success, seq
    for seq in bad:
        assert not left_burnable(path2, window_heights(seq)).success, seq


def one_sided_pair(graph):
    """The four-rung pattern that burns from the left but not the right,
    built over any edge of the base graph."""
    x, y = graph.edges[0]
    m = graph.max_height
    cmax = max_rung(graph)
    c1 = tuple(m[z] if z == y else m[z] - 1 for z in range(graph.n))
    c2 = tuple(m[z] if z == x else (1 if z == y else m[z] - 1)
               for z in range(graph.n))
    return [cmax, c1, c2, cmax]


@pytest.mark.parametrize("name", ["path2", "path3", "cycle3"])
def test_left_not_right_burnable_pattern(name):
    graph = builtin_graph(name)
    seq = one_sided_pair(graph)
    hm = window_heights(seq)
    assert left_burnable(graph, hm).success
    assert not right_burnable(graph, hm).success


def test_max_rung_alone_right_burnable(path2):
    assert right_burnable(path2, window_heights([(3, 3)])).success


def test_reflection_equivalence(path2):
    rng = random.Random(5)
    for _ in range(1000):
        seq = [tuple(rng.randint(1, 3) for _ in range(2)) for _ in range(5)]
        hm = window_heights(seq)
        assert (right_burnable(path2, hm).success
                == left_burnable(path2, reflect_heights(hm)).success)


def test_left_burnable_implies_recurrent(path2):
    rng = random.Random(11)
    hits = 0
    for _ in range(400):
        seq = [rng.choice(I01_ALPHABET) for _ in range(rng.randint(1, 5))]
        hm = window_heights(seq)
        if left_burnable(path2, hm).success:
            hits += 1
            assert full_burnable(path2, hm).success
    assert hits > 50


def test_verdict_order_free(path2):
    # the canonical verdict is the one the reference engine reaches when
    # it burns candidates in a random order
    rng = random.Random(3)
    for trial in range(200):
        seq = [tuple(rng.randint(1, 3) for _ in range(2))
               for _ in range(rng.randint(1, 5))]
        hm = window_heights(seq)
        for side, burnable in (("left", left_burnable), ("right", right_burnable),
                               ("both", full_burnable)):
            base = burnable(path2, hm).success
            for seed in (0, 1, 2):
                alt = reference_burn(path2, hm, side, order="random",
                                     rng=random.Random(seed))
                assert alt.success == base


def test_trace_contents(path2):
    tr = left_burnable(path2, window_heights([(3, 1), (3, 3)]))
    assert tr.success
    assert len(tr.order) == 4 and not tr.unburnt
    assert set(tr.burnt_by_rung()) == {1, 2}
    doc = tr.to_json()
    assert doc["success"] and len(doc["order"]) == 4
    bad = left_burnable(path2, window_heights([(3, 1), (1, 3)]))
    assert not bad.success and bad.unburnt


def test_rejects_unstable_heights(path2):
    with pytest.raises(ValidationError):
        left_burnable(path2, {(0, 0): 4, (1, 0): 1})
    with pytest.raises(ValidationError):
        left_burnable(path2, {(0, 0): 0, (1, 0): 1})


def test_rejects_non_integer_height(path2):
    with pytest.raises(ValidationError):
        left_burnable(path2, {(0, 1): 3, (1, 1): 2.5})


def test_rejects_string_height(path2):
    with pytest.raises(ValidationError):
        right_burnable(path2, {(0, 1): 3, (1, 1): "2"})


def test_rejects_non_integer_site(path2):
    with pytest.raises(ValidationError):
        full_burnable(path2, {(0, 1.5): 3, (1, 1): 3})


BURN_GRAPHS = ["point", "path2", "path3", "cycle3", "path4", "cycle4"]


@st.composite
def site_sets(draw, graph):
    """A window of up to 5 rungs at a signed offset, whole or a scattered
    subset, with heights leaning to the maximum so that both verdicts
    occur."""
    start = draw(st.integers(-6, 6))
    length = draw(st.integers(1, 5))
    sites = [(x, k) for k in range(start, start + length) for x in range(graph.n)]
    if draw(st.booleans()):
        sites = [s for s in sites if draw(st.booleans())]
    m = graph.max_height
    return {(x, k): draw(st.sampled_from((m[x], m[x] - 1)) | st.integers(1, m[x]))
            for x, k in sites}


@settings(max_examples=200, deadline=None)
@given(data=st.data(), side=st.sampled_from(["left", "right", "both"]),
       graph=st.sampled_from(BURN_GRAPHS).map(builtin_graph) | connected_graphs())
def test_burn_matches_reference(data, side, graph):
    heights = data.draw(site_sets(graph))
    assert _burn(graph, heights, side) == reference_burn(graph, heights, side)


def test_translation_invariance(path2):
    # rung coordinates are signed; shifting a window never changes the
    # verdict of any of the three burnability tests
    rng = random.Random(21)
    for _ in range(150):
        seq = [tuple(rng.randint(1, 3) for _ in range(2))
               for _ in range(rng.randint(1, 5))]
        verdicts = set()
        for start in (-7, -1, 0, 3):
            hm = window_heights(seq, start=start)
            verdicts.add((left_burnable(path2, hm).success,
                          right_burnable(path2, hm).success,
                          full_burnable(path2, hm).success))
        assert len(verdicts) == 1


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_restriction_closure(data):
    # any restriction of a left-burnable configuration, including to
    # scattered site sets, stays left-burnable
    path2 = builtin_graph("path2")
    length = data.draw(st.integers(1, 5))
    seq = data.draw(st.lists(st.sampled_from(I01_ALPHABET),
                             min_size=length, max_size=length))
    hm = window_heights(seq)
    if not left_burnable(path2, hm).success:
        return
    sites = sorted(hm)
    keep = data.draw(st.lists(st.booleans(), min_size=len(sites),
                              max_size=len(sites)))
    sub = {s: hm[s] for s, k in zip(sites, keep) if k}
    assert left_burnable(path2, sub).success


def test_restriction_closure_subwindows(path2):
    for seq in itertools.product(I01_ALPHABET, repeat=4):
        hm = window_heights(seq)
        if not left_burnable(path2, hm).success:
            continue
        for lo in range(1, 5):
            for hi in range(lo, 5):
                sub = {(x, k): h for (x, k), h in hm.items() if lo <= k <= hi}
                assert left_burnable(path2, sub).success


# ---------------------------------------------------------------------------
# ordinary burning vs forbidden subconfigurations
# ---------------------------------------------------------------------------

def has_forbidden_subset(graph, heights):
    sites = sorted(heights)
    n = len(sites)
    at = {s: i for i, s in enumerate(sites)}
    from laddersand.graphs import ladder_adjacent
    adj = [[ladder_adjacent(u, v, graph) for v in sites] for u in sites]
    for mask in range(1, 1 << n):
        ok = True
        for i in range(n):
            if not (mask >> i) & 1:
                continue
            internal = sum(1 for j in range(n)
                           if (mask >> j) & 1 and adj[i][j])
            if heights[sites[i]] > internal:
                ok = False
                break
        if ok:
            return True
    return False


def test_recurrence_matches_forbidden_subsets(path2):
    for seq in itertools.product([1, 2, 3], repeat=6):
        rungs = [seq[0:2], seq[2:4], seq[4:6]]
        hm = window_heights(rungs)
        assert full_burnable(path2, hm).success == \
            (not has_forbidden_subset(path2, hm))


def test_recurrence_matches_forbidden_subsets_sampled(path2):
    rng = random.Random(1)
    for _ in range(120):
        rungs = [tuple(rng.randint(1, 3) for _ in range(2)) for _ in range(4)]
        hm = window_heights(rungs)
        assert full_burnable(path2, hm).success == \
            (not has_forbidden_subset(path2, hm))


def test_all_max_recurrent_everywhere(path3):
    hm = window_heights([path3.max_height] * 4)
    assert full_burnable(path3, hm).success


# ---------------------------------------------------------------------------
# leftmost-rung schedule
# ---------------------------------------------------------------------------

def test_leftmost_matches_reference_small(path2):
    for length in range(1, 5):
        for seq in itertools.product(I01_ALPHABET, repeat=length):
            ref = left_burnable(path2, window_heights(seq)).success
            assert leftmost_schedule(path2, seq).success == ref


def test_leftmost_phase_data(path2):
    res = leftmost_schedule(path2, [(3, 3), (3, 3)])
    assert res.success and res.burnt_sets[0] == 0b11

    res = leftmost_schedule(path2, [(3, 1), (3, 2), (3, 3)])
    assert res.success
    assert res.burnt_sets == (0b01, 0b01, 0b11)
    assert res.times[-1] == 8  # six window sites plus the auxiliary rung

    res = leftmost_schedule(path2, [(3, 1), (1, 3)])
    assert not res.success
    assert res.burnt_sets == (None, None)


def test_leftmost_first_phase_is_one_rung_burn(path2):
    rng = random.Random(9)
    for _ in range(100):
        seq = [rng.choice(I01_ALPHABET) for _ in range(rng.randint(1, 4))]
        res = leftmost_schedule(path2, seq)
        if res.burnt_sets[0] is not None:
            assert res.burnt_sets[0] == rung_burn(
                path2, path2.full_mask, seq[0], 0)


def test_leftmost_phases_match_state_advance(path2):
    # the recorded phase data is reproduced by the one-rung state advance
    rng = random.Random(13)
    checked = 0
    while checked < 60:
        seq = [rng.choice(I01_ALPHABET) for _ in range(rng.randint(2, 6))]
        res = leftmost_schedule(path2, seq)
        if not res.success:
            continue
        checked += 1
        burnt, infl = first_rung_state(path2, seq[0])
        assert burnt == res.burnt_sets[0]
        for k, rung in enumerate(seq[1:], start=1):
            burnt, infl = advance_rung_state(path2, burnt, rung, infl)
            assert burnt == res.burnt_sets[k], (seq, k)


def test_leftmost_matches_reference_path3(path3):
    alphabet = enum_rungs(path3).rungs
    rng = random.Random(31)
    agree_true = agree_false = 0
    for _ in range(400):
        seq = [rng.choice(alphabet) for _ in range(rng.randint(1, 4))]
        ref = left_burnable(path3, window_heights(seq)).success
        assert leftmost_schedule(path3, seq).success == ref
        agree_true += ref
        agree_false += not ref
    assert agree_true and agree_false  # both verdicts exercised


def test_leftmost_rejects_bad_rung(path2):
    with pytest.raises(ValidationError):
        leftmost_schedule(path2, [(2, 2)])
    with pytest.raises(ValidationError):
        leftmost_schedule(path2, [])


def test_rung_symbol_refuses_non_integer_height(path2):
    # the uint8 sweep would read 2.5 as 2
    assert not is_rung_symbol(path2, (3, 2.5))
    assert (3, 2.5) not in enum_rungs(path2)
    with pytest.raises(ValidationError):
        leftmost_schedule(path2, [(3, 2.5)])


# ---------------------------------------------------------------------------
# one-rung primitives
# ---------------------------------------------------------------------------

def test_rung_burn_examples(path2):
    full = path2.full_mask
    for rung in I01_ALPHABET:
        assert rung_burn(path2, 0, rung, 0) == 0
    assert rung_burn(path2, full, (3, 3), 0) == full
    assert rung_burn(path2, full, (3, 1), 0) == 0b01
    assert rung_burn(path2, 0b01, (1, 3), 0) == 0


def test_rung_burn_right_side_needs_contact(path2):
    # the right-hand declared set only acts once the wave reaches it
    assert rung_burn(path2, path2.full_mask, (3, 1), 0b10) == 0b01
    assert rung_burn(path2, path2.full_mask, (3, 1), 0b11) == 0b11


def _pinned_rung(graph, rung, below, above):
    """Rung 1 holds ``rung``; the vertices declared burnt on its two
    sides are left out of the site set, and every other side vertex is
    pinned: it and its copy one rung further out hold height 1, so each
    needs the other burnt first and neither ever burns."""
    heights = {(x, 1): rung[x] for x in range(graph.n)}
    for x in range(graph.n):
        if not (below >> x) & 1:
            heights[(x, 0)] = heights[(x, -1)] = 1
        if not (above >> x) & 1:
            heights[(x, 2)] = heights[(x, 3)] = 1
    return heights


def rung_burn_oracle(graph, left, rung, right):
    """One-rung burn via the general engine, the undeclared neighbours
    pinned."""
    trace = _burn(graph, _pinned_rung(graph, rung, left, right), "left")
    mask = 0
    for x, k in trace.order:
        assert k == 1
        mask |= 1 << x
    return mask


@pytest.mark.parametrize("name", ["path2", "path3"])
def test_rung_burn_against_engine(name):
    graph = builtin_graph(name)
    full = graph.full_mask
    for rung in enum_rungs(graph):
        for left in range(full + 1):
            for right in range(full + 1):
                assert rung_burn(graph, left, rung, right) == \
                    rung_burn_oracle(graph, left, rung, right)


def burn_table_oracle(graph, below, rung, above):
    """Burn of one rung with both sides declared, via the general engine
    under ordinary burning: declared vertices join the complement
    components, which all count as burnt, and the undeclared ones are
    pinned."""
    trace = _burn(graph, _pinned_rung(graph, rung, below, above), "both")
    assert all(k == 1 for _, k in trace.order)
    return sum(1 << x for x, _ in trace.order)


@pytest.mark.parametrize("name", ["path2", "path3", "cycle3"])
def test_burn_table_against_engine(name):
    graph = builtin_graph(name)
    rungs = list(itertools.product(*[range(1, m + 1) for m in graph.max_height]))
    table = burn_table(graph, rungs)
    size = 1 << graph.n
    assert table.shape == (len(rungs), size * size) and table.dtype == np.uint8
    for c, rung in enumerate(rungs):
        assert table[c].tolist() == [burn_table_oracle(graph, below, rung, above)
                                     for below in range(size)
                                     for above in range(size)]


def test_burn_table_needs_byte_sized_vertex_sets():
    # one rung keeps the table small, but vertex sets of 9 vertices
    # would not fit its bytes
    path9 = builtin_graph("path9")
    with pytest.raises(FeasibilityError, match="one-rung burn table"):
        burn_table(path9, [max_rung(path9)])


def test_first_rung_state_shapes(path2):
    full = path2.full_mask
    burnt, infl = first_rung_state(path2, (3, 3))
    assert burnt == full and all(v == full for v in infl)
    burnt, infl = first_rung_state(path2, (3, 2))
    assert burnt == full and all(v == full for v in infl)
    # the one-sided deficient rung only opens fully with full help
    burnt, infl = first_rung_state(path2, (3, 1))
    assert burnt == 0b01
    assert infl == (0b01, 0b01, 0b01, full)


def test_influence_fixes_small_sets(path3):
    # declaring a subset of the already-burnt set changes nothing
    for rung in enum_rungs(path3):
        burnt, infl = first_rung_state(path3, rung)
        sub = burnt
        while True:
            assert infl[sub] == burnt
            if sub == 0:
                break
            sub = (sub - 1) & burnt


def test_advance_to_max_resets(path2):
    # reading the all-maximal rung funnels every state to the same one
    full = path2.full_mask
    cmax = (3, 3)
    for rung in I01_ALPHABET:
        burnt, infl = first_rung_state(path2, rung)
        b2, f2 = advance_rung_state(path2, burnt, cmax, infl)
        assert b2 == full and all(v == full for v in f2)


def test_advance_from_max_is_fresh_start(path2):
    full = path2.full_mask
    _, fmax = first_rung_state(path2, (3, 3))
    for rung in I01_ALPHABET:
        b2, f2 = advance_rung_state(path2, full, rung, fmax)
        assert (b2, f2) == first_rung_state(path2, rung)


def test_advance_barred_state(path2):
    burnt, infl = first_rung_state(path2, (3, 1))
    b2, f2 = advance_rung_state(path2, burnt, (3, 2), infl)
    assert b2 == 0b01
    assert f2[path2.full_mask] == path2.full_mask
    # the barred state reproduces itself on another filler rung
    b3, f3 = advance_rung_state(path2, b2, (3, 2), f2)
    assert (b3, f3) == (b2, f2)


# ---------------------------------------------------------------------------
# closed-form characterization for the 2-path
# ---------------------------------------------------------------------------

def test_path2_characterization_examples(path2):
    assert path2_characterization(path2, [(3, 1), (3, 2), (3, 2), (3, 3)])
    assert not path2_characterization(path2, [(3, 1), (2, 3)])
    assert path2_characterization(path2, [(3, 1), (3, 2)])
    assert not path2_characterization(path2, [(2, 2)])


def test_path2_characterization_wrong_graph(path3):
    with pytest.raises(ValidationError):
        path2_characterization(path3, [(3, 3, 3)])


def test_path2_characterization_validates_rungs(path2):
    with pytest.raises(ValidationError):
        path2_characterization(path2, [(4, 1)])
    with pytest.raises(ValidationError):
        path2_characterization(path2, [(3, 1, 2)])
