import json

import numpy as np
import pytest

from laddersand.errors import ValidationError
from laddersand.graphs import (Window, builtin_graph, laplacian_entry,
                               ladder_adjacent, ladder_neighbors, make_graph,
                               mask_to_vertices, parse_graph, sink_multiplicity,
                               vertices_to_mask)


def test_equal_graphs_built_apart_hash_equal():
    built = builtin_graph("cycle4")
    made = make_graph(4, [(3, 0), (1, 2), (0, 1), (2, 3)], name="cycle4")
    parsed = parse_graph("0 1\n1 2\n2 3\n3 0", name="cycle4")
    assert built is not made and built == made == parsed
    assert hash(built) == hash(made) == hash(parsed)
    assert len({built, made, parsed}) == 1
    assert make_graph(4, [(0, 1), (1, 2), (2, 3)]) != make_graph(4, [(0, 1), (1, 2), (0, 3)])


def test_parse_two_path():
    g = parse_graph("0 1")
    assert g.n == 2
    assert g.degree == (1, 1)
    assert g.max_height == (3, 3)


def test_parse_three_cycle():
    g = parse_graph("0 1\n1 2\n2 0")
    assert g.n == 3
    assert g.max_height == (4, 4, 4)


def test_parse_disconnected():
    with pytest.raises(ValidationError, match="graph not connected"):
        parse_graph("0 1\n2 3")


def test_parse_self_loop():
    with pytest.raises(ValidationError, match="self-loop"):
        parse_graph("0 0")


def test_parse_renumbers_first_appearance():
    g = parse_graph("5 7\n7 9")
    assert g.n == 3
    assert g.edges == ((0, 1), (1, 2))


def test_parse_isolated_vertex_line():
    g = parse_graph("0")
    assert g.n == 1 and g.max_height == (2,)


def test_parse_comments_and_blanks():
    g = parse_graph("# a two-path\n\n0 1  # the only edge\n")
    assert g.n == 2 and g.edges == ((0, 1),)


def test_parse_rejects_garbage():
    with pytest.raises(ValidationError):
        parse_graph("a b")
    with pytest.raises(ValidationError):
        parse_graph("1 2 3")
    with pytest.raises(ValidationError):
        parse_graph("")


def test_vertex_caps():
    edges = [(i, i + 1) for i in range(12)]
    with pytest.raises(ValidationError, match="cap"):
        make_graph(13, edges)
    assert make_graph(13, edges, vertex_cap=16).n == 13
    with pytest.raises(ValidationError, match="hard cap"):
        make_graph(17, [(i, i + 1) for i in range(16)], vertex_cap=20)


def test_builtin_graphs():
    assert builtin_graph("point").n == 1
    assert builtin_graph("path2").degree == (1, 1)
    assert builtin_graph("path3").degree == (1, 2, 1)
    assert builtin_graph("cycle3").degree == (2, 2, 2)
    assert builtin_graph("cycle5").n == 5
    with pytest.raises(ValidationError):
        builtin_graph("blob")


def test_laplacian_entries(path2):
    # diagonal carries the ladder degree
    assert laplacian_entry(path2, (0, 0), (0, 0)) == 3
    # rung neighbours and in-rung neighbours
    assert laplacian_entry(path2, (0, 0), (0, 1)) == -1
    assert laplacian_entry(path2, (0, 4), (1, 4)) == -1
    # two rungs apart: no edge
    assert laplacian_entry(path2, (0, 0), (1, 2)) == 0
    assert laplacian_entry(path2, (0, 0), (1, 1)) == 0


def test_laplacian_symmetry(path3):
    sites = [(x, k) for x in range(3) for k in range(-2, 3)]
    for u in sites:
        for v in sites:
            assert laplacian_entry(path3, u, v) == laplacian_entry(path3, v, u)


def test_sink_multiplicity(path2):
    w = Window(0, 5)
    assert sink_multiplicity(path2, w, (0, 0)) == 1
    assert sink_multiplicity(path2, w, (1, 5)) == 1
    assert sink_multiplicity(path2, w, (0, 3)) == 0
    single = Window(2, 2)
    assert sink_multiplicity(path2, single, (0, 2)) == 2
    with pytest.raises(ValidationError):
        sink_multiplicity(path2, w, (0, 9))


def test_infinite_ladder_rows_sum_to_zero(path3):
    # diagonal equals the count of ladder neighbours, so full rows vanish
    for x in range(path3.n):
        u = (x, 0)
        neighbours = [(y, 0) for y in path3.neighbors[x]] + [(x, -1), (x, 1)]
        total = laplacian_entry(path3, u, u) + sum(
            laplacian_entry(path3, u, v) for v in neighbours)
        assert total == 0


def test_window_row_sums_equal_sink_multiplicity(path3):
    # the ladder rows sum to zero, so inside a window the deficit is
    # exactly the number of sink edges
    w = Window(-1, 3)
    sites = [(x, k) for x in range(path3.n) for k in w.rungs]
    for u in sites:
        in_window = sum(1 for v in sites if ladder_adjacent(u, v, path3))
        assert laplacian_entry(path3, u, u) - in_window == \
            sink_multiplicity(path3, w, u)


def test_window_validation():
    with pytest.raises(ValidationError):
        Window(3, 2)
    with pytest.raises(ValidationError, match="m=2.5 is not an integer"):
        Window(0, 2.5)
    w = Window(np.int64(-1), np.int64(1))
    assert w == Window(-1, 1) and type(w.n) is type(w.m) is int
    assert len(Window(-2, 2)) == 5
    assert list(Window(0, 1).rungs) == [0, 1]


def test_graph_json(path2):
    doc = path2.to_json()
    assert doc == {"vertices": 2, "edges": [[0, 1]], "m": [3, 3]}
    json.dumps(doc)


def test_masks_roundtrip():
    assert mask_to_vertices(0b1011) == (0, 1, 3)
    assert vertices_to_mask([0, 1, 3]) == 0b1011
    assert vertices_to_mask(()) == 0


def test_graph_hashable_equal():
    a = parse_graph("0 1")
    b = builtin_graph("path2")
    assert a.degree == b.degree and a.edges == b.edges
    assert isinstance(hash(b), int)


@pytest.mark.parametrize("name", ["point", "path2", "path3", "cycle3", "path4", "cycle4"])
def test_ladder_neighbors_match_adjacency(name):
    graph = builtin_graph(name)
    n = graph.n
    for rows in range(1, 5):
        nbrs = ladder_neighbors(graph, rows)
        assert len(nbrs) == rows * n
        sites = [(c % n, c // n) for c in range(rows * n)]
        for c, u in enumerate(sites):
            assert sorted(nbrs[c]) == [d for d, v in enumerate(sites)
                                       if ladder_adjacent(u, v, graph)]
            # graph neighbours, then the rung below, then the rung above
            x, r = u
            assert nbrs[c] == (tuple(r * n + y for y in graph.neighbors[x])
                               + ((c - n,) if r > 0 else ())
                               + ((c + n,) if r < rows - 1 else ()))
