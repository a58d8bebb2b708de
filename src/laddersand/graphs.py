"""Base graphs and ladder geometry.

A ladder is the product of a fixed finite connected base graph with an
integer interval of "rungs".  A ladder site is a pair ``(x, k)`` with
``x`` a base-graph vertex index and ``k`` the rung coordinate; sites are
adjacent when they share a rung and the vertices are adjacent in the
base graph, or share a vertex and sit on consecutive rungs.

Every site has the same degree it would have on the two-sided infinite
ladder, namely ``deg(x) + 2``; that number is also the maximum stable
height at the site.  On a finite window the missing ladder edges at the
two end rungs are rewired to a sink, which is what makes the sandpile
dissipative.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import index
from typing import Iterable

from .errors import ValidationError

Site = tuple[int, int]  # (vertex index, rung coordinate)

# Vertex subsets of the base graph are bitmasks over vertex indices.
# 2**|G| tables of subsets dominate memory in the coding construction,
# hence the soft cap; above HARD_VERTEX_CAP the tables are hopeless.
DEFAULT_VERTEX_CAP = 12
HARD_VERTEX_CAP = 16
DEFAULT_MAX_STATES = 10 ** 6  # an automaton's, or a brute count's of one length


@dataclass(frozen=True)
class Graph:
    """A finite connected simple graph with sandpile height bounds.

    ``max_height[x] == degree[x] + 2`` is the largest stable height at
    any ladder site over ``x``.  Graphs key the per-graph caches, so the
    hash is taken once, of the integer fields (equal graphs agree on
    them, and neighbours and degrees follow from the edges).
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    neighbors: tuple[tuple[int, ...], ...]
    degree: tuple[int, ...]
    max_height: tuple[int, ...]
    name: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.n, self.edges, self.max_height)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def vertices(self) -> range:
        return range(self.n)

    def to_json(self) -> dict:
        return {
            "vertices": self.n,
            "edges": [list(e) for e in self.edges],
            "m": list(self.max_height),
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}(|G|={self.n})"


def make_graph(n: int, edges: Iterable[tuple[int, int]], name: str = "custom",
               vertex_cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Build and validate a :class:`Graph` from an edge list."""
    if n < 1:
        raise ValidationError("graph needs at least one vertex")
    if n > HARD_VERTEX_CAP:
        raise ValidationError(
            f"graph has {n} vertices; hard cap is {HARD_VERTEX_CAP} "
            "(subset tables are 2**|G|)")
    if n > vertex_cap:
        raise ValidationError(
            f"graph has {n} vertices; cap is {vertex_cap} "
            "(raise vertex_cap explicitly to proceed)")
    seen = set()
    norm = []
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValidationError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
        if u == v:
            raise ValidationError(f"self-loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            continue
        seen.add(key)
        norm.append(key)
    norm.sort()
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in norm:
        nbrs[u].append(v)
        nbrs[v].append(u)
    # connectivity
    stack, reached = [0], {0}
    while stack:
        u = stack.pop()
        for v in nbrs[u]:
            if v not in reached:
                reached.add(v)
                stack.append(v)
    if len(reached) != n:
        raise ValidationError("graph not connected")
    degree = tuple(len(a) for a in nbrs)
    return Graph(
        n=n,
        edges=tuple(norm),
        neighbors=tuple(tuple(sorted(a)) for a in nbrs),
        degree=degree,
        max_height=tuple(d + 2 for d in degree),
        name=name,
    )


def parse_graph(text: str, name: str = "custom",
                vertex_cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Parse an edge-list: one ``u v`` pair per line, labels renumbered
    0..|G|-1 in first-appearance order.  A line with a single label
    declares an isolated vertex (only useful for the one-vertex graph).
    """
    order: dict[int, int] = {}

    def vid(label: str) -> int:
        try:
            raw = int(label)
        except ValueError:
            raise ValidationError(f"vertex label {label!r} is not an integer") from None
        if raw < 0:
            raise ValidationError(f"vertex label {raw} is negative")
        if raw not in order:
            order[raw] = len(order)
        return order[raw]

    edges = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 1:
            vid(parts[0])
        elif len(parts) == 2:
            edges.append((vid(parts[0]), vid(parts[1])))
        else:
            raise ValidationError(f"bad edge line: {line!r}")
    if not order:
        raise ValidationError("graph needs at least one vertex")
    return make_graph(len(order), edges, name=name, vertex_cap=vertex_cap)


@lru_cache(maxsize=None)
def builtin_graph(name: str, vertex_cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Named stock graphs: ``point``, ``path2``, ``path3``, ``pathN``, ``cycleN``."""
    if name == "point":
        return make_graph(1, [], name="point", vertex_cap=vertex_cap)
    kind = name.rstrip("0123456789")
    if kind not in ("path", "cycle") or kind == name:
        raise ValidationError(f"unknown builtin graph {name!r}")
    n = int(name[len(kind):])
    if kind == "path" and n >= 1:
        return make_graph(n, [(i, i + 1) for i in range(n - 1)], name=name,
                          vertex_cap=vertex_cap)
    if kind == "cycle" and n >= 3:
        return make_graph(n, [(i, (i + 1) % n) for i in range(n)], name=name,
                          vertex_cap=vertex_cap)
    raise ValidationError(f"bad builtin graph {name!r}; paths need >= 1 vertex, "
                          "cycles >= 3")


def _integer(value, name: str) -> int:
    """``value`` as an ``int``, refused if it is not an integer."""
    try:
        return index(value)
    except TypeError:
        raise ValidationError(f"{name}={value!r} is not an integer") from None


def _length(value, name: str, least: int) -> int:
    """A length or a cap as an ``int`` of at least ``least``."""
    value = _integer(value, name)
    if value < least:
        raise ValidationError(f"{name} must be >= {least}")
    return value


def _seed(value) -> int:
    """A random seed as a non-negative ``int``.  ``random.Random`` takes a
    negative seed as its absolute value and numpy refuses it untyped, so
    negative seeds are refused, and so are booleans."""
    if isinstance(value, bool):
        raise ValidationError(f"seed={value!r} is not an integer")
    return _length(value, "seed", 0)


@dataclass(frozen=True)
class Window:
    """A rung interval ``n..m`` (inclusive, signed)."""

    n: int
    m: int

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "n"))
        object.__setattr__(self, "m", _integer(self.m, "m"))
        if self.n > self.m:
            raise ValidationError(f"window needs n <= m, got [{self.n}, {self.m}]")

    def __len__(self) -> int:
        return self.m - self.n + 1

    @property
    def rungs(self) -> range:
        return range(self.n, self.m + 1)

    def contains(self, site: Site) -> bool:
        return self.n <= site[1] <= self.m


def ladder_adjacent(u: Site, v: Site, graph: Graph) -> bool:
    (x, k), (y, ell) = u, v
    if k == ell:
        return y in graph.neighbors[x]
    return x == y and abs(k - ell) == 1


def ladder_neighbors(graph: Graph, rows: int) -> list[tuple[int, ...]]:
    """Neighbours of each cell ``r * n + x`` of ``rows`` consecutive rungs
    (row ``r``, vertex ``x``): its graph neighbours, then the rung below,
    then the rung above, the last two where the rows have them."""
    n = graph.n
    inner = [tuple(y - x for y in graph.neighbors[x]) for x in range(n)]
    first, middle, last = ([step + end for step in inner]
                           for end in ((n,), (-n, n), (-n,)))
    offsets = first + middle * (rows - 2) + last if rows > 1 else inner
    return [tuple([c + d for d in step]) for c, step in enumerate(offsets)]


def laplacian_entry(graph: Graph, u: Site, v: Site) -> int:
    """Entry of the ladder Laplacian: degree on the diagonal, -1 between
    neighbours, 0 otherwise.  The diagonal is ``deg(x) + 2`` because every
    site has two rung-neighbours on the infinite ladder."""
    if u == v:
        return graph.degree[u[0]] + 2
    return -1 if ladder_adjacent(u, v, graph) else 0


def sink_multiplicity(graph: Graph, window: Window, u: Site) -> int:
    """Number of sink edges at ``u`` when the ladder is cut to ``window``:
    the full ladder degree minus the degree realized inside the window."""
    x, k = u
    if not window.contains(u):
        raise ValidationError(f"site {u} outside window [{window.n}, {window.m}]")
    in_window_degree = graph.degree[x] + (k > window.n) + (k < window.m)
    return graph.degree[x] + 2 - in_window_degree


def mask_to_vertices(mask: int) -> tuple[int, ...]:
    out = []
    x = 0
    while mask:
        if mask & 1:
            out.append(x)
        mask >>= 1
        x += 1
    return tuple(out)


def vertices_to_mask(vertices: Iterable[int]) -> int:
    mask = 0
    for x in vertices:
        mask |= 1 << x
    return mask
