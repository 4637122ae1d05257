"""Immutable simple-graph core: representation, generators, edge subsets,
and connected-component queries.

Vertices are dense integers ``0..n-1``. Edges receive stable indices
``0..m-1`` in construction order, so fault sets and matchings can be held
as small index sets (or bitmasks in hot loops). ``Graph.adj`` is the
adjacency to iterate, in neighbour order; ``Graph.edge_to`` is the one index
from a vertex pair to its edge. Graphs are immutable after construction,
these two included, and safe to share across threads. Every edge-set
argument is read through :func:`edge_ids`, which enforces an
:class:`EdgeSet`'s tag and the range of plain edge indices, a lone vertex
through :func:`check_vertex`, and every integer argument through
:func:`check_int`.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .errors import ParameterError, TagMismatchError

__all__ = [
    "MAX_VERTICES",
    "MAX_EDGES",
    "Graph",
    "EdgeSet",
    "ComponentReport",
    "generate",
    "hypercube",
    "complete",
    "complete_bipartite",
    "petersen",
    "cycle",
    "path",
    "random_bipartite_with_pm",
    "random_graph",
    "delete_edges",
    "components",
    "find_bipartition",
]

# The largest order graph6 can encode. Checked before any allocation, so an
# input header that declares a huge vertex count fails as a parameter error
# instead of exhausting memory.
MAX_VERTICES = 258_047

# The most edges a generator builds. A graph costs about 550 bytes an edge at
# peak, so one at this cap fits in about 0.6 GB; generators check it, with
# the order, before they allocate anything.
MAX_EDGES = 1_000_000


class Graph:
    """Immutable undirected simple graph with indexed vertices and edges.

    ``edges[i]`` is the endpoint pair ``(u, v)`` with ``u < v`` of the edge
    whose stable index is ``i``. ``adj[v]`` holds the ``(neighbour, edge)``
    pairs of ``v`` sorted by neighbour, for iteration; ``edge_to[v]`` maps
    each neighbour of ``v`` to the edge's index, for lookup, and iterating
    it gives edge order. Neither may be mutated. ``bipartition``, when
    present, maps each vertex to side 0 or 1 and every edge must cross sides.

    The constructor checks ``n`` first and then reads each edge once, in
    order, raising :class:`ParameterError` at the first bad one, so a caller
    that passes a generator knows which edge it last yielded.
    """

    __slots__ = ("n", "edges", "adj", "edge_to", "bipartition")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]],
        bipartition: Optional[Sequence[int]] = None,
    ):
        check_int(n, "n", 0)
        if n > MAX_VERTICES:
            raise ParameterError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
        self.n = n
        normalized: list[tuple[int, int]] = []
        edge_to: list[dict[int, int]] = [{} for _ in range(n)]
        for edge in edges:
            u, v = _endpoints(edge)
            if not (0 <= u < n and 0 <= v < n):
                raise ParameterError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ParameterError(f"self-loop at vertex {u}")
            if u > v:
                u, v = v, u
            if v in edge_to[u]:
                raise ParameterError(f"duplicate edge ({u}, {v})")
            edge_to[u][v] = edge_to[v][u] = len(normalized)
            normalized.append((u, v))
        self.edges: tuple[tuple[int, int], ...] = tuple(normalized)
        self.edge_to: tuple[dict[int, int], ...] = tuple(edge_to)
        self.adj: tuple[tuple[tuple[int, int], ...], ...] = tuple(
            tuple(sorted(nbrs.items())) for nbrs in edge_to
        )
        if bipartition is not None:
            sides = tuple(bipartition)
            for side in sides:
                if type(side) is not int:
                    check_int(side, "bipartition side", 0)
            if len(sides) != n or any(side not in (0, 1) for side in sides):
                raise ParameterError("bipartition must assign 0 or 1 to each vertex")
            for u, v in self.edges:
                if sides[u] == sides[v]:
                    raise ParameterError(
                        f"edge ({u}, {v}) does not cross the given bipartition"
                    )
            self.bipartition: Optional[tuple[int, ...]] = sides
        else:
            self.bipartition = None

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        check_vertex(self, v)
        return len(self.adj[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        check_vertex(self, v)
        return tuple(w for w, _ in self.adj[v])

    def incident(self, v: int) -> frozenset[int]:
        """Indices of all edges incident to vertex ``v``."""
        check_vertex(self, v)
        return frozenset(self.edge_to[v].values())

    def has_edge(self, u: int, v: int) -> bool:
        u, v = _endpoints((u, v))
        # The range check keeps a negative u from indexing from the end.
        return 0 <= u < self.n and v in self.edge_to[u]

    def edge_id(self, u: int, v: int) -> int:
        u, v = _endpoints((u, v))
        eid = self.edge_to[u].get(v) if 0 <= u < self.n else None
        if eid is None:
            raise ParameterError(f"({min(u, v)}, {max(u, v)}) is not an edge")
        return eid

    def min_degree(self) -> int:
        return min((len(nbrs) for nbrs in self.adj), default=0)

    def same_labelling(self, other: "Graph") -> bool:
        """True when edge indices of ``self`` and ``other`` are interchangeable."""
        return self is other or (self.n == other.n and self.edges == other.edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and frozenset(self.edges) == frozenset(other.edges)

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.edges)))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class EdgeSet:
    """A subset of one graph's edges.

    The edge indices are kept as a sorted tuple, a fifth of the size of a
    frozen set of six indices, so certificates kept in bulk stay small;
    :attr:`members` hands them out as a frozen set. Every operation that
    consumes an edge set, this constructor included, reads it through
    :func:`edge_ids`, which checks that an :class:`EdgeSet` is tagged to the
    graph at hand (same labelling) and that plain indices exist there, so
    indices cannot silently be applied to a foreign graph.
    """

    __slots__ = ("graph", "ids")

    def __init__(self, graph: Graph, members: Iterable[int]):
        self.ids = tuple(sorted(edge_ids(graph, members)))
        self.graph = graph

    @property
    def members(self) -> frozenset[int]:
        """The edge indices as a frozen set, built on each access."""
        return frozenset(self.ids)

    @classmethod
    def from_pairs(cls, graph: Graph, pairs: Iterable[tuple[int, int]]) -> "EdgeSet":
        """The edges of ``graph`` with the endpoint ``pairs``, each read as
        :class:`Graph` reads an edge."""
        return cls(graph, (graph.edge_id(*_endpoints(pair)) for pair in pairs))

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(self.graph.edges[eid] for eid in self.ids)

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids)

    def __contains__(self, eid: int) -> bool:
        if type(eid) is not int:
            check_int(eid, "edge index", 0)
        return eid in self.ids

    def __eq__(self, other) -> bool:
        if not isinstance(other, EdgeSet):
            return NotImplemented
        return self.graph.same_labelling(other.graph) and self.ids == other.ids

    def __hash__(self) -> int:
        return hash(self.ids)

    def __repr__(self) -> str:
        return f"EdgeSet({list(self.ids)})"


def _endpoints(edge) -> tuple[int, int]:
    """The endpoints of the edge argument ``edge``, each an int >= 0, else
    :class:`ParameterError`."""
    try:
        u, v = edge
    except (TypeError, ValueError):
        raise ParameterError(f"edge {edge!r} is not a pair of vertices") from None
    if type(u) is not int or type(v) is not int:
        check_int(u, "edge endpoint", 0)
        check_int(v, "edge endpoint", 0)
    return u, v


def check_vertex(graph: Graph, v: int, name: str = "vertex") -> None:
    """Raise :class:`ParameterError` naming ``name`` unless ``v`` is a vertex
    of ``graph``: an int in ``0..n-1``, so -1 is not the last vertex."""
    if type(v) is not int:
        check_int(v, name, 0)
    if not 0 <= v < graph.n:
        raise ParameterError(f"{name} {v} out of range for n={graph.n}")


def check_int(value: int, name: str, least: int) -> None:
    """Raise :class:`ParameterError` naming ``name`` unless ``value`` is an
    int >= ``least``. A bool is an int to Python, but no count or index."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ParameterError(f"{name} must be >= {least}, got {value}")


def edge_ids(graph: Graph, edges: Iterable[int]) -> frozenset[int]:
    """The indices of the edge-set argument ``edges``: an :class:`EdgeSet`
    must be tagged to ``graph`` (else :class:`TagMismatchError`), and any
    other iterable is read as edge indices, each of which must be an int
    that exists in ``graph`` (else :class:`ParameterError`)."""
    if isinstance(edges, EdgeSet):
        if not graph.same_labelling(edges.graph):
            raise TagMismatchError("edge set is tagged to a different graph")
        return edges.members
    try:
        dead = frozenset(edges)
    except TypeError:
        if not isinstance(edges, Iterable):
            raise
        # An unhashable index (a list, say) is no int. Reading the indices
        # again names it, unless a one-shot iterator has used it up.
        for eid in edges:
            check_int(eid, "edge index", 0)
        raise ParameterError("edge index is not hashable") from None
    for eid in dead:
        if type(eid) is not int:
            check_int(eid, "edge index", 0)
    if dead and (min(dead) < 0 or max(dead) >= graph.m):
        eid = min(dead) if min(dead) < 0 else max(dead)
        raise ParameterError(f"edge index {eid} out of range for m={graph.m}")
    return dead


@dataclass(frozen=True)
class ComponentReport:
    """Connected components of a graph on ``n`` vertices: the partition plus
    summary flags."""

    components: tuple[frozenset[int], ...]
    min_size: int
    connected: bool
    n: int


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def _check_size(n: int, m: int) -> None:
    """Refuse a generator's order ``n`` or edge count ``m`` above the caps
    before any edge list exists."""
    if n > MAX_VERTICES:
        raise ParameterError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
    if m > MAX_EDGES:
        raise ParameterError(f"edge count {m} exceeds the limit of {MAX_EDGES}")


def hypercube(n: int) -> Graph:
    """The hypercube Q_n: vertex ``i`` is the n-bit string of ``i``, and
    ``i`` is adjacent to ``i ^ (1 << k)`` for each bit position ``k``.

    Carries the bit-parity bipartition.
    """
    check_int(n, "n", 1)
    if n >= MAX_VERTICES.bit_length():
        raise ParameterError(f"vertex count 2^{n} exceeds the limit of {MAX_VERTICES}")
    _check_size(1 << n, n << (n - 1))
    size = 1 << n
    edges = []
    for i in range(size):
        for k in range(n):
            j = i ^ (1 << k)
            if i < j:
                edges.append((i, j))
    sides = [bin(i).count("1") & 1 for i in range(size)]
    return Graph(size, edges, bipartition=sides)


def complete(n: int) -> Graph:
    check_int(n, "n", 1)
    _check_size(n, n * (n - 1) // 2)
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    check_int(a, "a", 1)
    check_int(b, "b", 1)
    _check_size(a + b, a * b)
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    return Graph(a + b, edges, bipartition=[0] * a + [1] * b)


def petersen() -> Graph:
    """Petersen graph: outer 5-cycle 0..4, spokes to 5..9, inner pentagram."""
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((i, i + 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
    return Graph(10, edges)


def cycle(n: int) -> Graph:
    check_int(n, "n", 3)
    _check_size(n, n)
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    check_int(n, "n", 1)
    _check_size(n, n - 1)
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


# Each family's builder and parameter count, in the order `gen --help` lists them.
FAMILIES = {
    "hypercube": (hypercube, 1),
    "complete": (complete, 1),
    "complete_bipartite": (complete_bipartite, 2),
    "petersen": (petersen, 0),
    "cycle": (cycle, 1),
    "path": (path, 1),
}


def generate(family: str, params: Sequence[int] = ()) -> Graph:
    """Build a named graph family instance, e.g. ``generate("hypercube", [3])``."""
    if family not in FAMILIES:
        raise ParameterError(
            f"unknown family {family!r}; choose from {sorted(FAMILIES)}"
        )
    builder, arity = FAMILIES[family]
    if len(params) != arity:
        raise ParameterError(f"family {family!r} takes {arity} parameter(s)")
    return builder(*params)


def random_bipartite_with_pm(t: int, extra_edge_prob: float, seed: int) -> Graph:
    """Random balanced bipartite graph on sides of size ``t`` that contains a
    planted perfect matching {(i, t+i)}. Each other cross pair is added
    independently with probability ``extra_edge_prob``. Deterministic for a
    fixed seed.
    """
    check_int(t, "t", 1)
    # A bool would pass for 0 or 1, and a string escape as a bare TypeError.
    if isinstance(extra_edge_prob, bool) or not isinstance(extra_edge_prob, (int, float)):
        raise ParameterError(f"probability must be a real number, got {extra_edge_prob!r}")
    if not 0.0 <= extra_edge_prob <= 1.0:
        raise ParameterError(f"probability must lie in [0, 1], got {extra_edge_prob}")
    _check_size(2 * t, t)
    rng = random.Random(seed)
    edges = [(i, t + i) for i in range(t)]
    for i in range(t):
        for j in range(t):
            if j != i and rng.random() < extra_edge_prob:
                edges.append((i, t + j))
    return Graph(2 * t, edges, bipartition=[0] * t + [1] * t)


def random_graph(n: int, m: int, seed: int) -> Graph:
    """Uniform random simple graph with ``n`` vertices and ``m`` edges: ``m``
    ranks sampled among the vertex pairs in lexicographic order, unranked."""
    check_int(n, "n", 1)
    check_int(m, "m", 0)
    max_m = n * (n - 1) // 2
    if m > max_m:
        raise ParameterError(f"edge count {m} out of range for n={n}")
    _check_size(n, m)
    edges = []
    i = first = 0  # first: the rank of the pair (i, i + 1)
    for rank in sorted(random.Random(seed).sample(range(max_m), m)):
        while rank >= first + n - 1 - i:
            first += n - 1 - i
            i += 1
        edges.append((i, i + 1 + rank - first))
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# Deletion and components
# ---------------------------------------------------------------------------

def delete_edges(g: Graph, f: Iterable[int]) -> Graph:
    """The graph ``g - f``: same vertices, surviving edges in original order,
    so the new index of a surviving edge is its rank among the survivors."""
    dead = edge_ids(g, f)
    kept = [g.edges[eid] for eid in range(g.m) if eid not in dead]
    sides = g.bipartition
    return Graph(g.n, kept, bipartition=sides)


def components(g: Graph, without: Optional[Iterable[int]] = None) -> ComponentReport:
    """Connected components of ``g``, optionally ignoring the edges whose
    indices appear in ``without`` (so ``components(g, without=f)`` reports on
    ``g - f`` without building the deleted graph).
    """
    dead = frozenset() if without is None else edge_ids(g, without)
    adj = g.adj
    seen = [False] * g.n
    comps: list[frozenset[int]] = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        # Breadth-first: the loop walks comp as it grows.
        for v in comp:
            for w, eid in adj[v]:
                if not seen[w] and eid not in dead:
                    seen[w] = True
                    comp.append(w)
        comps.append(frozenset(comp))
    min_size = min((len(c) for c in comps), default=0)
    return ComponentReport(tuple(comps), min_size, len(comps) <= 1, g.n)


def find_bipartition(g: Graph) -> Optional[tuple[int, ...]]:
    """A two-coloring of ``g`` if one exists (component roots get side 0),
    else ``None``."""
    side = [-1] * g.n
    for start in range(g.n):
        if side[start] != -1:
            continue
        side[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w, _ in g.adj[v]:
                if side[w] == -1:
                    side[w] = 1 - side[v]
                    queue.append(w)
                elif side[w] == side[v]:
                    return None
    return tuple(side)


def with_bipartition(g: Graph) -> Graph:
    """Return ``g`` with a detected bipartition attached when the graph is
    bipartite and no labelling is present; otherwise ``g`` unchanged."""
    if g.bipartition is not None:
        return g
    sides = find_bipartition(g)
    if sides is None:
        return g
    return Graph(g.n, g.edges, bipartition=sides)
