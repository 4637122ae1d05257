"""Automorphisms of a graph that fix given edge sets, and the edge orbits
they generate.

Automorphisms are found by colour refinement plus individualization and
backtracking, in the style of McKay and Piperno ("Practical graph
isomorphism, II", J. Symbolic Computation 2014), in pure Python. Each edge
carries one bit per fixed set it lies in, and refinement counts neighbours
per (edge bits, colour), so every colouring is an invariant of the graph
together with its fixed sets. The first path of the search tree
individualizes the first vertex of the first smallest non-singleton cell
until the colouring is discrete; then, from the deepest level up, each other
vertex of a level's cell that is not yet in the first vertex's orbit gets a
search of its subtree, pruned by the refinement's invariant, for a leaf whose
map from the first leaf is an automorphism. This finds generators of the
whole group.

Nothing here trusts metadata such as ``Graph.bipartition``: every
permutation returned has passed the edge-by-edge test of
:func:`is_automorphism`, so a leaf map that only looks right is dropped.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .graphs import Graph, edge_ids

__all__ = [
    "is_automorphism",
    "automorphisms",
    "edge_orbits",
]

Permutation = tuple[int, ...]


def _edge_bits(g: Graph, fixed: Sequence[Iterable[int]]) -> list[int]:
    """Bit i of ``bits[e]`` is set when edge e lies in ``fixed[i]``, each
    set read by :func:`edge_ids`."""
    bits = [0] * g.m
    for i, edges in enumerate(fixed):
        for eid in edge_ids(g, edges):
            bits[eid] |= 1 << i
    return bits


def _coloured_adjacency(g: Graph, bits: list[int]) -> tuple[list[tuple[tuple[int, int], ...]], int]:
    """Each vertex's (neighbour, edge bits) pairs, and one more than the
    largest edge bits value."""
    return [tuple((w, bits[eid]) for w, eid in nbrs) for nbrs in g.adj], max(bits, default=0) + 1


def _refine(nbrs, width: int, colour: list[int]) -> tuple[list[int], int, tuple]:
    """The coarsest equitable refinement of ``colour`` (canonical ranks
    0..c-1), its cell count, and an invariant of the result.

    Each round ranks the signatures (own colour, sorted neighbour keys
    ``width * colour + edge bits``) of all vertices. Ranks depend only on
    signatures, so the result commutes with relabelling. The last round's
    ranked signatures (the quotient of the partition, once it is stable)
    serve as the invariant compared between search-tree nodes."""
    count = max(colour, default=-1) + 1
    while True:
        sigs = [(colour[v], tuple(sorted([width * colour[w] + b for w, b in row])))
                for v, row in enumerate(nbrs)]
        ranked = sorted(set(sigs))
        if len(ranked) == count:
            return colour, count, tuple(ranked)
        rank = {sig: i for i, sig in enumerate(ranked)}
        colour = [rank[sig] for sig in sigs]
        count = len(ranked)
        if count == len(nbrs):  # discrete, hence stable
            return colour, count, tuple(ranked)


def _individualize(colour: list[int], v: int) -> list[int]:
    """``v`` alone takes its old rank, the rest of its cell the next one."""
    c0 = colour[v]
    return [c + 1 if c > c0 or (c == c0 and u != v) else c for u, c in enumerate(colour)]


def _target_cell(colour: list[int], count: int) -> list[int]:
    """The vertices of the first smallest non-singleton cell."""
    sizes = [0] * count
    for c in colour:
        sizes[c] += 1
    target = min((size, c) for c, size in enumerate(sizes) if size > 1)[1]
    return [v for v, c in enumerate(colour) if c == target]


def _root(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _merge(parent: list[int], x: int, y: int) -> None:
    """Union-find: join the classes of x and y under the smaller root."""
    a, b = _root(parent, x), _root(parent, y)
    if a != b:
        parent[max(a, b)] = min(a, b)


def _maps_edges(g: Graph, bits: list[int], perm: Sequence[int]) -> bool:
    edge_to = g.edge_to
    for eid, (u, v) in enumerate(g.edges):
        image = edge_to[perm[u]].get(perm[v])
        if image is None or bits[image] != bits[eid]:
            return False
    return True


def is_automorphism(g: Graph, perm: Sequence[int], fixed: Sequence[Iterable[int]] = ()) -> bool:
    """Whether the vertex map ``perm`` is a permutation of g's vertices that
    maps edges to edges and every edge set in ``fixed`` onto itself."""
    if len(perm) != g.n or sorted(perm) != list(range(g.n)):
        return False
    return _maps_edges(g, _edge_bits(g, fixed), perm)


class _Tree:
    """The individualization-refinement tree of g with edge bits ``bits``:
    its first path, and the search for leaves that map onto its first leaf.
    Levels count individualized vertices."""

    def __init__(self, g: Graph, bits: list[int]):
        self.g = g
        self.bits = bits
        self.nbrs, self.width = _coloured_adjacency(g, bits)
        self.cells: list[list[int]] = []       # target cell at each level of the first path
        self.colours: list[list[int]] = []     # colouring at each level
        self.invariants: list[tuple] = []      # invariant one level further down
        colour, count, _ = _refine(self.nbrs, self.width, [0] * g.n)
        while count < g.n:
            cell = _target_cell(colour, count)
            self.cells.append(cell)
            self.colours.append(colour)
            colour, count, inv = _refine(self.nbrs, self.width, _individualize(colour, cell[0]))
            self.invariants.append(inv)
        self.first_leaf = colour

    def _child(self, colour: list[int], v: int, level: int) -> Optional[list[int]]:
        """The refined colouring after individualizing ``v`` at ``level``,
        or None when its invariant differs from the first path's."""
        child, _, inv = _refine(self.nbrs, self.width, _individualize(colour, v))
        return child if inv == self.invariants[level] else None

    def _leaf_map(self, colour: list[int], level: int) -> Optional[Permutation]:
        """The checked map from the first leaf to a leaf below ``colour``."""
        if level == len(self.cells):
            vertex_of = [0] * self.g.n
            for v, c in enumerate(colour):
                vertex_of[c] = v
            perm = tuple(vertex_of[c] for c in self.first_leaf)
            return perm if _maps_edges(self.g, self.bits, perm) else None
        for u in _target_cell(colour, max(colour) + 1):
            child = self._child(colour, u, level)
            perm = None if child is None else self._leaf_map(child, level + 1)
            if perm is not None:
                return perm
        return None

    def generators(self) -> list[Permutation]:
        """From the deepest level up, one search per vertex of the level's
        cell that the generators found so far do not map the first vertex
        to; each success is a generator."""
        parent = list(range(self.g.n))  # vertex orbits of the generators found
        found: list[Permutation] = []
        for level in reversed(range(len(self.cells))):
            first, *others = self.cells[level]
            for w in others:
                if _root(parent, w) == _root(parent, first):
                    continue
                child = self._child(self.colours[level], w, level)
                perm = None if child is None else self._leaf_map(child, level + 1)
                if perm is None:
                    continue
                found.append(perm)
                for v, image in enumerate(perm):
                    _merge(parent, v, image)
        return found


def automorphisms(g: Graph, fixed: Sequence[Iterable[int]] = ()) -> list[Permutation]:
    """Generators of the automorphisms of g that fix each edge set in
    ``fixed`` setwise, as vertex maps; empty when that group is trivial.
    Every generator is checked by the same test as :func:`is_automorphism`."""
    return _Tree(g, _edge_bits(g, fixed)).generators()


def edge_orbits(g: Graph, generators: Iterable[Sequence[int]]) -> tuple[frozenset[int], ...]:
    """``orbits[e]``: the edges that the group generated by ``generators``
    (vertex maps, assumed to be automorphisms) maps edge e to."""
    parent = list(range(g.m))
    for perm in generators:
        for eid, (u, v) in enumerate(g.edges):
            _merge(parent, eid, g.edge_id(perm[u], perm[v]))
    members: dict[int, list[int]] = {}
    for eid in range(g.m):
        members.setdefault(_root(parent, eid), []).append(eid)
    orbit_of = {r: frozenset(es) for r, es in members.items()}
    return tuple(orbit_of[_root(parent, eid)] for eid in range(g.m))
