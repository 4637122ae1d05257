"""Automorphisms of a graph that fix given edge sets, and the edge orbits
they generate.

Automorphisms are found by partition refinement plus individualization and
backtracking, in the style of McKay and Piperno ("Practical graph
isomorphism, II", J. Symbolic Computation 2014), in pure Python. Each edge
carries one bit per fixed set it lies in. A partition is a list of cells
(member lists), numbered in the order they are made, starting from the one
cell of all vertices. Refinement is driven by splitter cells: each splitter
splits every cell it touches by the vertices' neighbour counts in it per
edge-bits class, so only what a split changed is looked at again. Every
choice it makes depends on cell numbers and counts alone, so the partition
is an invariant of the graph together with its fixed sets, and so is the
trace of its splits, which is what the search compares. Individualizing a
vertex moves it into a new cell and refines with that cell as the only
splitter, which suffices because the partition it starts from is equitable.

The first path of the search tree individualizes the first vertex of the
first smallest non-singleton cell until every cell is a singleton; then,
from the deepest level up, each other vertex of a level's cell that is not
yet in the first vertex's orbit gets a depth first search of its subtree,
with an explicit stack rather than recursion, so the depth is bounded by
memory, not by the recursion limit. It is pruned by comparing traces with
the first path's and stops at the first leaf whose map from the first leaf
is an automorphism. This finds generators of the whole group.

Twins, two non-adjacent vertices with the same neighbours over edges of the
same bits, cannot be told apart by refinement, so the search would
individualize them one at a time. Twins have equal weighted adjacency (it
is sorted by neighbour), so one set of it finds them, and a graph without
twins, the common case, takes the plain search unchanged. Otherwise each
twin class of c vertices gives its c - 1 adjacent transpositions, which are
automorphisms, and the search runs on the quotient, one vertex per class,
each class's edges weighted c times over. Each member of a class next to a
class of c twins sees all c of them over edges of the same bits, so a
splitter sum in the quotient is the neighbour count of g itself, per
edge-bits class; it stays below n + 1, so the digits stay separate. A
quotient leaf map counts when its lift, each class mapped member to member
onto its image, passes the full test on g. This is exact. Every
automorphism maps twin classes onto twin classes of the same size, so it is
the lift of a quotient map times a product of permutations within the
classes, which the transpositions generate. So only the number of
generators changes, not the group. The weights only prune: a map between
classes of different sizes has a lift that is no permutation, which the
lift test rejects, and the weights put class sizes in the sums the traces
record, so the search seldom reaches such a map.

Nothing here trusts metadata such as ``Graph.bipartition``: every
permutation returned has passed the edge-by-edge test of
:func:`is_automorphism`, so a leaf map that only looks right is dropped.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable, Sequence

from .errors import ParameterError
from .graphs import Graph, check_int, edge_ids

__all__ = [
    "is_automorphism",
    "automorphisms",
    "refines_to_discrete",
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


def _weighted_adjacency(g: Graph, bits: list[int]) -> list[tuple[tuple[int, int], ...]]:
    """Each vertex's (neighbour, weight) pairs. An edge with edge bits b
    weighs (n + 1) ** b, so a sum of weights over at most n edges spells out
    the count of neighbours per edge-bits class."""
    base = g.n + 1
    return [tuple((w, base ** bits[eid]) for w, eid in nbrs) for nbrs in g.adj]


def _refine(nbrs, cells: list[list[int]], cell_of: list[int], queue: list[int]) -> list:
    """Refine the partition ``cells`` (``cell_of`` its inverse) in place
    from the splitter cells in ``queue`` until it is equitable or discrete,
    and return its split trace.

    A splitter gives each vertex the sum of the weights of its edges into
    the splitter. Each cell it touches, by number, splits by that sum: the
    piece with the smallest sum keeps the cell's number and the others are
    new cells in sum order. If the cell was queued, every new piece is
    queued; otherwise every piece but the first largest (Hopcroft). The
    trace records each touched cell's sums and piece sizes."""
    trace: list = []
    n = len(cell_of)
    queued = set(queue)
    for s in queue:
        if len(cells) == n:
            break
        queued.discard(s)
        count: dict[int, int] = {}
        for v in cells[s]:
            for w, weight in nbrs[v]:
                count[w] = count.get(w, 0) + weight
        for c in sorted({cell_of[w] for w in count}):
            cell = cells[c]
            if len(cell) == 1:
                trace.append((c, count[cell[0]]))
                continue
            first = count.get(cell[0], 0)
            for u in cell:
                if count.get(u, 0) != first:
                    break
            else:
                # One sum: no split.
                trace.append((c, ((first, len(cell)),)))
                continue
            by_key: dict[int, list[int]] = {}
            for u in cell:
                by_key.setdefault(count.get(u, 0), []).append(u)
            keys = sorted(by_key)
            trace.append((c, tuple((k, len(by_key[k])) for k in keys)))
            numbers = [c]
            cells[c] = by_key[keys[0]]
            for k in keys[1:]:
                numbers.append(len(cells))
                for u in by_key[k]:
                    cell_of[u] = len(cells)
                cells.append(by_key[k])
            if c in queued:
                del numbers[0]
            else:
                sizes = [len(cells[d]) for d in numbers]
                del numbers[sizes.index(max(sizes))]
            queue.extend(numbers)
            queued.update(numbers)
    return trace


Partition = tuple[list[list[int]], list[int]]


def _individualize(nbrs, partition: Partition, v: int) -> tuple[Partition, list]:
    """A copy of the equitable ``partition`` with ``v`` moved into a new
    cell and refined with that cell as the only splitter, and its trace."""
    cells, cell_of = list(partition[0]), list(partition[1])
    cells[cell_of[v]] = [u for u in cells[cell_of[v]] if u != v]
    cell_of[v] = len(cells)
    cells.append([v])
    trace = _refine(nbrs, cells, cell_of, [cell_of[v]])
    return (cells, cell_of), trace


def _target_cell(cells: list[list[int]]) -> list[int]:
    """The members of the first smallest non-singleton cell."""
    return cells[min((len(cell), c) for c, cell in enumerate(cells) if len(cell) > 1)[1]]


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


def _is_automorphism(g: Graph, bits: list[int], perm: Sequence[int]) -> bool:
    return len(perm) == g.n and sorted(perm) == list(range(g.n)) and _maps_edges(g, bits, perm)


def _vertex_map(perm: Iterable[int]) -> Permutation:
    """``perm`` as a tuple of ints, else :class:`ParameterError`: a float or
    bool entry equal to a vertex would pass for it."""
    perm = tuple(perm)
    for x in perm:
        if type(x) is not int:
            check_int(x, "vertex map entry", 0)
    return perm


def is_automorphism(g: Graph, perm: Sequence[int], fixed: Sequence[Iterable[int]] = ()) -> bool:
    """Whether the vertex map ``perm`` is a permutation of g's vertices that
    maps edges to edges and every edge set in ``fixed`` onto itself. An
    entry that is no int raises :class:`ParameterError`."""
    return _is_automorphism(g, _edge_bits(g, fixed), _vertex_map(perm))


def _generators(nbrs: list, keeps: Callable[[Permutation], bool]) -> list[Permutation]:
    """Generators of the group of the graph with weighted adjacency
    ``nbrs``, from its individualization-refinement tree started at the
    unit partition, where ``keeps(perm)`` tells whether a leaf map is an
    automorphism. Levels count individualized vertices. From the deepest
    level of the first path up, each vertex of the level's cell that the
    generators found so far do not map the first vertex to gets a depth
    first search of its subtree, in cell order, for a leaf that keeps the
    first path's traces and whose map from the first leaf ``keeps``
    accepts; each success is a generator. Each splitter sum must spell
    neighbour counts per edge-bits class in digits below the weights' base
    n + 1, as g's weights do, and so do the twin quotient's: their class
    sizes count g's neighbours, at most n - 1."""
    n = len(nbrs)
    partition = ([list(range(n))], [0] * n)
    # No other tree to compare this trace with.
    _refine(nbrs, *partition, [0])
    path = []  # (partition, target cell, trace one level down) at each level
    while len(partition[0]) < n:
        cell = _target_cell(partition[0])
        child, trace = _individualize(nbrs, partition, cell[0])
        path.append((partition, cell, trace))
        partition = child
    first_leaf = partition[1]
    parent = list(range(n))  # vertex orbits of the generators found
    found: list[Permutation] = []
    for level in reversed(range(len(path))):
        start, (first, *others), _ = path[level]
        for w in others:
            if _root(parent, w) == _root(parent, first):
                continue
            # (partition, level, the vertices of its target cell left to try)
            stack = [(start, level, iter((w,)))]
            while stack:
                partition, depth, left = stack[-1]
                v = next(left, None)
                if v is None:
                    stack.pop()
                    continue
                partition, trace = _individualize(nbrs, partition, v)
                if trace != path[depth][2]:
                    continue
                if depth + 1 < len(path):
                    stack.append((partition, depth + 1, iter(_target_cell(partition[0]))))
                    continue
                perm = tuple(partition[0][c][0] for c in first_leaf)
                if keeps(perm):
                    found.append(perm)
                    for u, image in enumerate(perm):
                        _merge(parent, u, image)
                    break
    return found


def _twin_generators(g: Graph, bits: list[int], nbrs: list) -> list[Permutation]:
    """Generators of the group of g under ``bits``, whose weighted adjacency
    ``nbrs`` has repeats, the twins: the quotient search's generators lifted
    class member to member, then each class's adjacent transpositions."""
    by_key: dict[tuple, list[int]] = {}
    for v, key in enumerate(nbrs):
        by_key.setdefault(key, []).append(v)
    classes = list(by_key.values())  # each in vertex order, by first member
    first = [members[0] for members in classes]
    class_of = [0] * g.n
    for c, members in enumerate(classes):
        for v in members:
            class_of[v] = c
    # A class's first member sees every member of each class next to it,
    # over edges of one weight; the quotient keeps one of them per class,
    # times the size of class c: each member of that class sees all of c.
    quotient = [tuple((class_of[w], weight * len(classes[c]))
                      for w, weight in nbrs[v] if first[class_of[w]] == w)
                for c, v in enumerate(first)]

    def lift(quotient_perm: Permutation) -> Permutation:
        perm = [-1] * g.n
        for c, d in enumerate(quotient_perm):
            for v, w in zip(classes[c], classes[d]):
                perm[v] = w
        return tuple(perm)

    found = [lift(perm) for perm in _generators(
        quotient, lambda perm: _is_automorphism(g, bits, lift(perm)))]
    for members in classes:
        for v, w in zip(members, members[1:]):
            perm = list(range(g.n))
            perm[v], perm[w] = w, v
            if _is_automorphism(g, bits, perm):
                found.append(tuple(perm))
    return found


def automorphisms(g: Graph, fixed: Sequence[Iterable[int]] = ()) -> list[Permutation]:
    """Generators of the automorphisms of g that fix each edge set in
    ``fixed`` setwise, as vertex maps; empty when that group is trivial.
    Every generator is checked by the same test as :func:`is_automorphism`.
    Two vertices with equal weighted adjacency, sorted by neighbour, are
    twins, so one set of it tells whether the twin quotient is needed."""
    bits = _edge_bits(g, fixed)
    nbrs = _weighted_adjacency(g, bits)
    if len(set(nbrs)) == g.n:
        return _generators(nbrs, partial(_maps_edges, g, bits))
    return _twin_generators(g, bits, nbrs)


def refines_to_discrete(g: Graph) -> bool:
    """Whether refining g's unit partition, with no fixed sets, ends with
    every vertex in a cell of its own. The partition is an invariant of g,
    so then the identity is g's only automorphism, and :func:`automorphisms`
    returns no generator for any fixed sets."""
    if len({len(nbrs) for nbrs in g.adj}) <= 1:
        # A regular graph's unit partition is already equitable.
        return g.n <= 1
    cells, cell_of = [list(range(g.n))], [0] * g.n
    _refine(_weighted_adjacency(g, [0] * g.m), cells, cell_of, [0])
    return len(cells) == g.n


def edge_orbits(g: Graph, generators: Iterable[Sequence[int]]) -> tuple[frozenset[int], ...]:
    """``orbits[e]``: the edges that the group generated by ``generators``
    (vertex maps, assumed to be automorphisms) maps edge e to, found by
    merging each edge with its image under each generator. A generator that
    is not a permutation of the n vertices, has an entry that is no int, or
    maps an edge to a non-edge, raises ``ParameterError``."""
    edge_to = g.edge_to
    parent = list(range(g.m))  # edge orbits of the generators read so far
    for perm in map(_vertex_map, generators):
        if len(perm) != g.n:
            raise ParameterError(f"vertex map {perm} has {len(perm)} entries, not {g.n}")
        if any(x < 0 or x >= g.n for x in perm):
            raise ParameterError(f"vertex map {perm} leaves the range 0..{g.n - 1}")
        if len(set(perm)) != g.n:
            raise ParameterError(f"vertex map {perm} is not a permutation")
        for eid, (u, v) in enumerate(g.edges):
            image = edge_to[perm[u]].get(perm[v])
            if image is None:
                g.edge_id(perm[u], perm[v])  # raises ParameterError: not an edge
            if parent[eid] != parent[image]:  # one parent: already one orbit
                _merge(parent, eid, image)
    roots = [_root(parent, eid) for eid in range(g.m)]
    orbits: dict[int, list[int]] = {}
    for eid, root in enumerate(roots):
        orbits.setdefault(root, []).append(eid)
    members = {root: frozenset(orbit) for root, orbit in orbits.items()}
    return tuple(members[root] for root in roots)
