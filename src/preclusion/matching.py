"""Maximum-matching computation and matching-based predicates.

One matching engine serves every graph, bipartite or not: an iterative
Edmonds blossom search from a single free vertex (:func:`augment_from`), in
the array-based O(V^3) style: simple enough to audit, fast enough for
desk-scale instances. A maximum matching is a greedy start plus one such
search per free vertex (:func:`maximize`); the solver re-matches
incrementally with the same call after each edge deletion. A
subset-enumeration oracle and an exhaustive near-perfect-matching
enumerator provide independent cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Iterable

from .errors import OracleLimitError, ParameterError
from .graphs import EdgeSet, Graph, check_int, edge_ids

__all__ = [
    "Matching",
    "matching_from_edge_ids",
    "max_matching",
    "matching_number",
    "matching_number_excluding",
    "has_perfect_matching",
    "has_almost_perfect_matching",
    "brute_force_matching_number",
    "near_perfect_matching_masks",
]

MATCHING_ORACLE_EDGE_LIMIT = 24


@dataclass(frozen=True)
class Matching:
    """A set of pairwise nonadjacent edges and its size."""

    edges: EdgeSet
    size: int


def matching_from_edge_ids(g: Graph, edges: Iterable[int]) -> Matching:
    """Build a :class:`Matching` from the edge-set argument ``edges``, read by
    :func:`edge_ids`, checking that no two edges share a vertex."""
    ids = edge_ids(g, edges)
    saturated: set[int] = set()
    for eid in sorted(ids):
        u, v = g.edges[eid]
        if u in saturated or v in saturated:
            raise ParameterError(f"edges are not pairwise nonadjacent at vertex pair ({u}, {v})")
        saturated.add(u)
        saturated.add(v)
    return Matching(EdgeSet(g, ids), len(ids))


# ---------------------------------------------------------------------------
# Edmonds blossom search (all graphs)
# ---------------------------------------------------------------------------

def augment_from(g: Graph, dead: Container[int], mate: list[int], root: int) -> bool:
    """Grow the matching ``mate`` of ``g`` minus the ``dead`` edges by one
    augmenting path from the free vertex ``root``, in place.

    Edmonds' search (Edmonds 1965, "Paths, trees, and flowers") in the
    array form: grow an alternating BFS tree from ``root``; when two even
    vertices meet, contract the blossom by redirecting ``base`` pointers to
    their lowest common ancestor. Returns False, with ``mate`` untouched,
    when no augmenting path starts at ``root``. Iterative throughout, so
    path length is bounded by memory, not by the recursion limit.

    The even vertices are exactly the queued ones (``used``): the root, the
    mates of odd vertices, and every vertex of a contracted blossom. Until
    the first blossom every vertex is its own base, so ``base`` is only
    allocated there; a bipartite graph never needs it.
    """
    n = g.n
    adj = g.adj
    parent = [-1] * n
    base = None
    used = [False] * n
    used[root] = True
    queue = [root]
    for v in queue:
        mate_v = mate[v]
        for to, eid in adj[v]:
            if mate_v == to or eid in dead:
                continue
            if used[to]:
                # `to` is an even vertex of the tree: blossom found, unless
                # v already lies in to's blossom. Its base is the lowest
                # common ancestor of v and to.
                if base is None:
                    base = list(range(n))
                elif base[v] == base[to]:
                    continue
                seen = [False] * n
                x = v
                while True:
                    x = base[x]
                    seen[x] = True
                    if mate[x] == -1:
                        break
                    x = parent[mate[x]]
                x = to
                while not seen[base[x]]:
                    x = parent[mate[base[x]]]
                top = base[x]
                in_blossom = [False] * n
                for x, child in ((v, to), (to, v)):
                    while base[x] != top:
                        in_blossom[base[x]] = True
                        in_blossom[base[mate[x]]] = True
                        parent[x] = child
                        child = mate[x]
                        x = parent[child]
                for i in range(n):
                    if in_blossom[base[i]]:
                        base[i] = top
                        if not used[i]:
                            used[i] = True
                            queue.append(i)
            elif parent[to] == -1:
                parent[to] = v
                if mate[to] == -1:
                    # Free vertex reached: flip the alternating path.
                    while to != -1:
                        pv = parent[to]
                        after = mate[pv]
                        mate[to] = pv
                        mate[pv] = to
                        to = after
                    return True
                used[mate[to]] = True
                queue.append(mate[to])
    return False


# ---------------------------------------------------------------------------
# Public surface
# ---------------------------------------------------------------------------

def maximize(g: Graph, dead: Container[int], mate: list[int], misses_allowed: int) -> bool:
    """Grow the matching ``mate`` of ``g`` minus the ``dead`` edges, in
    place, to a maximum one: a greedy pass over the free vertices (lowest
    neighbor first), then one :func:`augment_from` per vertex still free. A
    vertex with no augmenting path never gains one later, so a single pass
    suffices, and every such vertex stays free. Stop and return False once
    more than ``misses_allowed`` vertices are found without an augmenting
    path; otherwise return True."""
    adj = g.adj
    # Both passes visit only the free vertices, in increasing order, found
    # in C. Each new partner is a later vertex: an earlier free one would
    # have taken it greedily, or found the augmenting path from its own end.
    free = mate.count(-1)
    u = 0
    while free:
        u = mate.index(-1, u)
        free -= 1
        for w, eid in adj[u]:
            if mate[w] == -1 and eid not in dead:
                mate[u] = w
                mate[w] = u
                free -= 1
                break
        u += 1
    misses = 0
    free = mate.count(-1)
    v = 0
    while free:
        v = mate.index(-1, v)
        if augment_from(g, dead, mate, v):
            free -= 2
        else:
            free -= 1
            misses += 1
            if misses > misses_allowed:
                return False
        v += 1
    return True


def maximum_matching_mates(g: Graph, dead: frozenset[int] = frozenset()) -> list[int]:
    """Mate array of a maximum matching of ``g`` minus the ``dead`` edges."""
    mate = [-1] * g.n
    maximize(g, dead, mate, misses_allowed=g.n)
    return mate


def _mates_to_edge_ids(g: Graph, mate: list[int]) -> list[int]:
    return [g.edge_to[v][mate[v]] for v in range(g.n) if mate[v] > v]


def matching_number_excluding(g: Graph, dead: Iterable[int]) -> int:
    """nu(g - dead): matching number after removing the given edge indices."""
    mate = maximum_matching_mates(g, edge_ids(g, dead))
    return sum(1 for v in range(g.n) if mate[v] != -1) // 2


def matching_number(g: Graph) -> int:
    return matching_number_excluding(g, frozenset())


def max_matching(g: Graph, deterministic: bool = False) -> Matching:
    """A maximum matching of ``g``.

    With ``deterministic=True``, ties among maximum matchings are broken by
    returning the lexicographically smallest edge-index set, found by greedy
    forcing (one matching computation per candidate edge).
    """
    mate = maximum_matching_mates(g)
    ids = _mates_to_edge_ids(g, mate)
    if not deterministic:
        return matching_from_edge_ids(g, ids)
    target = len(ids)
    chosen: list[int] = []
    blocked: set[int] = set()
    for eid in range(g.m):
        if len(chosen) == target:
            break
        u, v = g.edges[eid]
        if u in blocked or v in blocked:
            continue
        trial = blocked | {u, v}
        dead = frozenset(
            e for e in range(g.m) if g.edges[e][0] in trial or g.edges[e][1] in trial
        )
        if matching_number_excluding(g, dead) == target - len(chosen) - 1:
            chosen.append(eid)
            blocked = trial
    return matching_from_edge_ids(g, chosen)


def has_perfect_matching(g: Graph) -> bool:
    return g.n % 2 == 0 and matching_number(g) == g.n // 2


def has_almost_perfect_matching(g: Graph) -> bool:
    # Even-order graphs never have one: parity forces it, no error raised.
    return g.n % 2 == 1 and matching_number(g) == (g.n - 1) // 2


def brute_force_matching_number(g: Graph, limit: int = MATCHING_ORACLE_EDGE_LIMIT) -> int:
    """Matching number by exhaustive search over edge subsets that form
    matchings. Independent oracle for :func:`max_matching`."""
    check_int(limit, "limit", 0)
    if g.m > limit:
        raise OracleLimitError(f"{g.m} edges exceeds the oracle limit of {limit}")
    edges = g.edges
    m = g.m
    best = 0

    def rec(i: int, used: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        if i == m or size + (m - i) <= best:
            return
        u, v = edges[i]
        if not (used >> u) & 1 and not (used >> v) & 1:
            rec(i + 1, used | (1 << u) | (1 << v), size + 1)
        rec(i + 1, used, size)

    rec(0, 0, 0)
    return best


def near_perfect_matching_masks(g: Graph) -> list[int]:
    """Edge-index bitmasks of every matching of size floor(n/2): the perfect
    matchings for even order, the almost perfect matchings for odd order.

    An edge set F precludes all of them exactly when every returned mask
    intersects F, which is what the subset-enumeration oracle checks.
    """
    adj = g.adj
    full = (1 << g.n) - 1
    masks: list[int] = []
    # Depth first over (used vertices, edge mask, edges left, skips left):
    # the lowest free vertex is matched to each free neighbour in adjacency
    # order, then skipped, so no recursion limit bounds the matching size.
    stack = [(0, 0, g.n // 2, g.n % 2)]
    while stack:
        used, edge_mask, left, skips = stack.pop()
        if not left:
            masks.append(edge_mask)
            continue
        free = ~used & full
        v = (free & -free).bit_length() - 1
        used |= 1 << v
        if skips:
            stack.append((used, edge_mask, left, skips - 1))
        for w, eid in reversed(adj[v]):
            if not (used >> w) & 1:
                stack.append((used | (1 << w), edge_mask | (1 << eid), left - 1, skips))
    return masks
