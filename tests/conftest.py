"""Shared helpers: seeded random corpora and small independent oracles."""

from __future__ import annotations

import random
from itertools import combinations

from preclusion import Graph, random_graph


def random_corpus(count: int, seed: int, n_choices=(4, 5, 6, 8, 10, 12),
                  max_edges: int | None = None):
    """Seeded stream of random graphs for fuzz-style tests."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.choice(n_choices)
        cap = n * (n - 1) // 2
        if max_edges is not None:
            cap = min(cap, max_edges)
        m = rng.randint(0, cap)
        out.append(random_graph(n, m, seed=rng.randrange(2**32)))
    return out


def relabel(g: Graph, rng: random.Random) -> Graph:
    """``g`` under a random vertex permutation, edges re-indexed in sorted order."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges))


def random_even_corpus(count: int, seed: int, n_choices=(4, 6, 8), max_edges: int = 16):
    return random_corpus(count, seed, n_choices=n_choices, max_edges=max_edges)


def brute_force_min_vertex_cover(g: Graph) -> int:
    """Smallest vertex set touching every edge, by subset enumeration."""
    if g.m == 0:
        return 0
    for size in range(g.n + 1):
        for combo in combinations(range(g.n), size):
            cover = set(combo)
            if all(u in cover or v in cover for u, v in g.edges):
                return size
    raise AssertionError("unreachable: V covers everything")


def all_maximum_matchings(g: Graph) -> list[frozenset[int]]:
    """Every maximum matching of a small graph, as edge-index sets."""
    best_size = 0
    found: list[frozenset[int]] = []

    def rec(i: int, used: set[int], chosen: list[int]) -> None:
        nonlocal best_size, found
        if i == g.m:
            if len(chosen) > best_size:
                best_size = len(chosen)
                found = [frozenset(chosen)]
            elif len(chosen) == best_size:
                found.append(frozenset(chosen))
            return
        u, v = g.edges[i]
        if u not in used and v not in used:
            rec(i + 1, used | {u, v}, chosen + [i])
        rec(i + 1, used, chosen)

    rec(0, set(), [])
    return found
