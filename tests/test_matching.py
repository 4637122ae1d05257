import inspect
import sys

import pytest

from preclusion import (
    EdgeSet,
    Graph,
    OracleLimitError,
    ParameterError,
    TagMismatchError,
    brute_force_matching_number,
    complete_bipartite,
    cycle,
    delete_edges,
    has_almost_perfect_matching,
    has_perfect_matching,
    hypercube,
    matching_from_edge_ids,
    matching_number,
    max_matching,
    near_perfect_matching_masks,
    path,
    petersen,
)
from preclusion.matching import matching_number_excluding
from conftest import all_maximum_matchings, brute_force_min_vertex_cover, random_corpus


def test_matching_type_invariants():
    q3 = hypercube(3)
    m = max_matching(q3)
    assert m.size == len(m.edges) == 4
    with pytest.raises(ParameterError):
        matching_from_edge_ids(q3, [0, 1])  # both touch vertex 0


def test_matching_from_edge_ids_reads_its_argument_through_edge_ids():
    # Its own table row would not do: C_4's edges 0 and 1 are adjacent.
    q3 = hypercube(3)
    for bad in (-1, q3.m, 99):
        with pytest.raises(ParameterError, match=f"edge index {bad} out of range"):
            matching_from_edge_ids(q3, [bad])
    with pytest.raises(TagMismatchError):
        matching_from_edge_ids(q3, EdgeSet(cycle(8), [0]))


def test_matching_number_examples():
    assert matching_number(hypercube(3)) == 4
    assert matching_number(path(3)) == 1
    assert matching_number(complete_bipartite(3, 3)) == 3
    assert matching_number(cycle(6)) == 3
    assert matching_number(Graph(2, [(0, 1)])) == 1


def test_petersen_against_oracle():
    p = petersen()
    assert brute_force_matching_number(p) == 5
    assert matching_number(p) == 5


def test_k33_minus_star_against_oracle():
    g = complete_bipartite(3, 3)
    starless = delete_edges(g, EdgeSet(g, g.incident(0)))
    assert brute_force_matching_number(starless) == 2
    assert matching_number(starless) == 2


def test_perfect_and_almost_perfect():
    assert has_perfect_matching(hypercube(3))
    assert not has_almost_perfect_matching(hypercube(3))  # even order
    assert has_almost_perfect_matching(path(3))
    assert not has_perfect_matching(path(3))
    # C4 minus two adjacent edges isolates a vertex
    c4 = cycle(4)
    broken = delete_edges(c4, EdgeSet(c4, [0, 1]))
    assert not has_perfect_matching(broken)


def test_brute_force_oracle_basics_and_limit():
    assert brute_force_matching_number(cycle(4)) == 2
    assert brute_force_matching_number(Graph(2, [(0, 1)])) == 1
    with pytest.raises(OracleLimitError):
        brute_force_matching_number(hypercube(4), limit=24)


def test_oracle_equivalence_on_random_graphs():
    for g in random_corpus(200, seed=301, max_edges=20):
        assert matching_number(g) == brute_force_matching_number(g)


def test_blossom_on_odd_structures():
    # odd cycles force blossom contraction
    for n in (3, 5, 7, 9, 11):
        assert matching_number(cycle(n)) == n // 2
    # two triangles joined by a bridge
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
    assert matching_number(g) == brute_force_matching_number(g) == 3


def test_a_long_path_needs_no_recursion_for_its_masks():
    # 1500 matched pairs, far past the recursion limit set here.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        masks = near_perfect_matching_masks(path(3000))
    finally:
        sys.setrecursionlimit(limit)
    assert masks == [sum(1 << eid for eid in range(0, 2999, 2))]


def test_matching_validity_on_random_graphs():
    for g in random_corpus(80, seed=302):
        m = max_matching(g)
        seen = set()
        for eid in m.edges:
            u, v = g.edges[eid]
            assert u not in seen and v not in seen
            seen.update((u, v))


def test_monotone_under_deletion():
    for g in random_corpus(50, seed=303):
        if g.m == 0:
            continue
        nu = matching_number(g)
        f = EdgeSet(g, [g.m - 1])
        assert matching_number(delete_edges(g, f)) <= nu
        assert matching_number_excluding(g, f.members) == matching_number(delete_edges(g, f))


def test_koenig_duality_on_bipartite():
    checked = 0
    for g in random_corpus(120, seed=304, n_choices=(4, 6, 8, 10, 12), max_edges=18):
        from preclusion import find_bipartition, with_bipartition
        if find_bipartition(g) is None:
            continue
        labelled = with_bipartition(g)
        assert matching_number(labelled) == brute_force_min_vertex_cover(g)
        checked += 1
    assert checked >= 30


def test_deterministic_matching_is_lex_smallest():
    for g in random_corpus(40, seed=305, n_choices=(4, 5, 6, 7), max_edges=12):
        expected = min(
            (tuple(sorted(ids)) for ids in all_maximum_matchings(g)), default=()
        )
        got = tuple(sorted(max_matching(g, deterministic=True).edges.members))
        assert got == expected


def test_near_perfect_mask_counts():
    # frozen counts from independent enumeration: 9 and 272 perfect
    # matchings in the 3- and 4-cube
    assert len(near_perfect_matching_masks(hypercube(3))) == 9
    assert len(near_perfect_matching_masks(hypercube(4))) == 272
    assert len(near_perfect_matching_masks(path(3))) == 2  # two almost perfect
    assert near_perfect_matching_masks(Graph(3, [])) == []


def test_near_perfect_masks_are_matchings():
    for g in random_corpus(40, seed=306, max_edges=14):
        target = g.n // 2
        for mask in near_perfect_matching_masks(g):
            ids = [e for e in range(g.m) if (mask >> e) & 1]
            m = matching_from_edge_ids(g, ids)  # raises if adjacent
            assert m.size == target


def _reference_augment_from(g, dead, mate, root, blossoms):
    """Edmonds' search as it stood before the even-vertex test read ``used``
    and ``base`` became lazy, kept verbatim apart from counting blossoms."""
    n = g.n
    adj = g.adj
    parent = [-1] * n
    base = list(range(n))
    used = [False] * n
    used[root] = True
    queue = [root]
    for v in queue:
        mate_v = mate[v]
        for to, eid in adj[v]:
            if base[v] == base[to] or mate_v == to or eid in dead:
                continue
            if to == root or (mate[to] != -1 and parent[mate[to]] != -1):
                blossoms[0] += 1
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


def _reference_maximize(g, dead, mate, misses_allowed, blossoms):
    """The greedy pass and the per-vertex searches over all of range(n)."""
    for u in range(g.n):
        if mate[u] == -1:
            for w, eid in g.adj[u]:
                if mate[w] == -1 and eid not in dead:
                    mate[u] = w
                    mate[w] = u
                    break
    misses = 0
    for v in range(g.n):
        if mate[v] == -1 and not _reference_augment_from(g, dead, mate, v, blossoms):
            misses += 1
            if misses > misses_allowed:
                return False
    return True


def test_augment_from_and_maximize_match_a_reference_search():
    # The even-vertex test reads `used` and `base` is allocated at the first
    # blossom; maximize finds the free vertices with list.count/list.index.
    # Each must leave the same mate array and return the same answer as the
    # plain search, from every free root of random partial matchings of
    # random subgraphs.
    import random
    from preclusion import random_bipartite_with_pm, random_graph
    from preclusion.matching import augment_from, maximize
    rng = random.Random(1616)
    blossoms = [0]
    cases = {True: 0, False: 0}
    for index in range(720):
        if index % 2:
            t = rng.randint(1, 8)
            g = random_bipartite_with_pm(t, rng.choice((0.2, 0.4, 0.7)), seed=rng.randrange(2**32))
        else:
            n = rng.randint(2, 16)
            g = random_graph(n, rng.randint(0, min(40, n * (n - 1) // 2)),
                             seed=rng.randrange(2**32))
        for _ in range(3):
            dead = frozenset(rng.sample(range(g.m), rng.randint(0, g.m // 3)))
            live = [eid for eid in range(g.m) if eid not in dead]
            rng.shuffle(live)
            mate = [-1] * g.n
            for eid in live[:rng.randint(0, len(live))]:
                u, v = g.edges[eid]
                if mate[u] == mate[v] == -1:
                    mate[u], mate[v] = v, u
            for root in (v for v in range(g.n) if mate[v] == -1):
                got, want = mate.copy(), mate.copy()
                found = augment_from(g, dead, got, root)
                assert found == _reference_augment_from(g, dead, want, root, blossoms)
                assert got == want, (g.edges, sorted(dead), mate, root)
                cases[found] += 1
            misses_allowed = rng.choice((0, 1, g.n))
            got, want = mate.copy(), mate.copy()
            assert (maximize(g, dead, got, misses_allowed)
                    == _reference_maximize(g, dead, want, misses_allowed, blossoms))
            assert got == want, (g.edges, sorted(dead), mate)
    assert min(cases.values()) >= 2000 and blossoms[0] >= 1500, (cases, blossoms)
