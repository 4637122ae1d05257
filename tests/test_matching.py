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
    assert m.saturated == frozenset(range(8))
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


def test_matching_validity_on_random_graphs():
    for g in random_corpus(80, seed=302):
        m = max_matching(g)
        seen = set()
        for eid in m.edges:
            u, v = g.edges[eid]
            assert u not in seen and v not in seen
            seen.update((u, v))
        assert m.saturated == frozenset(seen)


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
