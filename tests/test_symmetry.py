import ast
import inspect
import random
import sys
from itertools import combinations, permutations

import pytest

from preclusion import (
    AK,
    MP,
    ORACLE_EDGE_LIMIT,
    EdgeSet,
    Graph,
    ParameterError,
    brute_force_solve,
    complete,
    complete_bipartite,
    cycle,
    hypercube,
    is_s_restricted_set,
    mp_s,
    petersen,
    random_bipartite_with_pm,
    random_graph,
    solve,
    with_bipartition,
)
from preclusion import symmetry
from preclusion.reduction import build_reduction
from preclusion.symmetry import automorphisms, edge_orbits, is_automorphism, refines_to_discrete
from conftest import random_corpus, relabel


def frucht():
    """The Frucht graph (LCF [-5,-2,-4,2,5,-2,2,5,-2,-5,4,2]): 3-regular, so
    refinement splits nothing, yet its only automorphism is the identity."""
    edges = [(i, (i + 1) % 12) for i in range(12)]
    edges += [(0, 7), (1, 11), (2, 10), (3, 5), (4, 9), (6, 8)]
    return Graph(12, edges)


def group_elements(n, generators):
    """The permutation group the generators span, by closure."""
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        p = frontier.pop()
        for q in generators:
            r = tuple(q[p[v]] for v in range(n))
            if r not in seen:
                seen.add(r)
                frontier.append(r)
    return seen


def group_order(n, generators):
    return len(group_elements(n, generators))


GROUPS = [(hypercube(3), 48), (petersen(), 120), (complete_bipartite(4, 4), 1152),
          (complete(6), 720), (cycle(8), 16), (frucht(), 1)]


def test_automorphisms_span_the_whole_group():
    rng = random.Random(501)
    for g, order in GROUPS:
        for h in (g, relabel(g, rng), relabel(g, rng)):
            generators = automorphisms(h)
            assert all(is_automorphism(h, p) for p in generators)
            assert group_order(h.n, generators) == order, h.edges
    assert automorphisms(frucht()) == []


def test_a_deep_first_path_needs_no_recursion():
    # 60 disjoint copies of K4: the first path individualizes about 180
    # vertices, one level each, far past the recursion limit set here.
    g = Graph(240, [(4 * c + i, 4 * c + j) for c in range(60) for i, j in combinations(range(4), 2)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        generators = automorphisms(g)
    finally:
        sys.setrecursionlimit(limit)
    assert len(generators) == 239
    assert all(is_automorphism(g, p) for p in generators)


def test_no_function_in_symmetry_calls_itself():
    for node in ast.walk(ast.parse(inspect.getsource(symmetry))):
        if isinstance(node, ast.FunctionDef):
            called = {call.func.id if isinstance(call.func, ast.Name) else call.func.attr
                      for call in ast.walk(node) if isinstance(call, ast.Call)
                      and isinstance(call.func, (ast.Name, ast.Attribute))}
            assert node.name not in called, node.name


def test_trivial_and_disconnected_groups():
    assert automorphisms(Graph(0, [])) == []
    assert automorphisms(Graph(1, [])) == []
    assert group_order(3, automorphisms(Graph(3, []))) == 6
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert group_order(6, automorphisms(two_triangles)) == 72


def _random_fixed_sets(g, rng):
    fault = frozenset(rng.sample(range(g.m), rng.randint(0, min(2, g.m))))
    rest = sorted(set(range(g.m)) - fault)
    banned = frozenset(rng.sample(rest, rng.randint(0, min(3, len(rest)))))
    return fault, banned


def test_refinement_commutes_with_relabelling():
    # Cells are numbered by the splits alone, so relabelling g (and its
    # fixed sets) relabels the partitions and leaves the traces unchanged.
    rng = random.Random(506)
    for g, _ in GROUPS:
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
            fixed = _random_fixed_sets(g, rng)
            moved = [{h.edge_id(perm[u], perm[v]) for u, v in (g.edges[e] for e in f)}
                     for f in fixed]
            nbrs_g = symmetry._weighted_adjacency(g, symmetry._edge_bits(g, fixed))
            nbrs_h = symmetry._weighted_adjacency(h, symmetry._edge_bits(h, moved))
            part_g = ([list(range(g.n))], [0] * g.n)
            part_h = ([list(range(h.n))], [0] * h.n)
            traces = [symmetry._refine(nbrs_g, *part_g, [0]), symmetry._refine(nbrs_h, *part_h, [0])]
            v = rng.randrange(g.n)
            if len(part_g[0]) < g.n:
                part_g, trace_g = symmetry._individualize(nbrs_g, part_g, v)
                part_h, trace_h = symmetry._individualize(nbrs_h, part_h, perm[v])
                traces += [trace_g, trace_h]
            assert traces[0::2] == traces[1::2]
            assert [len(cell) for cell in part_g[0]] == [len(cell) for cell in part_h[0]]
            assert all(part_h[1][perm[u]] == part_g[1][u] for u in range(g.n))


def test_check_rejects_non_automorphisms_and_moved_sets():
    q3 = hypercube(3)
    assert is_automorphism(q3, tuple(range(8)))
    assert not is_automorphism(q3, (1, 0, 2, 3, 4, 5, 6, 7))  # swaps 0 and 1 only
    assert not is_automorphism(q3, (0, 0, 2, 3, 4, 5, 6, 7))  # not a permutation
    assert not is_automorphism(q3, (0, 1, 2))
    flip = tuple(v ^ 1 for v in range(8))  # an automorphism moving bit 0
    assert is_automorphism(q3, flip)
    along = q3.edge_id(0, 1)   # flip maps it onto itself
    across = q3.edge_id(0, 2)  # flip maps it to edge (1, 3)
    assert is_automorphism(q3, flip, (frozenset({along}),))
    assert not is_automorphism(q3, flip, (frozenset({across}),))
    assert not is_automorphism(q3, flip, (frozenset(), frozenset({across})))
    assert is_automorphism(q3, flip, (frozenset({across, q3.edge_id(1, 3)}), frozenset({along})))
    # the same set as F in one place and as B in the other is no match
    assert not is_automorphism(q3, flip, (frozenset({across}), frozenset({q3.edge_id(1, 3)})))


def test_generators_fix_the_given_sets():
    rng = random.Random(502)
    for g, _ in GROUPS[:5]:
        for _ in range(10):
            fault, banned = _random_fixed_sets(g, rng)
            generators = automorphisms(g, (fault, banned))
            for perm in generators:
                assert is_automorphism(g, perm, (fault, banned))
                images = {g.edge_id(perm[u], perm[v]) for u, v in (g.edges[e] for e in fault)}
                assert images == fault
            for eid, orbit in enumerate(edge_orbits(g, generators)):
                assert eid in orbit
                assert (eid in fault) == (orbit <= fault)
                assert (eid in banned) == (orbit <= banned)


def test_groups_fixing_edge_sets_are_complete():
    # The generators span the whole stabiliser of F and B in Aut(g), found
    # by filtering Aut(g) element by element; a refinement that told apart
    # vertices that some such automorphism swaps would lose generators.
    rng = random.Random(507)
    for g, _ in GROUPS[:5]:
        for h in (g, relabel(g, rng), relabel(g, rng)):
            whole = group_elements(h.n, automorphisms(h))
            for _ in range(8):
                fault, banned = _random_fixed_sets(h, rng)
                stabiliser = [p for p in whole if is_automorphism(h, p, (fault, banned))]
                generators = automorphisms(h, (fault, banned))
                assert group_order(h.n, generators) == len(stabiliser), (h.edges, fault, banned)
                assert edge_orbits(h, generators) == edge_orbits(h, stabiliser)


def _closure_orbits(g, generators):
    """The edge orbits as the closure of each edge under the generators'
    edge maps, the reference for :func:`edge_orbits`."""
    maps = [[g.edge_id(perm[u], perm[v]) for u, v in g.edges] for perm in generators]
    orbits = [None] * g.m
    for eid in range(g.m):
        if orbits[eid] is not None:
            continue
        members = [eid]
        seen = {eid}
        for x in members:
            for emap in maps:
                y = emap[x]
                if y not in seen:
                    seen.add(y)
                    members.append(y)
        orbit = frozenset(members)
        for x in members:
            orbits[x] = orbit
    return tuple(orbits)


def test_edge_orbits_match_a_closure_reference():
    rng = random.Random(508)
    for g, _ in GROUPS:
        for h in (g, relabel(g, rng), relabel(g, rng)):
            generators = automorphisms(h)
            subsets = [generators, []] + [rng.sample(generators, rng.randint(1, len(generators)))
                                          for _ in range(4) if generators]
            for gens in subsets:
                assert edge_orbits(h, gens) == _closure_orbits(h, gens), (h.edges, gens)


def test_edge_orbits_reject_a_map_that_is_no_automorphism():
    with pytest.raises(ParameterError, match=r"\(1, 2\) is not an edge"):
        edge_orbits(hypercube(3), [(1, 0, 2, 3, 4, 5, 6, 7)])
    # read as list indices, -1 - v would be the automorphism v -> 7 - v
    with pytest.raises(ParameterError, match="leaves the range"):
        edge_orbits(hypercube(3), [tuple(-1 - v for v in range(8))])
    # a short map would index past its end; a long one is no vertex map either
    for perm in ((0, 1), (0, 1, 2, 3, 0)):
        with pytest.raises(ParameterError, match="entries, not 4"):
            edge_orbits(cycle(4), [perm])
    # it folds C_4 onto one edge, mapping every edge onto an edge
    with pytest.raises(ParameterError, match="is not a permutation"):
        edge_orbits(cycle(4), [(0, 1, 0, 1)])


def test_a_discrete_refinement_means_a_trivial_group():
    # The refined partition is an invariant of g, so a discrete one leaves
    # only the identity; Frucht's rigid cubic graph shows the converse fails.
    rng = random.Random(509)
    graphs = [g for g, _ in GROUPS]
    graphs += [random_graph(n, rng.randint(n, 2 * n), seed=rng.randrange(2**32))
               for n in (5, 6, 7, 8, 10, 12) for _ in range(30)]
    discrete = 0
    for g in graphs:
        if refines_to_discrete(g):
            assert automorphisms(g) == [], g.edges
            discrete += 1
    assert not refines_to_discrete(frucht())
    assert refines_to_discrete(Graph(1, [])) and not refines_to_discrete(Graph(2, []))
    assert 50 <= discrete < len(graphs) - 50


def test_rigid_graphs_skip_the_automorphism_search(monkeypatch):
    # On a graph that refines to discrete every Gamma is trivial, so the
    # search answers its orbit lookups without automorphisms or edge_orbits,
    # and returns what the full lookups return, stats included.
    rng = random.Random(510)
    graphs = []
    while len(graphs) < 12:
        g = random_graph(rng.choice((10, 12)), rng.randint(22, 28), seed=rng.randrange(2**32))
        if refines_to_discrete(g):
            graphs.append(g)
    runs = [(g, kind, deterministic) for g in graphs for kind in (MP, mp_s(1), mp_s(2), AK)
            for deterministic in (False, True)]
    calls = []
    find = symmetry.automorphisms

    def counted(g, fixed=()):
        calls.append(g)
        return find(g, fixed)

    monkeypatch.setattr(symmetry, "automorphisms", counted)
    monkeypatch.setattr(symmetry, "refines_to_discrete", lambda g: False)
    full = [solve(g, kind, deterministic=d) for g, kind, d in runs]
    assert len(calls) >= len(graphs) and all(c.stats["automorphisms"] == 0 for c in full)

    def forbidden(*args):
        raise AssertionError("an orbit lookup on a rigid graph searched for automorphisms")

    monkeypatch.setattr(symmetry, "automorphisms", forbidden)
    monkeypatch.setattr(symmetry, "edge_orbits", forbidden)
    monkeypatch.setattr(symmetry, "refines_to_discrete", refines_to_discrete)
    assert [solve(g, kind, deterministic=d) for g, kind, d in runs] == full
    # Frucht's rigid cubic graph does not refine to discrete: its orbit
    # lookup still searches, and finds no generator.
    from preclusion.solver import _Search
    monkeypatch.setattr(symmetry, "automorphisms", counted)
    monkeypatch.setattr(symmetry, "edge_orbits", edge_orbits)
    calls.clear()
    lookup = _Search(frucht(), mp_s(1))
    orbits = lookup._edge_orbits(frozenset({0}), frozenset({5}))
    assert len(calls) == 1 and lookup.stats["automorphisms"] == 0
    assert orbits == tuple(frozenset({eid}) for eid in range(frucht().m))


def test_leaf_check_alone_keeps_generators_sound(monkeypatch):
    # With an invariant that tells no two nodes of a level apart, every leaf
    # of a level is tried, and only the edge-by-edge check stands between a
    # leaf map and the generator list. Frucht's graph with every vertex
    # doubled into two twins has the rigid Frucht graph as its quotient, so
    # there the check of each lifted quotient map does that job.
    refine = symmetry._refine
    f = frucht()
    doubled = Graph(24, [(2 * u + i, 2 * v + j) for u, v in f.edges for i in (0, 1) for j in (0, 1)])

    def blind(nbrs, cells, cell_of, queue):
        refine(nbrs, cells, cell_of, queue)
        return len(cells)

    monkeypatch.setattr(symmetry, "_refine", blind)
    for g, order in GROUPS + [(doubled, 2**12)]:
        generators = automorphisms(g)
        assert all(is_automorphism(g, p) for p in generators)
        assert group_order(g.n, generators) == order
    assert automorphisms(frucht()) == []


def test_orbits_of_aut_g_in_place_of_gamma_give_a_wrong_answer(monkeypatch):
    # At a node with F = {e}, an automorphism of g that moves e maps a
    # refuted child to a branch that was never refuted. Q4 is edge-transitive
    # and mp_1(Q4) = 6, so every edge lies in some optimum; each search is
    # the root's child that deletes e.
    from preclusion.solver import _Search
    q4 = hypercube(4)
    kind = mp_s(1)

    def found_through_each_edge():
        out = []
        for e in range(q4.m):
            search = _Search(q4, kind)
            found = search._below(6, search._step(frozenset(), frozenset(), search.mates, 6, e, None))
            if found:
                assert e in found[0] and len(found[0]) == 6
                assert is_s_restricted_set(q4, EdgeSet(q4, found[0]), 1)
            out.append(bool(found))
        return out

    assert all(found_through_each_edge())
    exact = _Search._edge_orbits

    def aut_g_at_depth_one(self, fault, banned):
        if len(fault) == 1:
            fault, banned = frozenset(), frozenset()
        return exact(self, fault, banned)

    monkeypatch.setattr(_Search, "_edge_orbits", aut_g_at_depth_one)
    assert not all(found_through_each_edge())


def _gadgets():
    rng = random.Random(503)
    out = []
    while len(out) < 6:
        t = rng.randint(1, 3)
        source = random_bipartite_with_pm(t, rng.choice((0.3, 0.6, 1.0)), seed=rng.randrange(2**32))
        gadget = build_reduction(source).gadget
        if gadget.m <= ORACLE_EDGE_LIMIT:
            out.append(with_bipartition(gadget))
    return out


def _symmetric_corpus():
    """The small symmetric graphs, the gadgets, two relabelled copies of
    each, and Q4."""
    rng = random.Random(504)
    base = [g for g, _ in GROUPS[:5]] + _gadgets()
    return base + [relabel(g, rng) for g in base for _ in range(2)] + [hypercube(4)]


def test_orbit_pruning_changes_only_stats(monkeypatch):
    # Orbit bans cut only branches with no qualifying set, so DFS finds the
    # same first set with or without them, lex-min or not; both agree with
    # the oracle where it reaches.
    runs = []
    for g in _symmetric_corpus():
        for kind in (MP, mp_s(1), mp_s(2), AK):
            if kind == AK and g.n % 2:
                continue
            oracle = brute_force_solve(g, kind) if g.m <= ORACLE_EDGE_LIMIT else None
            for deterministic in (False, True):
                runs.append((g, kind, deterministic, oracle,
                             solve(g, kind, deterministic=deterministic)))
    monkeypatch.setattr(symmetry, "automorphisms", lambda g, fixed=(): [])
    banning = 0
    for g, kind, deterministic, oracle, cert in runs:
        plain = solve(g, kind, deterministic=deterministic)
        assert (cert.value, cert.reason) == (plain.value, plain.reason), (g.edges, kind)
        if cert.feasible:
            assert cert.witness == plain.witness, (g.edges, kind)
        if oracle is not None:
            assert cert.value == oracle.value, (g.edges, kind)
            if cert.feasible and deterministic:
                assert cert.witness == oracle.witness, (g.edges, kind)
        assert cert.stats["nodes"] <= plain.stats["nodes"]
        assert plain.stats["orbit_bans"] == plain.stats["automorphisms"] == 0
        banning += cert.stats["orbit_bans"] > 0
    assert banning >= len(runs) // 6


def _has_twins(g):
    return len({frozenset(to) for to in g.edge_to}) < g.n


def _twin_graphs():
    """Every graph with twins in a seeded corpus with n <= 7, K_{3,3},
    K_{2,4}, the star K_{1,5}, the empty graph on 5 vertices, a path with
    two pendant twins at each end, and the double broom: an edge with two
    pendant twins at one end and three at the other, whose quotient, a path
    on four vertices, is symmetric when class sizes are ignored."""
    corpus = [g for g in random_corpus(120, 511, n_choices=(4, 5, 6, 7)) if _has_twins(g)]
    pendant_twins = Graph(6, [(0, 2), (1, 2), (2, 3), (3, 4), (3, 5)])
    double_broom = Graph(7, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (1, 6)])
    return corpus + [complete_bipartite(3, 3), complete_bipartite(2, 4),
                     complete_bipartite(1, 5), Graph(5, []), pendant_twins, double_broom]


def _plain_generators(g, fixed=()):
    """The search on g itself, twins and all."""
    bits = symmetry._edge_bits(g, fixed)
    keeps = lambda perm: symmetry._maps_edges(g, bits, perm)
    return symmetry._generators(symmetry._weighted_adjacency(g, bits), keeps)


def test_twin_quotient_spans_the_whole_group(monkeypatch):
    # Against brute force: the group the generators span is every
    # permutation that passes is_automorphism, on graphs with twins. The
    # class sizes in the quotient's edge weights keep the quotient search
    # from trying a map between classes of different sizes, whose lift is no
    # permutation.
    rng = random.Random(512)
    check = symmetry._is_automorphism
    tried = []

    def recorded(g, bits, perm):
        tried.append(tuple(perm))
        return check(g, bits, perm)

    monkeypatch.setattr(symmetry, "_is_automorphism", recorded)
    star = complete_bipartite(1, 3)
    # the fixed edge to leaf 2 splits the leaves' class into {1, 3} and {2}
    cases = [(star, (frozenset({star.edge_id(0, 2)}),))]
    for g in _twin_graphs():
        cases += [(g, ())] + [(g, _random_fixed_sets(g, rng)) for _ in range(3) if g.m]
    sizes = set()
    whole = {}
    for g, fixed in cases:
        if g not in whole:
            whole[g] = [p for p in permutations(range(g.n)) if is_automorphism(g, p)]
        group = {p for p in whole[g] if is_automorphism(g, p, fixed)}
        generators = automorphisms(g, fixed)
        assert all(is_automorphism(g, p, fixed) for p in generators), (g.edges, fixed)
        assert group_elements(g.n, generators) == group, (g.edges, fixed)
        sizes.add(len(group))
    assert len(cases) >= 100 and len(sizes) >= 10
    assert tried and not [perm for perm in tried if -1 in perm]


def test_twin_free_graphs_take_the_plain_search():
    rng = random.Random(513)
    for g in (hypercube(3), hypercube(4), hypercube(5), petersen(), frucht(), cycle(6)):
        assert not _has_twins(g)
        for fixed in [()] + [_random_fixed_sets(g, rng) for _ in range(4)]:
            assert automorphisms(g, fixed) == _plain_generators(g, fixed)
    # Q5 has no twins, so its counters, automorphisms included, are those
    # of the search before twins were handled.
    assert solve(hypercube(5), mp_s(1), budget=7).stats == {
        "nodes": 975, "budget_prunes": 1, "side_prunes": 0, "bound_prunes": 830,
        "orbit_bans": 536, "pendant_bans": 58, "automorphisms": 43,
        "deepening_rounds": 8, "lexmin_nodes": 0}


def test_twin_quotient_changes_only_the_generator_count(monkeypatch):
    # The twin transpositions and the lifted quotient generators span the
    # group the plain search spans, so the orbits, and with them every
    # answer and counter but the generator count, stay the same.
    rng = random.Random(514)
    graphs = [complete_bipartite(4, 4), complete_bipartite(3, 5)]
    graphs += [g for g in random_corpus(200, 515, n_choices=(6, 7, 8))
               if _has_twins(g) and g.min_degree() >= 2][:12]
    graphs += [g for g in _gadgets() if _has_twins(g)][:1]
    graphs += [relabel(g, rng) for g in graphs[:2]]
    runs = [(g, kind, deterministic) for g in graphs for kind in (MP, mp_s(1), mp_s(2), AK)
            if kind != AK or g.n % 2 == 0 for deterministic in (False, True)]
    assert sum(_has_twins(g) for g in graphs) == len(graphs) == 17
    lifts = []
    lift = symmetry._twin_generators

    def counted(g, bits, nbrs):
        lifts.append(g)
        return lift(g, bits, nbrs)

    monkeypatch.setattr(symmetry, "_twin_generators", counted)
    twins = [solve(g, kind, deterministic=d) for g, kind, d in runs]
    monkeypatch.setattr(symmetry, "automorphisms", _plain_generators)
    plain = [solve(g, kind, deterministic=d) for g, kind, d in runs]
    for (g, kind, _), a, b in zip(runs, twins, plain):
        a_stats, b_stats = dict(a.stats), dict(b.stats)
        del a_stats["automorphisms"], b_stats["automorphisms"]
        assert a_stats == b_stats, (g.edges, kind)
        assert (a.value, a.reason, a.witness, a.evidence) == (b.value, b.reason, b.witness, b.evidence)
    assert sum(c.stats["orbit_bans"] > 0 for c in twins) >= len(runs) // 4
    assert len(lifts) >= len(runs) // 2
