import math
from itertools import combinations

import pytest

from preclusion import (
    AK,
    INFINITY,
    EdgeSet,
    Graph,
    MP,
    ORACLE_EDGE_LIMIT,
    OracleLimitError,
    ParameterError,
    PreconditionError,
    brute_force_solve,
    complete_bipartite,
    cycle,
    hypercube,
    is_anti_kekule_set,
    is_matching_preclusion_set,
    is_s_restricted_set,
    mp_s,
    solve,
    trivial_mp_set,
)
from preclusion import random_bipartite_with_pm
from preclusion.reduction import build_reduction
from preclusion.solver import first_qualifying_subsets, precluding_subsets
from conftest import random_even_corpus


def k2():
    return Graph(2, [(0, 1)], bipartition=[0, 1])


def test_problem_kind_validation():
    with pytest.raises(ParameterError):
        mp_s(-1)
    with pytest.raises(ParameterError):
        from preclusion import ProblemKind
        ProblemKind("mp", s=2)
    assert mp_s(1).label() == "mp_1"
    assert MP.label() == "mp" and AK.label() == "ak"


def test_is_matching_preclusion_set_examples():
    g = k2()
    assert is_matching_preclusion_set(g, EdgeSet(g, [0]))
    q3 = hypercube(3)
    for pair in combinations(range(q3.m), 2):
        assert not is_matching_preclusion_set(q3, EdgeSet(q3, pair))
    c4 = cycle(4)
    opposite = EdgeSet(c4, [0, 2])
    assert not is_matching_preclusion_set(c4, opposite)


def test_is_s_restricted_set_examples():
    q3 = hypercube(3)
    star = trivial_mp_set(q3, 0)
    assert not is_s_restricted_set(q3, star, 1)  # isolates the vertex
    from preclusion import trivial_conditional_set, two_paths
    tcs = trivial_conditional_set(q3, next(two_paths(q3)))
    assert is_s_restricted_set(q3, tcs, 2)
    c4 = cycle(4)
    assert not is_s_restricted_set(c4, EdgeSet(c4, [0, 2]), 1)  # PM survives


def test_is_anti_kekule_set_examples():
    c6 = cycle(6)
    for eid in range(6):
        assert not is_anti_kekule_set(c6, EdgeSet(c6, [eid]))
    g = k2()
    assert not is_anti_kekule_set(g, EdgeSet(g, [0]))  # disconnects
    r = build_reduction(k2())
    fault = EdgeSet(r.gadget, [0, r.edge_e])
    assert is_anti_kekule_set(r.gadget, fault)
    with pytest.raises(PreconditionError):
        is_anti_kekule_set(cycle(5), EdgeSet(cycle(5), [0]))


def test_trivial_mp_set():
    q3 = hypercube(3)
    star = trivial_mp_set(q3, 5)
    assert len(star) == 3
    assert is_matching_preclusion_set(q3, star)
    assert len(trivial_mp_set(k2(), 0)) == 1
    from preclusion import petersen
    assert len(trivial_mp_set(petersen(), 0)) == 3


def test_solve_q3_mp_witness_is_star():
    cert = solve(hypercube(3), MP, deterministic=True)
    assert cert.value == 3
    q3 = hypercube(3)
    stars = {frozenset(q3.incident(v)) for v in range(q3.n)}
    assert frozenset(cert.witness.members) in stars
    assert cert.evidence.nu_after <= 3


def test_solve_examples():
    assert solve(hypercube(3), mp_s(1)).value == 4
    assert solve(cycle(4), MP).value == 2
    cert = solve(cycle(4), mp_s(1))
    assert math.isinf(cert.value)
    assert cert.witness is None and cert.reason
    cert = solve(cycle(6), AK)
    assert math.isinf(cert.value)


def test_solve_infinity_when_no_near_perfect_matching():
    g = Graph(4, [(0, 1)])  # two isolated vertices: no PM, no APM
    cert = solve(g, MP)
    assert math.isinf(cert.value)
    assert "neither" in cert.reason


def test_solve_budget_decision_mode():
    q3 = hypercube(3)
    under = solve(q3, MP, budget=2)
    assert math.isinf(under.value)
    assert "at most 2" in under.reason
    at = solve(q3, MP, budget=3)
    assert at.value == 3


def test_brute_force_solve_rejects_a_negative_max_size():
    with pytest.raises(ParameterError, match="max_size must be >= 0"):
        brute_force_solve(cycle(4), MP, max_size=-1)


def test_first_qualifying_subsets_rejects_a_negative_max_size():
    with pytest.raises(ParameterError, match="max_size must be >= 0"):
        first_qualifying_subsets(cycle(4), [MP], max_size=-3)


def test_precluding_subsets_rejects_a_negative_size():
    # Also on a graph with no near-perfect matching, which yields nothing.
    for g in (cycle(4), Graph(4, [])):
        with pytest.raises(ParameterError, match="size must be >= 0"):
            list(precluding_subsets(g, [2, -1]))


def test_chain_suite_rejects_a_negative_max_s():
    # With no kind to solve the chain is empty and would pass vacuously.
    from preclusion import chain_suite
    with pytest.raises(ParameterError, match="max_s must be >= 0"):
        chain_suite(seed=1, count=1, max_s=-1)


def test_brute_force_solve_examples():
    assert brute_force_solve(k2(), MP).value == 1
    assert brute_force_solve(hypercube(3), MP).value == 3
    assert math.isinf(brute_force_solve(cycle(6), AK).value)
    with pytest.raises(OracleLimitError):
        brute_force_solve(hypercube(4), MP)  # 32 edges over default limit
    assert brute_force_solve(hypercube(4), MP, limit=32, max_size=4).value == 4


def test_solve_matches_oracle_on_random_graphs():
    for g in random_even_corpus(60, seed=401):
        for kind in (MP, mp_s(1), mp_s(2), AK):
            expect = brute_force_solve(g, kind).value
            got = solve(g, kind).value
            assert got == expect, (g.edges, kind)


def test_solve_matches_oracle_on_labelled_bipartite_graphs():
    # a bipartition label must not change the answer: every graph takes the
    # same incremental blossom re-matching
    from preclusion import find_bipartition, with_bipartition
    checked = 0
    for g in random_even_corpus(120, seed=408):
        if find_bipartition(g) is None:
            continue
        labelled = with_bipartition(g)
        assert labelled.bipartition is not None
        for kind in (MP, mp_s(1), AK):
            assert solve(labelled, kind).value == brute_force_solve(g, kind).value
        checked += 1
    assert checked >= 30


def test_solve_on_planted_bipartite_instances():
    import random as _random
    rng = _random.Random(409)
    for _ in range(25):
        t = rng.randint(2, 4)
        g = random_bipartite_with_pm(t, rng.choice((0.2, 0.5, 0.8)), seed=rng.randrange(2**32))
        for kind in (MP, mp_s(1)):
            assert solve(g, kind).value == brute_force_solve(g, kind, limit=g.m).value


def test_certificate_soundness_on_random_graphs():
    for g in random_even_corpus(40, seed=402):
        for kind in (MP, mp_s(1), AK):
            cert = solve(g, kind)
            if not cert.feasible:
                continue
            assert len(cert.witness) == cert.value
            if kind.name == "mp":
                assert is_matching_preclusion_set(g, cert.witness)
            elif kind.name == "mps":
                assert is_s_restricted_set(g, cert.witness, kind.s)
            else:
                assert is_anti_kekule_set(g, cert.witness)
            # no smaller set passes: oracle already proved the same minimum
            assert brute_force_solve(g, kind).value == cert.value


def test_deterministic_witness_matches_oracle_witness():
    # brute force scans lexicographically, so both routes must agree exactly
    from preclusion import with_bipartition, find_bipartition
    for g in random_even_corpus(30, seed=403):
        candidates = [g]
        if find_bipartition(g) is not None:
            candidates.append(with_bipartition(g))
        for graph in candidates:
            for kind in (MP, mp_s(1), mp_s(2), AK):
                if kind == AK and graph.n % 2:
                    continue
                oracle = brute_force_solve(graph, kind)
                if not oracle.feasible:
                    continue
                cert = solve(graph, kind, deterministic=True)
                assert sorted(cert.witness.members) == sorted(oracle.witness.members)


def test_mp_s_zero_equals_mp():
    for g in random_even_corpus(25, seed=404):
        assert solve(g, mp_s(0)).value == solve(g, MP).value


def test_monotone_chain_with_infinity_top():
    for g in random_even_corpus(40, seed=405):
        values = [solve(g, mp_s(s)).value for s in range(4)]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_mp_at_most_ak_on_even_order():
    for g in random_even_corpus(40, seed=406):
        mp_value = solve(g, MP).value
        ak_value = solve(g, AK).value
        assert mp_value <= ak_value


def test_trivial_upper_bound():
    for g in random_even_corpus(30, seed=407):
        if g.n % 2 or g.m == 0 or math.isinf(solve(g, MP).value):
            continue
        assert solve(g, MP).value <= g.min_degree()


def test_jobs_do_not_change_value_witness_or_stats():
    q3 = hypercube(3)
    for kind in (MP, mp_s(1), mp_s(2)):
        certs = [solve(q3, kind, deterministic=True, jobs=j) for j in (1, 4)]
        assert certs[0].value == certs[1].value
        assert certs[0].witness.members == certs[1].witness.members
        assert certs[0].stats == certs[1].stats
    q4 = hypercube(4)
    certs = [solve(q4, MP, jobs=j) for j in (1, 3)]
    assert certs[0].value == certs[1].value == 4
    assert certs[0].stats == certs[1].stats


def test_ak_odd_order_precondition():
    with pytest.raises(PreconditionError):
        solve(cycle(5), AK)


def test_ak_disconnected_is_infinite():
    g = Graph(4, [(0, 1), (2, 3)], bipartition=[0, 1, 0, 1])
    cert = solve(g, AK)
    assert math.isinf(cert.value)
    assert "disconnected" in cert.reason


def test_ak_k33():
    g = complete_bipartite(3, 3)
    assert solve(g, AK).value == brute_force_solve(g, AK).value


def _check_incremental_rematch(g, dead, parent_mates, removed):
    """Re-match after deleting the edge ``removed`` the way the search
    does, and compare with two independent routes."""
    from preclusion import brute_force_matching_number, delete_edges
    from preclusion.matching import matching_number_excluding
    from preclusion.solver import _Search
    mates = _Search(g, MP)._mates_after(dead, parent_mates, removed)
    for v, w in enumerate(mates):
        if w != -1:
            assert mates[w] == v
            assert g.edge_id(v, w) not in dead
    size = sum(1 for w in mates if w != -1) // 2
    assert size == matching_number_excluding(g, dead)
    assert size == brute_force_matching_number(delete_edges(g, EdgeSet(g, dead)), limit=g.m)
    return mates


def _matched_edges(g, mates):
    return [g.edge_id(v, w) for v, w in enumerate(mates) if w > v]


def _check_unmatched_deletions(g, dead, mates):
    """Deleting an edge that the maximum matching ``mates`` of g - dead does
    not use leaves it unchanged, and still maximum."""
    matched = set(_matched_edges(g, mates))
    for eid in set(range(g.m)) - dead - matched:
        assert _check_incremental_rematch(g, dead | {eid}, mates, eid) == mates


def test_incremental_rematching_is_exact():
    # Deleting one edge ab of a maximum matching M: any augmenting path for
    # M - ab ends at a or b, so augmenting from a, then b, is exact. An edge
    # M does not use leaves M maximum.
    from preclusion import find_bipartition, petersen, random_graph, with_bipartition
    from preclusion.matching import maximum_matching_mates
    for g in (petersen(), cycle(7), complete_bipartite(4, 4), hypercube(4)):
        mates = maximum_matching_mates(g)
        for eid in _matched_edges(g, mates):
            _check_incremental_rematch(g, frozenset({eid}), mates, eid)
        _check_unmatched_deletions(g, frozenset(), mates)
    import random as _random
    rng = _random.Random(410)
    tagged = 0
    for _ in range(80):
        n = rng.choice((5, 6, 7, 8, 9, 10))
        g = random_graph(n, rng.randint(1, min(16, n * (n - 1) // 2)), seed=rng.randrange(2**32))
        if find_bipartition(g) is not None:
            g = with_bipartition(g)
            tagged += 1
        mates = maximum_matching_mates(g)
        _check_unmatched_deletions(g, frozenset(), mates)
        # two levels deep, so the dead set also holds an edge that the
        # current matching no longer uses
        for first in _matched_edges(g, mates):
            dead = frozenset({first})
            child = _check_incremental_rematch(g, dead, mates, first)
            _check_unmatched_deletions(g, dead, child)
            for second in _matched_edges(g, child):
                _check_incremental_rematch(g, dead | {second}, child, second)
    assert tagged >= 10


def test_one_matching_and_one_report_per_solve(monkeypatch):
    # Every search node, lex-min candidates included, is one deletion step
    # from the root, and the witness's leaf already holds a maximum matching
    # of g - witness. So a whole solve matches g from scratch once, and takes
    # one full components report for the root's side rule and one for the
    # evidence, without calling evidence_for.
    from preclusion import petersen, solver
    calls = {"maximum_matching_mates": 0, "components": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    def forbidden(*args, **kwargs):
        raise AssertionError("solve recomputed its evidence")

    for name in calls:
        monkeypatch.setattr(solver, name, counted(name, getattr(solver, name)))
    monkeypatch.setattr(solver, "evidence_for", forbidden)
    for g in (hypercube(4), complete_bipartite(4, 4), petersen()):
        for kind in (MP, mp_s(1), AK):
            for deterministic in (False, True):
                calls.update(dict.fromkeys(calls, 0))
                assert solve(g, kind, deterministic=deterministic).feasible
                expect = {"maximum_matching_mates": 1,
                          "components": int(kind.has_side_condition) + 1}
                assert calls == expect, (g.edges, kind, deterministic)


def test_solve_evidence_matches_evidence_for():
    # solve reads nu(g - witness) off the leaf that found the witness, lex-min
    # or not; evidence_for recomputes it from scratch.
    import random
    from preclusion import petersen
    from preclusion.solver import evidence_for
    from conftest import relabel
    rng = random.Random(1507)
    graphs = []
    for g in (hypercube(3), hypercube(4), complete_bipartite(4, 4), petersen()):
        graphs += [g, relabel(g, rng), relabel(g, rng)]
    graphs += random_even_corpus(30, seed=1507)
    feasible = 0
    for g in graphs:
        for kind in (MP, mp_s(1), mp_s(2), AK):
            for deterministic in (False, True):
                cert = solve(g, kind, deterministic=deterministic)
                if not cert.feasible:
                    continue
                budgeted = solve(g, kind, budget=cert.value, deterministic=deterministic)
                for c in (cert, budgeted):
                    feasible += 1
                    assert c.evidence == evidence_for(g, c.witness), (g.edges, kind, deterministic)
    assert feasible >= 200


def test_deepening_rounds_share_the_root_packing(monkeypatch):
    # At the root (F = B = {}, no edge removed) the packing does not depend
    # on k, so each M_(i+1) is grown there once per solve: no two root
    # maximize calls see the same deleted set.
    from preclusion import random_graph, solver
    real_dfs, real_maximize = solver._Search._dfs, solver.maximize
    at_root: list[bool] = []
    grown: list[frozenset[int]] = []

    def dfs(self, fault, banned, mates, k, removed=None, warm=None):
        at_root.append(removed is None)
        try:
            return real_dfs(self, fault, banned, mates, k, removed, warm)
        finally:
            at_root.pop()

    def maximize(g, dead, mate, misses_allowed):
        if at_root[-1]:
            grown.append(frozenset(dead))
        return real_maximize(g, dead, mate, misses_allowed)

    monkeypatch.setattr(solver._Search, "_dfs", dfs)
    monkeypatch.setattr(solver, "maximize", maximize)
    for g, kind, rounds in ((hypercube(4), mp_s(1), 7), (random_graph(6, 13, seed=0), MP, 4)):
        grown.clear()
        cert = solve(g, kind)
        assert cert.stats["deepening_rounds"] == rounds
        assert len(grown) >= 3 and len(set(grown)) == len(grown), (g.edges, kind)


def test_deep_alternating_path_has_finite_certificates():
    # Re-matching after the first deletion walks an alternating path through
    # all 3000 vertices; the search must not depend on the recursion limit.
    from preclusion import path, with_bipartition
    g = with_bipartition(path(3000))
    cert = solve(g, MP)
    assert cert.value == 1
    assert is_matching_preclusion_set(g, cert.witness)
    cert = solve(g, mp_s(1))
    assert cert.value == 1
    assert is_s_restricted_set(g, cert.witness, 1)


def test_deepening_stops_once_the_budget_never_cuts():
    # Every deletion disconnects a path, so round 1 refutes the whole tree
    # without a budget prune; deepening on to k = m would only repeat it.
    from preclusion import path
    cert = solve(path(200), AK)
    assert cert.value == INFINITY
    assert cert.reason == "no anti-Kekule set exists"
    assert cert.stats["deepening_rounds"] <= 2


KINDS = [MP, mp_s(0), mp_s(1), mp_s(2), AK]


def _sweep_corpus():
    """Gadgets of seeded planted-matching sources plus seeded even-order
    random graphs, all within the oracle edge limit."""
    import random as _random
    rng = _random.Random(411)
    graphs = []
    while len(graphs) < 12:
        t = rng.randint(1, 3)
        g = random_bipartite_with_pm(t, rng.choice((0.0, 0.3, 0.6)), seed=rng.randrange(2**32))
        gadget = build_reduction(g).gadget
        if gadget.m <= ORACLE_EDGE_LIMIT:
            graphs.append(gadget)
    return graphs + random_even_corpus(30, seed=412)


def test_multi_kind_sweep_equals_single_kind_sweeps():
    # the kinds share one components report per precluding subset; each
    # must still get exactly what a sweep of its own finds
    for g in _sweep_corpus():
        found = first_qualifying_subsets(g, KINDS)
        for kind in KINDS:
            single = brute_force_solve(g, kind)
            if kind not in found:
                assert single.value == INFINITY, (g.edges, kind)
                continue
            checked, combo = found[kind]
            assert single.value == len(combo), (g.edges, kind)
            assert sorted(single.witness.members) == list(combo)
            assert single.stats["subsets_checked"] == checked


def _components_from_scratch(g, dead):
    """(smallest component size, connected) of g - dead by union-find."""
    parent = list(range(g.n))

    def root(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for eid, (u, v) in enumerate(g.edges):
        if eid not in dead:
            parent[root(u)] = root(v)
    sizes = {}
    for v in range(g.n):
        sizes[root(v)] = sizes.get(root(v), 0) + 1
    return min(sizes.values(), default=0), len(sizes) <= 1


def test_side_rule_predicate_matches_components_from_scratch():
    import random as _random
    from preclusion import components, random_graph
    rng = _random.Random(413)
    kinds = [MP, AK] + [mp_s(s) for s in range(4)]
    precluding = 0
    for _ in range(150):
        n = rng.choice((4, 5, 6, 8, 10))
        g = random_graph(n, rng.randint(0, min(20, n * (n - 1) // 2)), seed=rng.randrange(2**32))
        for _ in range(6):
            dead = frozenset(rng.sample(range(g.m), rng.randint(0, g.m)))
            rep = components(g, without=dead)
            min_size, connected = _components_from_scratch(g, dead)
            for kind in kinds:
                expect = {"mp": True, "mps": min_size >= kind.s + 1, "ak": connected}[kind.name]
                assert kind.side_holds(rep) == expect
                if not kind.has_side_condition:
                    assert expect
            f = EdgeSet(g, dead)
            if not is_matching_preclusion_set(g, f):
                continue
            precluding += 1
            for s in range(4):
                assert is_s_restricted_set(g, f, s) == mp_s(s).side_holds(rep)
            if n % 2 == 0:
                assert is_anti_kekule_set(g, f) == AK.side_holds(rep)
    assert precluding >= 100


def _answer(cert):
    return cert.value, cert.reason, cert.stats


def test_oracle_sweep_never_calls_the_matching_search(monkeypatch):
    from preclusion import matching, path, petersen, solver
    graphs = [petersen(), complete_bipartite(4, 4), build_reduction(cycle(4)).gadget]
    kinds = [MP, mp_s(1), mp_s(2), AK]
    expected = [(list(precluding_subsets(g, range(4))), first_qualifying_subsets(g, kinds))
                for g in graphs]
    infinite = [(complete_bipartite(1, 3), MP),                   # no near-perfect matching
                (complete_bipartite(1, 3), AK),
                (Graph(4, [(0, 1), (2, 3)]), AK),                 # disconnected
                (path(4), AK), (complete_bipartite(1, 1), mp_s(1))]  # no qualifying set
    expected_infinite = [_answer(brute_force_solve(g, kind)) for g, kind in infinite]
    assert [reason for _, reason, _ in expected_infinite] == [
        "graph has neither a perfect nor an almost perfect matching",
        "graph has neither a perfect nor an almost perfect matching",
        "graph is disconnected; edge deletion cannot restore connectivity",
        "no anti-Kekule set exists",
        "no 1-restricted matching preclusion set exists"]

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle sweep called the optimizer's matching search")

    for module in (matching, solver):
        monkeypatch.setattr(module, "augment_from", forbidden)
        monkeypatch.setattr(module, "maximum_matching_mates", forbidden)
    with pytest.raises(AssertionError):
        solve(petersen(), MP)  # the patch does reach the optimizer
    for g, (subsets, firsts) in zip(graphs, expected):
        assert list(precluding_subsets(g, range(4))) == subsets
        assert first_qualifying_subsets(g, kinds) == firsts
    # the oracle's INFINITY answers compute no evidence, so they too must
    # not reach the engine
    for (g, kind), cert in zip(infinite, expected_infinite):
        assert _answer(brute_force_solve(g, kind)) == cert, (g.edges, kind)


def _bound_corpus():
    from preclusion import petersen
    from conftest import random_corpus
    return ([petersen(), complete_bipartite(4, 4), hypercube(4)]
            + random_corpus(40, seed=416, n_choices=(5, 6, 7, 8, 9, 10), max_edges=22))


def test_packing_bound_changes_only_stats(monkeypatch):
    # The bound prunes only subtrees with no qualifying set, so DFS finds
    # the same first set with or without it, lex-min or not. With no
    # near-perfect M_2, the packing never gets past U_1.
    from preclusion import solver
    runs = []
    for g in _bound_corpus():
        for kind in (MP, mp_s(1), mp_s(2), AK):
            if kind == AK and g.n % 2:
                continue
            for deterministic in (False, True):
                runs.append((g, kind, deterministic, solve(g, kind, deterministic=deterministic)))
    monkeypatch.setattr(solver, "maximize", lambda *args, **kwargs: False)
    pruned = 0
    for g, kind, deterministic, cert in runs:
        plain = solve(g, kind, deterministic=deterministic)
        assert (cert.value, cert.reason) == (plain.value, plain.reason), (g.edges, kind)
        if cert.feasible:
            assert cert.witness.members == plain.witness.members, (g.edges, kind)
        assert cert.stats["nodes"] <= plain.stats["nodes"]
        assert plain.stats["bound_prunes"] == 0
        pruned += cert.stats["bound_prunes"] > 0
    assert pruned >= len(runs) // 4


def test_reuse_changes_only_stats(monkeypatch):
    # The lex-min pass's bans from round k*'s path and the children's starts
    # from their parent's packing only skip work whose outcome is known, so
    # with both off every answer is the same; only the work done may move.
    import random as _random
    from preclusion import matching, solver
    from preclusion.solver import _Search
    from conftest import relabel
    # Edmonds searches by calling module: maximize's, and the re-matching's
    searches = {matching: 0, solver: 0}
    for module in searches:
        def counted(*args, _search=module.augment_from, _module=module):
            searches[_module] += 1
            return _search(*args)
        monkeypatch.setattr(module, "augment_from", counted)
    rng = _random.Random(418)
    graphs = _bound_corpus() + [relabel(g, rng) for g in (hypercube(3), hypercube(3),
                                                          complete_bipartite(4, 4),
                                                          complete_bipartite(4, 4))]
    runs = []
    for g in graphs:
        for kind in (MP, mp_s(1), mp_s(2), AK):
            if kind == AK and g.n % 2:
                continue
            for deterministic in (False, True):
                runs.append((g, kind, deterministic, solve(g, kind, deterministic=deterministic)))
    reused = dict(searches)
    searches.update(dict.fromkeys(searches, 0))
    lex_min, dfs = _Search._lex_min_witness, _Search._dfs

    def without_path_bans(self, k, known):
        self.path.clear()
        return lex_min(self, k, known)

    def without_warm(self, fault, banned, mates, k, removed=None, warm=None):
        # no carried packing: every M_2 from M_1, every later M_(i+1) from M_i
        return dfs(self, fault, banned, mates, k, removed)

    monkeypatch.setattr(_Search, "_lex_min_witness", without_path_bans)
    monkeypatch.setattr(_Search, "_dfs", without_warm)
    reused_nodes = plain_nodes = 0
    for g, kind, deterministic, cert in runs:
        other = solve(g, kind, deterministic=deterministic)
        assert (cert.value, cert.reason) == (other.value, other.reason), (g.edges, kind)
        if cert.feasible:
            assert cert.witness.members == other.witness.members, (g.edges, kind)
        if not deterministic:
            assert cert.stats["lexmin_nodes"] == 0
        reused_nodes += cert.stats["nodes"]
        plain_nodes += other.stats["nodes"]
    assert reused_nodes < plain_nodes
    assert sum(reused.values()) < sum(searches.values())
    # The carried packings leave maximize less to repair.
    assert reused[matching] < searches[matching]


def test_pendant_bans_change_only_stats(monkeypatch):
    # Under a component floor of 2 or more no qualifying set deletes a
    # vertex's last live edge, so banning it cuts only refuted branches:
    # DFS finds the same first set, lex-min or not, in no more nodes. Below
    # a floor of 2 the rule is off and every counter stays as it was.
    import random as _random
    from preclusion.solver import _Search
    from conftest import relabel
    rng = _random.Random(1616)
    graphs = _bound_corpus() + [relabel(g, rng) for g in (hypercube(3), hypercube(3),
                                                          hypercube(4), hypercube(4),
                                                          complete_bipartite(4, 4),
                                                          complete_bipartite(4, 4))]
    runs = []
    for g in graphs:
        for kind in (MP, mp_s(0), mp_s(1), mp_s(2), AK):
            if kind == AK and g.n % 2:
                continue
            for deterministic in (False, True):
                runs.append((g, kind, deterministic, solve(g, kind, deterministic=deterministic)))
    init = _Search.__init__

    def without_pendant_bans(self, g, kind):
        init(self, g, kind)
        self.pendant = False

    monkeypatch.setattr(_Search, "__init__", without_pendant_bans)
    banning = 0
    for g, kind, deterministic, cert in runs:
        plain = solve(g, kind, deterministic=deterministic)
        assert (cert.value, cert.reason) == (plain.value, plain.reason), (g.edges, kind)
        if cert.feasible:
            assert cert.witness == plain.witness, (g.edges, kind)
        assert cert.stats["nodes"] <= plain.stats["nodes"], (g.edges, kind)
        assert plain.stats["pendant_bans"] == 0
        if kind.component_floor(g.n) < 2:
            assert cert.stats == plain.stats, (g.edges, kind)
        banning += cert.stats["pendant_bans"] > 0
    assert banning >= len(runs) // 4


def test_local_side_check_matches_components():
    # Below the root the search checks only the edge it just deleted; from
    # a fault set that met the rule, that must agree with a full report.
    import random as _random
    from preclusion import components, random_graph
    from preclusion.solver import _Search
    rng = _random.Random(417)
    outcomes = {True: 0, False: 0}
    for _ in range(200):
        n = rng.choice((4, 6, 8, 10, 12))
        g = random_graph(n, rng.randint(n - 1, min(24, n * (n - 1) // 2)),
                         seed=rng.randrange(2**32))
        for kind in (mp_s(1), mp_s(2), mp_s(3), AK):
            search = _Search(g, kind)
            for _ in range(4):
                fault = frozenset(rng.sample(range(g.m), rng.randint(0, g.m // 2)))
                if not kind.side_holds(components(g, without=fault)):
                    continue
                for removed in set(range(g.m)) - fault:
                    dead = fault | {removed}
                    expect = kind.side_holds(components(g, without=dead))
                    assert search._side_holds(dead, removed) == expect, (g.edges, kind)
                    outcomes[expect] += 1
    assert min(outcomes.values()) >= 500


def test_packing_bound_proves_mp_of_q6():
    # The greedy packing finds more disjoint perfect matchings of Q6 than
    # any budget below 6 allows, so rounds 1 to 5 end at the root.
    cert = solve(hypercube(6), MP, deterministic=True)
    assert cert.value == 6
    assert cert.stats["nodes"] <= 100
    assert is_matching_preclusion_set(hypercube(6), cert.witness)


def test_orbit_bans_refute_q5_restricted_budget_7():
    # mp_1(Q5) = 8. Orbit bans stop the search from refuting every symmetric
    # image of a refuted branch again; without them this takes 53,205 nodes.
    # The cap is the count with pendant bans and the n // 2 orbit gate.
    cert = solve(hypercube(5), mp_s(1), budget=7)
    assert cert.value == INFINITY
    assert cert.reason == "no 1-restricted matching preclusion set of size at most 7 exists"
    assert cert.stats["nodes"] <= 975
    assert cert.stats["orbit_bans"] > 0 and cert.stats["automorphisms"] > 0


def test_frontier_q6_restricted_budget_9():
    # mp_1(Q6) >= 10, by search alone, in about 1.5 s. The node cap is the
    # count with carried packings, pendant bans and the n // 2 orbit gate: a
    # change that weakens the packing bound or the bans crosses it.
    cert = solve(hypercube(6), mp_s(1), budget=9)
    assert cert.value == INFINITY
    assert cert.reason == "no 1-restricted matching preclusion set of size at most 9 exists"
    assert cert.stats["nodes"] <= 26_691
    assert cert.stats["orbit_bans"] > 0 and cert.stats["automorphisms"] > 0
