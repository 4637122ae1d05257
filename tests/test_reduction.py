import random

import pytest

from preclusion import (
    AK,
    EdgeSet,
    Graph,
    MP,
    ParameterError,
    PreconditionError,
    TagMismatchError,
    backward_extract,
    brute_force_solve,
    build_reduction,
    complete_bipartite,
    components,
    cycle,
    delete_edges,
    forward_witness,
    fuzz_equivalence,
    has_perfect_matching,
    is_anti_kekule_set,
    is_matching_preclusion_set,
    is_s_restricted_set,
    mp_s,
    random_bipartite_with_pm,
    surviving_edge_ids,
    verify_equivalence,
)
from preclusion.matching import matching_number_excluding
from preclusion.solver import ORACLE_EDGE_LIMIT, evidence_for
from preclusion.symmetry import automorphisms, is_automorphism


def k2():
    return Graph(2, [(0, 1)], bipartition=[0, 1])


def test_gadget_counts_k2():
    r = build_reduction(k2())
    assert r.gadget.n == 6
    assert r.gadget.m == 7
    assert r.t == 1
    assert r.k_map(3) == 4


def test_gadget_counts_k33():
    r = build_reduction(complete_bipartite(3, 3))
    assert r.gadget.n == 10
    assert r.gadget.m == 19


def test_gadget_counts_random():
    g = random_bipartite_with_pm(4, 0.3, seed=12)
    r = build_reduction(g)
    assert r.gadget.n == 12
    assert r.gadget.m == g.m + 2 * 4 + 4
    assert has_perfect_matching(r.gadget)


def test_gadget_added_vertices_form_four_cycle():
    for seed in range(6):
        g = random_bipartite_with_pm(random.Random(seed).randint(1, 5), 0.4, seed=seed)
        r = build_reduction(g)
        added = [r.u_prime, r.u_dprime, r.v_prime, r.v_dprime]
        gg = r.gadget
        # u'' and v'' attach only inside the 4-cycle
        assert set(gg.neighbors(r.u_dprime)) == {r.v_prime, r.v_dprime}
        assert set(gg.neighbors(r.v_dprime)) == {r.u_prime, r.u_dprime}
        inside = [
            (a, b) for a in added for b in added if a < b and gg.has_edge(a, b)
        ]
        assert len(inside) == 4  # the 4-cycle, no chord (bipartite anyway)
        # u' covers all of V, v' covers all of U
        side = g.bipartition
        for v in range(g.n):
            if side[v] == 1:
                assert gg.has_edge(r.u_prime, v)
            else:
                assert gg.has_edge(v, r.v_prime)
        assert gg.edges[r.edge_e] == (r.u_dprime, r.v_dprime)
        assert gg.edges[r.edge_e_prime] == (r.u_prime, r.v_prime)


def test_build_reduction_preconditions():
    with pytest.raises(PreconditionError):
        build_reduction(cycle(5))  # not bipartite
    with pytest.raises(PreconditionError):
        build_reduction(complete_bipartite(2, 3))  # unbalanced
    no_pm = Graph(4, [(0, 2), (0, 3)], bipartition=[0, 0, 1, 1])
    with pytest.raises(PreconditionError):
        build_reduction(no_pm)


def test_forward_witness_k2():
    r = build_reduction(k2())
    lifted = forward_witness(r, EdgeSet(r.source, [0]))
    assert sorted(lifted.members) == sorted([0, r.edge_e])
    assert is_anti_kekule_set(r.gadget, lifted)
    assert is_s_restricted_set(r.gadget, lifted, 1)


def test_forward_witness_rejects_non_preclusion_sets():
    g = complete_bipartite(2, 2)
    r = build_reduction(g)
    with pytest.raises(PreconditionError):
        forward_witness(r, EdgeSet(r.source, [0]))


# Each consumer of an edge-set argument, called as (reduction, edges), and
# whether ``edges`` belong to the gadget rather than to the source C_4.
_CONSUMERS = {
    "EdgeSet": (lambda r, f: EdgeSet(r.source, f), False),
    "components": (lambda r, f: components(r.source, without=f), False),
    "matching_number_excluding": (lambda r, f: matching_number_excluding(r.source, f), False),
    "delete_edges": (lambda r, f: delete_edges(r.source, f), False),
    "surviving_edge_ids": (lambda r, f: surviving_edge_ids(r.source, f), False),
    "is_matching_preclusion_set": (lambda r, f: is_matching_preclusion_set(r.source, f), False),
    "is_s_restricted_set": (lambda r, f: is_s_restricted_set(r.source, f, 1), False),
    "is_anti_kekule_set": (lambda r, f: is_anti_kekule_set(r.source, f), False),
    "evidence_for": (lambda r, f: evidence_for(r.source, f), False),
    "union": (lambda r, f: EdgeSet(r.source, [2]).union(f), False),
    "difference": (lambda r, f: EdgeSet(r.source, [0, 2]).difference(f), False),
    "forward_witness": (lambda r, f: forward_witness(r, f), False),
    "backward_extract": (lambda r, f: backward_extract(r, f, k=2), True),
    "automorphisms": (lambda r, f: automorphisms(r.source, [f]), False),
    "is_automorphism": (lambda r, f: is_automorphism(r.source, (0, 1, 2, 3), [f]), False),
}


@pytest.mark.parametrize("name", _CONSUMERS)
def test_edge_set_consumers_reject_a_foreign_tag(name):
    # C_4 and its gadget share edge indices 0..3, so a set tagged to the
    # wrong one would give a plausible answer if its tag went unchecked.
    consume, on_gadget = _CONSUMERS[name]
    r = build_reduction(cycle(4))
    foreign = r.source if on_gadget else r.gadget
    with pytest.raises(TagMismatchError):
        consume(r, EdgeSet(foreign, [0, 1]))
    if name == "components":
        with pytest.raises(TagMismatchError):
            consume(r, EdgeSet(foreign, []))


@pytest.mark.parametrize("name", _CONSUMERS)
def test_edge_set_consumers_read_plain_indices_as_edges_of_their_graph(name):
    consume, on_gadget = _CONSUMERS[name]
    r = build_reduction(cycle(4))
    own = r.gadget if on_gadget else r.source
    ids = [0, 1, r.edge_e] if on_gadget else [0, 1]
    expected = consume(r, EdgeSet(own, ids))
    assert consume(r, tuple(ids)) == consume(r, frozenset(ids)) == expected
    # An index the graph does not have is an error, not an edge to skip.
    for bad in (-1, own.m):
        with pytest.raises(ParameterError, match=f"edge index {bad} out of range"):
            consume(r, (0, bad))


def test_backward_extract_case_e_deleted():
    r = build_reduction(k2())
    out = backward_extract(r, EdgeSet(r.gadget, [0, r.edge_e]), k=1)
    assert sorted(out.members) == [0]


def test_backward_extract_case_intersection_precludes():
    # K(2,2) gadget: source star of u0 plus both edges u'v kills every
    # perfect matching while avoiding e; the restriction {u0v0, u0v1}
    # already precludes the source.
    g = complete_bipartite(2, 2)
    r = build_reduction(g)
    gg = r.gadget
    fault = EdgeSet(gg, [0, 1, gg.edge_id(2, r.u_prime), gg.edge_id(3, r.u_prime)])
    assert r.edge_e not in fault.members
    assert is_s_restricted_set(r.gadget, fault, 1)
    out = backward_extract(r, fault, k=3)
    assert sorted(out.members) == [0, 1]
    assert is_matching_preclusion_set(r.source, out)


def test_backward_extract_case_shrink_by_one():
    # all four source edges form an anti-Kekule set of the K(2,2) gadget
    # (u0 and u1 both lean on v', so no perfect matching survives); at
    # budget 3 the restriction overshoots by one and is shrunk.
    g = complete_bipartite(2, 2)
    r = build_reduction(g)
    fault = EdgeSet(r.gadget, range(g.m))
    assert is_anti_kekule_set(r.gadget, fault)
    out = backward_extract(r, fault, k=3)
    assert len(out) == 3
    assert is_matching_preclusion_set(r.source, out)


def test_backward_extract_case_trivial_star():
    # fault confined to the added structure: restriction is empty and does
    # not preclude, so the extraction falls back to a vertex star.
    g = complete_bipartite(2, 2)
    r = build_reduction(g)
    gg = r.gadget
    fault = EdgeSet(gg, [
        gg.edge_id(2, r.u_prime), gg.edge_id(3, r.u_prime),
        r.edge_e_prime, gg.edge_id(r.u_dprime, r.v_prime),
    ])
    assert is_s_restricted_set(r.gadget, fault, 1)
    restriction = EdgeSet(g, [e for e in fault.members if e < g.m])
    assert not is_matching_preclusion_set(g, restriction)
    out = backward_extract(r, fault, k=3)
    assert sorted(out.members) == [0, 1]  # star of the max-degree vertex u0
    assert is_matching_preclusion_set(r.source, out)


def test_backward_extract_fuzz():
    rng = random.Random(77)
    extracted = 0
    for _ in range(120):
        t = rng.randint(1, 4)
        g = random_bipartite_with_pm(t, rng.choice((0.0, 0.3, 0.6)), seed=rng.randrange(2**32))
        r = build_reduction(g)
        masks_kind = rng.choice((AK, mp_s(1), mp_s(2)))
        cert = brute_force_solve(r.gadget, masks_kind, limit=r.gadget.m)
        if not cert.feasible:
            continue
        k = len(cert.witness) - 1
        out = backward_extract(r, cert.witness, k=k)
        assert is_matching_preclusion_set(r.source, out)
        assert len(out) <= k
        extracted += 1
    assert extracted >= 100


def test_backward_extract_preconditions():
    r = build_reduction(k2())
    with pytest.raises(PreconditionError):
        backward_extract(r, EdgeSet(r.gadget, [r.edge_e]), k=1)  # not precluding
    good = EdgeSet(r.gadget, [0, r.edge_e])
    with pytest.raises(PreconditionError):
        backward_extract(r, good, k=0)  # budget too small for |B'|


def test_verify_equivalence_k2():
    assert verify_equivalence(k2(), 1) == type(verify_equivalence(k2(), 1))(
        left=True, right_ak=True, right_mps=True, agree=True)
    eq0 = verify_equivalence(k2(), 0)
    assert (eq0.left, eq0.right_ak, eq0.right_mps, eq0.agree) == (False, False, False, True)


def test_verify_equivalence_k33():
    eq = verify_equivalence(complete_bipartite(3, 3), 2)
    assert (eq.left, eq.right_ak, eq.right_mps) == (False, False, False)
    assert eq.agree
    eq3 = verify_equivalence(complete_bipartite(3, 3), 3)
    assert eq3.left and eq3.agree


def test_equivalence_checks_reject_vacuous_parameters():
    # s = 0 puts no floor on the gadget's components, so the equivalence
    # fails there (mp_0(C_4') <= 2 but mp(C_4) = 2 > 1); it is not a
    # level the reduction covers, and a negative budget checks nothing.
    for k, s in ((-1, 1), (1, 0), (1, -1)):
        with pytest.raises(ParameterError):
            verify_equivalence(cycle(4), k, s=s)
    for s_values in ((0,), (1, 0)):
        with pytest.raises(ParameterError):
            fuzz_equivalence(seed=1, count=1, s_values=s_values)


def test_fuzz_equivalence_rejects_no_restriction_level():
    # No level means no check: the report would pass after 0 checks.
    with pytest.raises(ParameterError, match="at least one restriction level"):
        fuzz_equivalence(seed=1, count=1, s_values=())


def test_fuzz_equivalence_rejects_a_source_size_below_one():
    # random.randint(1, 0) would raise a bare ValueError.
    for t_max in (0, -2):
        with pytest.raises(ParameterError, match="t_max must be >= 1"):
            fuzz_equivalence(seed=1, count=1, t_max=t_max)


def test_gadget_values_track_source_value():
    # ak(G') and mp_s(G') equal mp(G) + 1 on small instances
    for seed in range(8):
        g = random_bipartite_with_pm(3, 0.4, seed=seed)
        r = build_reduction(g)
        mp_value = brute_force_solve(g, MP, limit=g.m).value
        ak_value = brute_force_solve(r.gadget, AK, limit=r.gadget.m).value
        assert ak_value == mp_value + 1


def test_witness_round_trip_fuzz():
    # lift an optimal source witness, check it on the gadget, extract it back
    rng = random.Random(55)
    for _ in range(60):
        t = rng.randint(1, 4)
        g = random_bipartite_with_pm(t, rng.choice((0.0, 0.4, 0.8)), seed=rng.randrange(2**32))
        r = build_reduction(g)
        source_cert = brute_force_solve(g, MP, limit=g.m)
        lifted = forward_witness(r, source_cert.witness)
        assert is_anti_kekule_set(r.gadget, lifted)
        assert is_s_restricted_set(r.gadget, lifted, 1)
        k = int(source_cert.value)
        back = backward_extract(r, lifted, k)
        assert is_matching_preclusion_set(r.source, back)
        assert len(back) <= k


def test_verify_equivalence_takes_sources_past_the_oracle_edge_limit():
    # The gadget sweep is what costs, and it stops at the first qualifying
    # sets, so the source's edge count sets no limit of its own.
    g = random_bipartite_with_pm(5, 0.55, seed=4)
    assert g.m > ORACLE_EDGE_LIMIT
    assert verify_equivalence(g, 3).agree


def test_fuzz_equivalence_small():
    out = fuzz_equivalence(seed=5, count=25)
    assert out["passed"] and out["seed"] == 5
    assert out["instances"] == 25
    assert not out["disagreements"]
