import tracemalloc
from itertools import combinations

import pytest

from preclusion import (
    BudgetError,
    EdgeSet,
    Graph,
    MP,
    ParameterError,
    TwoPath,
    brute_force_solve,
    check_connected_after,
    complete,
    compute_v_e,
    cycle,
    hypercube,
    incident_pair_set,
    is_s_restricted_set,
    mp_s,
    solve,
    star_plus_padding_counterexample,
    super_connectivity_report,
    trivial_conditional_set,
    trivial_mp_set,
    two_paths,
    verify_mps_hypercube,
    verify_trivial_conditional_connected,
)
from preclusion.cubes import lemma_report_conditional_sets


def test_incident_sets():
    q3 = hypercube(3)
    assert len(trivial_mp_set(q3, 0)) == 3
    for n in range(3, 9):
        q = hypercube(n)
        for eid in range(q.m):
            assert len(incident_pair_set(q, eid)) == 2 * n - 2
    with pytest.raises(ParameterError, match="^edge index 12 out of range for m=12$"):
        incident_pair_set(q3, q3.m)


def test_two_paths_enumeration():
    q3 = hypercube(3)
    paths = list(two_paths(q3))
    assert len(paths) == 8 * 3  # one per middle vertex and neighbor pair
    for p in paths:
        assert q3.has_edge(p.u, p.w) and q3.has_edge(p.w, p.v)
        assert not q3.has_edge(p.u, p.v)  # triangle-free


def test_trivial_conditional_sets_all_two_paths():
    # every 2-path: right size, cube stays connected, no perfect matching left
    from preclusion import has_perfect_matching, delete_edges
    for n in (3, 4, 5, 6):
        q = hypercube(n)
        for p in two_paths(q):
            tcs = trivial_conditional_set(q, p)
            assert len(tcs) == 2 * n - 2
            left = delete_edges(q, tcs)
            assert not has_perfect_matching(left)
            assert check_connected_after(q, tcs)
    q3 = hypercube(3)
    tcs = trivial_conditional_set(q3, next(two_paths(q3)))
    assert is_s_restricted_set(q3, tcs, 2)


def test_trivial_conditional_set_validation():
    q3 = hypercube(3)
    with pytest.raises(ParameterError):
        trivial_conditional_set(q3, TwoPath(0, 1, 0))
    with pytest.raises(ParameterError):
        trivial_conditional_set(q3, TwoPath(0, 7, 3))  # 0-7 not an edge


def test_compute_v_e_examples():
    assert compute_v_e(cycle(6)) == 2
    assert compute_v_e(complete(4)) == 3
    assert compute_v_e(hypercube(3)) == 4
    for n in (3, 4, 5, 6):
        assert compute_v_e(hypercube(n)) == 2 * n - 2
    pm_graph = Graph(4, [(0, 1), (2, 3)])
    assert compute_v_e(pm_graph) is None


def test_check_connected_after():
    q3 = hypercube(3)
    assert not check_connected_after(q3, incident_pair_set(q3, 0))
    assert check_connected_after(q3, trivial_conditional_set(q3, next(two_paths(q3))))


def test_lemma4_structure_q3():
    report = lemma_report_conditional_sets(3)
    assert report["subsets_checked"] == 495
    assert report["conditional_sets"] == 24
    assert report["trivial_sets"] == 24
    assert report["passed"]


def test_lemma4_structure_q4_behind_flag():
    report = lemma_report_conditional_sets(4, allow_slow=True)
    assert report["subsets_checked"] == 906192
    assert report["conditional_sets"] == 96  # one per 2-path of the 4-cube
    assert report["passed"]


def test_lemma4_budget_guard():
    with pytest.raises(BudgetError):
        lemma_report_conditional_sets(4)
    with pytest.raises(BudgetError):
        lemma_report_conditional_sets(5, allow_slow=True)


def test_no_size_three_conditional_sets_in_q3():
    q3 = hypercube(3)
    for combo in combinations(range(q3.m), 3):
        assert not is_s_restricted_set(q3, EdgeSet(q3, combo), 1)


def test_every_trivial_conditional_set_is_conditional():
    q3 = hypercube(3)
    for p in two_paths(q3):
        assert is_s_restricted_set(q3, trivial_conditional_set(q3, p), 1)


def test_verify_mps_hypercube_q3():
    for s in (2, 3):
        cert = verify_mps_hypercube(3, s)
        assert cert.value == 4
        assert "exhaustively" in cert.note
        assert is_s_restricted_set(hypercube(3), cert.witness, s)


def test_verify_mps_hypercube_large_n_is_labeled():
    cert = verify_mps_hypercube(6, 2)
    assert cert.value == 10
    assert "cited" in cert.note


def test_verify_mps_hypercube_range_errors():
    with pytest.raises(ParameterError):
        verify_mps_hypercube(2, 2)
    with pytest.raises(ParameterError):
        verify_mps_hypercube(3, 1)
    with pytest.raises(ParameterError, match=r"satisfiable range 2\.\.7"):
        verify_mps_hypercube(3, 8)  # s+1 > 2^3 is unsatisfiable


def test_verify_mps_hypercube_checks_the_cap_before_building_2_to_the_n():
    # 2**n - 1 alone would take n / 8 bytes, 12.5 MB here.
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match="exceeds the limit"):
            verify_mps_hypercube(10**8, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_star_plus_padding_counterexample():
    for n in (3, 4):
        g, cx = star_plus_padding_counterexample(n)
        assert len(cx) == 2 * n - 2
        assert not check_connected_after(g, cx)
        pair_cuts = {
            frozenset(incident_pair_set(g, eid).members) for eid in range(g.m)
        }
        assert frozenset(cx.members) not in pair_cuts
        assert g.incident(0) <= cx.members  # the star that breaks the literal form


def test_super_connectivity_q3_finds_exactly_the_dimension_cuts():
    # The corrected statement (exclude incident-pair cuts and star
    # supersets) still has exactly three exceptions in the 3-cube: the
    # dimension cuts, each splitting it into two 4-cycles. 2^(n-1) = 2n-2
    # only at n = 3, so they vanish for larger cubes.
    report = super_connectivity_report(3)
    assert report["mode"] == "exhaustive"
    assert report["checked"] == 495
    assert not report["passed"]
    q3 = hypercube(3)
    dimension_cuts = [
        sorted(q3.edge_id(i, i ^ (1 << k)) for i in range(8) if i < i ^ (1 << k))
        for k in range(3)
    ]
    assert sorted(report["corrected_failures"]) == sorted(dimension_cuts)
    cx = report["literal_counterexample"]
    assert cx["size"] == 4
    assert not cx["is_incident_pair_cut"]
    assert cx["contains_vertex_star"]
    assert not cx["connected_after"]


def test_super_connectivity_q4_sampled_passes():
    report = super_connectivity_report(4, samples=20_000, seed=3)
    assert report["mode"] == "sampled"
    assert report["passed"]
    assert report["counts"]["other"] > 0
    assert report["counts"] == {"incident_pair": 1, "contains_star": 136, "other": 19863}


def test_super_connectivity_rejects_an_empty_sample():
    for samples in (0, -1):
        with pytest.raises(ParameterError):
            super_connectivity_report(4, samples=samples)


def test_super_connectivity_q3_takes_no_sample_size_or_seed():
    # n = 3 is checked exhaustively, so either value would be ignored.
    for options in ({"seed": 5}, {"samples": 7}):
        with pytest.raises(ParameterError, match="exhaustively"):
            super_connectivity_report(3, **options)


def test_trivial_conditional_sets_never_disconnect():
    for n in (3, 4):
        assert verify_trivial_conditional_connected(n)


def test_chain_values_on_q3():
    q3 = hypercube(3)
    assert solve(q3, MP).value == 3
    assert solve(q3, mp_s(1)).value == 4
    assert solve(q3, mp_s(2)).value == 4
    assert solve(q3, mp_s(3)).value == 4
    assert brute_force_solve(q3, mp_s(1), limit=12).value == 4
