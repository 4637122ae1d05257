"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.

Criterion 8a is expected to fail: the corrected connectivity statement
(exclude incident-pair cuts and vertex-star supersets) is still falsified on
the 3-cube by its three dimension cuts, whose size 2^(n-1) coincides with
2n-2 exactly at n=3. The suite asserts the criterion as stated and reports
the counterexamples rather than weakening the check.
"""

import json
import os
import random
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

from preclusion import (
    EdgeSet,
    MP,
    brute_force_matching_number,
    brute_force_solve,
    chain_suite,
    compute_v_e,
    cycle,
    fuzz_equivalence,
    hypercube,
    is_matching_preclusion_set,
    is_s_restricted_set,
    matching_number,
    mp_s,
    petersen,
    random_graph,
    solve,
    star_plus_padding_counterexample,
    super_connectivity_report,
    verify_mps_hypercube,
    verify_trivial_conditional_connected,
)
from preclusion.cubes import lemma_report_conditional_sets
from preclusion.graphs import find_bipartition
from conftest import random_corpus


def report_line(criterion: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status}" + (f" ({detail})" if detail else ""))
    return ok


def test_criterion_1_mp_of_hypercubes():
    results = {}
    elapsed = {}
    for n in (3, 4):
        start = time.perf_counter()
        cert = solve(hypercube(n), MP)
        elapsed[n] = time.perf_counter() - start
        results[n] = cert.value
    values_ok = results == {3: 3, 4: 4}
    time_ok = all(seconds < 60 for seconds in elapsed.values())

    q3 = hypercube(3)
    stars = {frozenset(q3.incident(v)) for v in range(q3.n)}
    witnesses_ok = True
    for combo in combinations(range(q3.m), 3):
        if is_matching_preclusion_set(q3, EdgeSet(q3, combo)):
            witnesses_ok &= frozenset(combo) in stars
    ok = values_ok and time_ok and witnesses_ok
    assert report_line(
        "1", ok,
        f"mp(Q3)={results[3]}, mp(Q4)={results[4]}, "
        f"times={elapsed[3]:.2f}s/{elapsed[4]:.2f}s, all optimal Q3 witnesses are stars={witnesses_ok}")


def test_criterion_2_conditional_preclusion_of_hypercubes():
    v3 = solve(hypercube(3), mp_s(1)).value
    v3_oracle = brute_force_solve(hypercube(3), mp_s(1), limit=12).value
    v4 = solve(hypercube(4), mp_s(1)).value
    ok = (v3 == 4 and v3_oracle == 4 and v4 == 6)
    assert report_line("2", ok, f"mp_1(Q3)={v3} (oracle {v3_oracle}), mp_1(Q4)={v4}")


def test_criterion_3_restricted_preclusion_of_hypercubes():
    exact_ok = True
    for n, s in ((3, 2), (3, 3), (4, 2), (5, 2)):
        cert = verify_mps_hypercube(n, s)  # budgeted lower bound + construction
        direct = solve(hypercube(n), mp_s(s)).value
        exact_ok &= cert.value == direct == 2 * n - 2
        exact_ok &= "exhaustively" in cert.note
    upper_ok = True
    for n in (6, 7, 8):
        cert = verify_mps_hypercube(n, 2)
        upper_ok &= cert.value == 2 * n - 2
        upper_ok &= "cited" in cert.note  # labeled as construction-only
        upper_ok &= is_s_restricted_set(hypercube(n), cert.witness, 2)
    ok = exact_ok and upper_ok
    assert report_line(
        "3", ok,
        f"exact n=3 (s=2,3), n=4 and n=5 (s=2): {exact_ok}; "
        f"labeled upper bounds n=6..8: {upper_ok}")


def test_criterion_4_optimal_conditional_sets_are_trivial():
    start = time.perf_counter()
    report = lemma_report_conditional_sets(3)
    seconds = time.perf_counter() - start
    ok = (report["passed"] and report["subsets_checked"] == 495 and seconds < 10)
    assert report_line(
        "4", ok,
        f"{report['conditional_sets']} conditional sets among 495 subsets, "
        f"all trivial, {seconds:.2f}s")


def test_criterion_5_reduction_equivalence():
    out = fuzz_equivalence(seed=20260810, count=200)
    ok = out["passed"] and out["instances"] >= 200 and out["s_values"] == [1, 2]
    assert report_line(
        "5", ok,
        f"{out['instances']} sources, {out['checks']} (k, s) checks, "
        f"{len(out['disagreements'])} disagreements")


def test_criterion_6_monotone_chain():
    out = chain_suite(seed=606, count=100)
    ok = out["passed"] and out["instances"] >= 100 and out["max_s"] == 3
    assert report_line(
        "6", ok, f"{out['instances']} graphs, {len(out['violations'])} violations")


def test_criterion_7_conditional_bound_by_v_e():
    rng = random.Random(700)
    checked = 0
    violations = []
    while checked < 100:
        n = rng.choice((6, 8))
        m = rng.randint((3 * n + 1) // 2, min(16, n * (n - 1) // 2))
        g = random_graph(n, m, seed=rng.randrange(2**32))
        if g.min_degree() < 3:
            continue
        checked += 1
        bound = compute_v_e(g)
        value = solve(g, mp_s(1)).value
        if not value <= bound:
            violations.append((g.edges, value, bound))
    ok = checked >= 100 and not violations
    assert report_line("7", ok, f"{checked} graphs with min degree >= 3, {len(violations)} violations")


def test_criterion_8a_corrected_connectivity_q3_exhaustive():
    report = super_connectivity_report(3)
    ok = report["passed"]
    report_line(
        "8a", ok,
        f"corrected form over all 495 subsets of Q3: "
        f"{len(report['corrected_failures'])} counterexamples {report['corrected_failures']}")
    assert ok, (
        "spec defect: the corrected connectivity statement (exclude I(uv) and "
        "star supersets) is still false on Q3 - the three dimension cuts "
        f"{report['corrected_failures']} have size 2n-2=4, are no incident-pair "
        "cuts, contain no vertex star, and split Q3 into two 4-cycles. "
        "2^(n-1) = 2n-2 only at n=3, so Q4 and beyond are unaffected.")


def test_criterion_8b_corrected_connectivity_q4_sampled():
    report = super_connectivity_report(4, seed=808, count=100_000)
    ok = report["passed"] and report["checked"] >= 100_000
    assert report_line(
        "8b", ok,
        f"{report['checked']} sampled size-6 subsets of Q4, "
        f"{len(report['corrected_failures'])} counterexamples")


def test_criterion_8c_literal_counterexample_reproduced():
    g, cx = star_plus_padding_counterexample(3)
    from preclusion import check_connected_after, incident_pair_set
    pair_cuts = {frozenset(incident_pair_set(g, eid).members) for eid in range(g.m)}
    ok = (
        len(cx) == 4
        and frozenset(cx.members) not in pair_cuts
        and not check_connected_after(g, cx)
    )
    in_report = super_connectivity_report(3)["literal_counterexample"]
    ok &= in_report["contains_vertex_star"] and not in_report["connected_after"]
    assert report_line(
        "8c", ok, f"star-plus-padding fault {sorted(cx.members)} reported and disconnects Q3")


def test_criterion_8d_trivial_conditional_sets_leave_cube_connected():
    ok = all(verify_trivial_conditional_connected(n) for n in (3, 4, 5, 6))
    assert report_line("8d", ok, "all trivial conditional sets, n = 3..6")


def test_criterion_9_matching_oracle_equivalence():
    corpus = random_corpus(498, seed=909, max_edges=20) + [petersen(), cycle(9)]
    non_bipartite = sum(1 for g in corpus if find_bipartition(g) is None)
    mismatches = 0
    for g in corpus:
        if matching_number(g) != brute_force_matching_number(g):
            mismatches += 1
    ok = len(corpus) >= 500 and mismatches == 0 and non_bipartite >= 100
    assert report_line(
        "9", ok,
        f"{len(corpus)} graphs ({non_bipartite} non-bipartite), {mismatches} mismatches")


def _run_cli(*argv: str) -> tuple[int, str]:
    # The child finds this checkout's package as the tests do.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "preclusion.cli", *argv],
        capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout


def _strip_timing(report_text: str) -> str:
    payload = json.loads(report_text)
    payload.pop("timing", None)
    return json.dumps(payload, sort_keys=True)


def test_criterion_10_deterministic_reports_across_jobs():
    suites = [
        ("verify", "hypercube", "3", "2"),
        ("verify", "lemma4", "3"),
        ("verify", "lemma5", "3"),
        ("verify", "chain", "5", "25"),
        ("verify", "reduction-fuzz", "7", "20"),
    ]
    ok = True
    details = []
    for suite in suites:
        outputs = []
        codes = set()
        for jobs in ("1", "4"):
            for _ in range(2):
                code, out = _run_cli(*suite, "--deterministic", "--jobs", jobs)
                codes.add(code)
                outputs.append(_strip_timing(out))
        identical = len(set(outputs)) == 1
        ok &= identical and len(codes) == 1
        details.append(f"{suite[1]}:{'ok' if identical else 'DIFFERS'}")
    assert report_line("10", ok, ", ".join(details))
