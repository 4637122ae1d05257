"""Hypercube fault tolerance end to end: incident cuts, the 2-path bound,
exhaustive structure of optimal conditional sets, connectivity after faults
(including the surprises), and the restricted preclusion value 2n-2, which
orbit bans let the solver prove on Q5 without a budget."""

from preclusion import (
    check_connected_after,
    compute_v_e,
    hypercube,
    incident_pair_set,
    mp_s,
    solve,
    star_plus_padding_counterexample,
    super_connectivity_report,
    trivial_conditional_set,
    two_paths,
    verify_mps_hypercube,
)
from preclusion.cubes import lemma_report_conditional_sets

for n in (3, 4, 5):
    q = hypercube(n)
    print(f"Q{n}: |I(uv)| = {len(incident_pair_set(q, 0))} = 2n-2,"
          f" v_e = {compute_v_e(q)}")

print("\nexhaustive structure of optimal conditional preclusion sets in Q3:")
rep = lemma_report_conditional_sets(3)
print(f"  {rep['subsets_checked']} subsets of size 4 checked,"
      f" {rep['conditional_sets']} are conditional preclusion sets,"
      f" all trivial: {rep['passed']}")

print("\nconnectivity after a fault of size 2n-2 in Q3:")
g, cx = star_plus_padding_counterexample(3)
print(f"  star-plus-padding fault {sorted(cx.members)} disconnects:",
      not check_connected_after(g, cx))
rep = super_connectivity_report(3)
print(f"  corrected form (no I(uv), no star superset) still fails on"
      f" {len(rep['corrected_failures'])} fault sets: the dimension cuts")
for fault in rep["corrected_failures"]:
    print(f"    {fault} -> two disjoint 4-cycles")
rep4 = super_connectivity_report(4, seed=1, count=20_000)
print(f"  Q4, {rep4['checked']} sampled faults of size 6: corrected form holds:"
      f" {rep4['passed']} (dimension cuts have size 8 > 6 there)")

q3 = hypercube(3)
tcs = trivial_conditional_set(q3, next(two_paths(q3)))
print(f"\ntrivial conditional sets always leave the cube connected:"
      f" {check_connected_after(q3, tcs)}")

print("\nrestricted preclusion value of the n-cube:")
for n, s in ((3, 2), (4, 2), (5, 2), (6, 2)):
    cert = verify_mps_hypercube(n, s)
    print(f"  mp_{s}(Q{n}) = {cert.value}; {cert.note}")

q5 = hypercube(5)
cert = solve(q5, mp_s(1))
stats = cert.stats
print(f"\nsolve(Q5, mp_1) without a budget: value {cert.value} = 2n-2 in {stats['nodes']} nodes;"
      f" {stats['automorphisms']} checked automorphisms banned {stats['orbit_bans']} edges"
      f" as images of refuted branches")
