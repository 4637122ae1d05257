"""The gadget construction tying matching preclusion to the anti-Kekule and
restricted preclusion problems, with witness transport in both directions."""

from preclusion import (
    EdgeSet,
    MP,
    backward_extract,
    brute_force_solve,
    build_reduction,
    forward_witness,
    fuzz_equivalence,
    is_anti_kekule_set,
    random_bipartite_with_pm,
    verify_equivalence,
)

source = random_bipartite_with_pm(3, 0.4, seed=11)
r = build_reduction(source)
print(f"source: {source.n} vertices / {source.m} edges")
print(f"gadget: {r.gadget.n} vertices / {r.gadget.m} edges"
      f" (added u'={r.u_prime}, u''={r.u_dprime}, v'={r.v_prime}, v''={r.v_dprime})")
print(f"distinguished edges: e={r.gadget.edges[r.edge_e]}, e'={r.gadget.edges[r.edge_e_prime]}")

mp_cert = brute_force_solve(source, MP, limit=source.m)
print(f"\nmp(source) = {mp_cert.value}")

lifted = forward_witness(r, mp_cert.witness)
print(f"lifted witness {sorted(lifted.members)} is an anti-Kekule set of the gadget:",
      is_anti_kekule_set(r.gadget, lifted))

k = int(mp_cert.value)
extracted = backward_extract(r, lifted, k)
print(f"extracted back a preclusion set of size {len(extracted)} <= {k}:",
      sorted(extracted.members))

print("\nequivalence at every budget k (oracle on both sides):")
for k in range(source.m + 1):
    eq = verify_equivalence(source, k)
    print(f"  k={k}: mp<=k {str(eq.left):5}  ak(G')<=k+1 {str(eq.right_ak):5}"
          f"  mp_1(G')<=k+1 {str(eq.right_mps):5}  agree={eq.agree}")

out = fuzz_equivalence(seed=2, count=30)
print(f"\nfuzz: {out['instances']} random sources, {out['checks']} checks,"
      f" disagreements: {len(out['disagreements'])}")
