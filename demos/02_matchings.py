"""Maximum matchings: one blossom search for bipartite and general graphs,
plus the exhaustive oracle that keeps it honest."""

from preclusion import (
    brute_force_matching_number,
    cycle,
    has_almost_perfect_matching,
    has_perfect_matching,
    hypercube,
    matching_number,
    max_matching,
    near_perfect_matching_masks,
    path,
    petersen,
)

q4 = hypercube(4)
m = max_matching(q4)  # bipartite: the search never meets a blossom
print(f"4-cube: matching number {m.size}, perfect: {has_perfect_matching(q4)}")

p = petersen()  # odd cycles: blossoms are contracted
print(f"Petersen: matching number {matching_number(p)},"
      f" oracle agrees: {matching_number(p) == brute_force_matching_number(p)}")

print(f"\nodd path P3: almost perfect matching: {has_almost_perfect_matching(path(3))}")
print(f"odd cycle C9: matching number {matching_number(cycle(9))} (blossoms at work)")

det = max_matching(hypercube(3), deterministic=True)
print(f"\ndeterministic tie-break on the 3-cube picks edges {sorted(det.edges.members)}"
      " (lexicographically smallest maximum matching)")

masks = near_perfect_matching_masks(hypercube(3))
print(f"\nthe 3-cube has {len(masks)} perfect matchings;"
      " any fault set that meets all of them precludes every one")
