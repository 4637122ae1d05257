"""Executable polynomial-time reduction from matching preclusion on balanced
bipartite graphs to the anti-Kekule / s-restricted preclusion problems, with
empirical verifiers for both directions of the equivalence.

Given a bipartite source with sides U, V of size t and a perfect matching,
the gadget adds four vertices u', u'', v', v'': u' is joined to all of V,
v' to all of U, and the four newcomers form a 4-cycle u'v', u'v'', u''v',
u''v''. The distinguished edges are e = u''v'' and e' = u'v'. Source edges
keep their indices in the gadget, so intersecting a gadget fault set with
the source edge range is an index filter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

from .errors import PreconditionError, ReductionError
from .graphs import EdgeSet, Graph, check_int, edge_ids, random_bipartite_with_pm, with_bipartition
from .matching import has_perfect_matching
from .solver import (
    AK,
    INFINITY,
    MP,
    first_qualifying_subsets,
    is_matching_preclusion_set,
    is_s_restricted_set,
    mp_s,
    trivial_mp_set,
)

__all__ = [
    "ReductionInstance",
    "EquivalenceCheck",
    "build_reduction",
    "forward_witness",
    "backward_extract",
    "verify_equivalence",
    "fuzz_equivalence",
]


@dataclass(frozen=True)
class ReductionInstance:
    """A source graph together with its gadget and the added structure."""

    source: Graph
    gadget: Graph
    u_prime: int
    u_dprime: int
    v_prime: int
    v_dprime: int
    edge_e: int         # index of u''v'' in the gadget
    edge_e_prime: int   # index of u'v' in the gadget

    def k_map(self, k: int) -> int:
        """Budget translation of the reduction: k on the source side becomes
        k + 1 on the gadget side."""
        return k + 1


def build_reduction(g: Graph) -> ReductionInstance:
    """Construct the gadget for a balanced bipartite source with a perfect
    matching. Raises :class:`PreconditionError` otherwise."""
    g = with_bipartition(g)
    if g.bipartition is None:
        raise PreconditionError("source graph is not bipartite")
    side_u = [v for v in range(g.n) if g.bipartition[v] == 0]
    side_v = [v for v in range(g.n) if g.bipartition[v] == 1]
    if len(side_u) != len(side_v):
        raise PreconditionError(
            f"bipartition sides must be balanced, got {len(side_u)} and {len(side_v)}")
    if not has_perfect_matching(g):
        raise PreconditionError("source graph has no perfect matching")

    n = g.n
    u_prime, u_dprime, v_prime, v_dprime = n, n + 1, n + 2, n + 3
    edges = list(g.edges)
    edges.extend((u_prime, v) for v in side_v)
    edges.extend((u, v_prime) for u in side_u)
    edges.append((u_prime, v_prime))
    edges.append((u_prime, v_dprime))
    edges.append((u_dprime, v_prime))
    edges.append((u_dprime, v_dprime))
    sides = list(g.bipartition) + [0, 0, 1, 1]
    gadget = Graph(n + 4, edges, bipartition=sides)
    return ReductionInstance(
        source=g,
        gadget=gadget,
        u_prime=u_prime,
        u_dprime=u_dprime,
        v_prime=v_prime,
        v_dprime=v_dprime,
        edge_e=gadget.edge_id(u_dprime, v_dprime),
        edge_e_prime=gadget.edge_id(u_prime, v_prime),
    )


def forward_witness(r: ReductionInstance, b: Iterable[int]) -> EdgeSet:
    """Lift a matching preclusion set B of the source to B' = B + {e}, an
    anti-Kekule (and s-restricted preclusion) set of the gadget."""
    dead = edge_ids(r.source, b)
    if not is_matching_preclusion_set(r.source, dead):
        raise PreconditionError("edge set is not a matching preclusion set of the source")
    return EdgeSet(r.gadget, dead | {r.edge_e})


def backward_extract(r: ReductionInstance, b_prime: Iterable[int], k: int) -> EdgeSet:
    """Extract a matching preclusion set of the source of size <= k from an
    anti-Kekule or s-restricted preclusion set of the gadget of size <= k+1.

    Follows the constructive case analysis: if e is deleted, the restriction
    of B' to the source already works; otherwise the restriction is tried
    directly (shrunk by its smallest edge when it used the full k+1 budget),
    and failing that, the counting argument forces the maximum degree below
    k, so a trivial vertex star works. Any state outside this analysis
    raises :class:`ReductionError` rather than being repaired silently.
    """
    dead = edge_ids(r.gadget, b_prime)
    check_int(k, "k", 0)
    if len(dead) > r.k_map(k):
        raise PreconditionError(
            f"gadget fault set has {len(dead)} edges, budget allows {r.k_map(k)}")
    # Anti-Kekule sets and s>=1-restricted sets alike leave no perfect
    # matching and no isolated vertex, which is exactly the 1-restricted test.
    if not is_s_restricted_set(r.gadget, dead, 1):
        raise PreconditionError(
            "gadget fault set is not an anti-Kekule or restricted preclusion set")

    source = r.source
    restriction = frozenset(e for e in dead if e < source.m)
    candidate = EdgeSet(source, restriction)

    if r.edge_e in dead:
        if len(candidate) > k or not is_matching_preclusion_set(source, candidate):
            raise ReductionError("deleted-e case produced an invalid extraction")
        return candidate

    if is_matching_preclusion_set(source, candidate):
        if len(candidate) <= k:
            return candidate
        # B' lies entirely inside the source and used the whole budget;
        # dropping any one edge keeps nu(source - B) below perfect.
        shrunk = EdgeSet(source, restriction - {min(restriction)})
        if not is_matching_preclusion_set(source, shrunk):
            raise ReductionError("shrink-by-one case produced an invalid extraction")
        return shrunk

    # Restriction does not preclude: the counting argument gives t <= k, so
    # any vertex star fits the budget; take a maximum-degree vertex.
    degrees = [source.degree(v) for v in range(source.n)]
    vertex = max(range(source.n), key=lambda v: (degrees[v], -v))
    star = trivial_mp_set(source, vertex)
    if len(star) > k:
        raise ReductionError(
            f"trivial-set case needs {len(star)} edges but budget is {k}")
    if not is_matching_preclusion_set(source, star):
        raise ReductionError("trivial-set case produced an invalid extraction")
    return star


@dataclass(frozen=True)
class EquivalenceCheck:
    """One instance of the reduction equivalence at a given budget k."""

    left: bool        # mp(source) <= k
    right_ak: bool    # ak(gadget) <= k_map(k)
    right_mps: bool   # mp_s(gadget) <= k_map(k)
    agree: bool


def _oracle_values(g: Graph, s_values: Sequence[int]
                   ) -> tuple[ReductionInstance, float, float, list[float]]:
    """The gadget of ``g``, mp(g), ak(gadget) and mp_s(gadget) for each s in
    ``s_values``, all exact, from the subset sweep (one over ``g``, one over
    the gadget)."""
    r = build_reduction(g)
    # A kind that no subset qualifies for is infinite: for mp, a source whose
    # only perfect matching is the empty one (no vertices) cannot lose it.
    found = first_qualifying_subsets(g, [MP])
    mp_value = len(found[MP][1]) if MP in found else INFINITY
    kinds = [AK] + [mp_s(s) for s in s_values]
    found = first_qualifying_subsets(r.gadget, kinds)
    ak_value, *mps_values = (len(found[kind][1]) if kind in found else INFINITY
                             for kind in kinds)
    return r, mp_value, ak_value, mps_values


# EquivalenceCheck is frozen, so one instance per outcome serves every check.
_OUTCOMES = {sides: EquivalenceCheck(*sides, agree=len(set(sides)) == 1)
             for sides in product((False, True), repeat=3)}


def _compare(r: ReductionInstance, k: int, mp_value: float, ak_value: float,
             mps_values: Sequence[float]) -> list[EquivalenceCheck]:
    """The equivalence at budget k for each mp_s value, read off the exact
    values of :func:`_oracle_values`."""
    left, budget = mp_value <= k, r.k_map(k)
    right_ak = ak_value <= budget
    return [_OUTCOMES[left, right_ak, mps_value <= budget] for mps_value in mps_values]


def verify_equivalence(g: Graph, k: int, s: int = 1) -> EquivalenceCheck:
    """Check, purely with the brute-force oracle, that mp(G) <= k iff
    ak(G') <= k+1 iff mp_s(G') <= k+1 for the gadget G' of ``g``."""
    check_int(k, "k", 0)
    check_int(s, "s", 1)
    r, mp_value, ak_value, mps_values = _oracle_values(g, [s])
    return _compare(r, k, mp_value, ak_value, mps_values)[0]


def fuzz_equivalence(seed: int = 0, count: int = 200) -> dict:
    """Equivalence fuzzing: ``count`` seeded random balanced bipartite
    sources with planted perfect matchings, sides of 1 to 5 vertices, every
    budget k from 0 to |E|, restriction levels s = 1 and 2. Returns a
    report, with its seed, its levels and any disagreements found."""
    check_int(count, "count", 1)
    s_values = (1, 2)
    rng = random.Random(seed)
    disagreements = []
    checks = 0
    for index in range(count):
        t = rng.randint(1, 5)
        prob = rng.choice((0.0, 0.15, 0.3, 0.5))
        g = random_bipartite_with_pm(t, prob, seed=rng.randrange(2**32))
        r, mp_value, ak_value, mps_values = _oracle_values(g, s_values)
        for k in range(g.m + 1):
            for s, eq in zip(s_values, _compare(r, k, mp_value, ak_value, mps_values)):
                checks += 1
                if not eq.agree:
                    disagreements.append({
                        "index": index,
                        "t": t,
                        "edges": [list(e) for e in g.edges],
                        "k": k,
                        "s": s,
                        "left": eq.left,
                        "right_ak": eq.right_ak,
                        "right_mps": eq.right_mps,
                    })
    return {
        "seed": seed,
        "instances": count,
        "s_values": list(s_values),
        "checks": checks,
        "disagreements": disagreements,
        "passed": not disagreements,
    }
