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
from typing import Iterable, Sequence

from .errors import ParameterError, PreconditionError, ReductionError
from .graphs import EdgeSet, Graph, edge_ids, random_bipartite_with_pm, with_bipartition
from .matching import has_perfect_matching
from .solver import (
    AK,
    INFINITY,
    MP,
    ProblemKind,
    brute_force_solve,
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

    @property
    def t(self) -> int:
        return self.source.n // 2

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
    if k < 0:
        raise ParameterError(f"budget must be >= 0, got {k}")
    if len(dead) > k + 1:
        raise PreconditionError(f"gadget fault set has {len(dead)} edges, budget allows {k + 1}")
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
    right_ak: bool    # ak(gadget) <= k + 1
    right_mps: bool   # mp_s(gadget) <= k + 1
    agree: bool


def _gadget_values(r: ReductionInstance, kinds: Sequence[ProblemKind]) -> list[float]:
    """Exact gadget values in the order of ``kinds``, from one oracle sweep."""
    found = first_qualifying_subsets(r.gadget, kinds)
    return [len(found[kind][1]) if kind in found else INFINITY for kind in kinds]


def verify_equivalence(g: Graph, k: int, s: int = 1) -> EquivalenceCheck:
    """Check, purely with the brute-force oracle, that mp(G) <= k iff
    ak(G') <= k+1 iff mp_s(G') <= k+1 for the gadget G' of ``g``."""
    if k < 0:
        raise ParameterError(f"budget must be >= 0, got {k}")
    if s < 1:
        raise ParameterError(f"restriction level must be >= 1, got {s}")
    r = build_reduction(g)
    mp_value = brute_force_solve(g, MP, limit=g.m).value
    ak_value, mps_value = _gadget_values(r, [AK, mp_s(s)])
    left = mp_value <= k
    right_ak = ak_value <= k + 1
    right_mps = mps_value <= k + 1
    return EquivalenceCheck(left, right_ak, right_mps,
                            agree=(left == right_ak == right_mps))


def fuzz_equivalence(seed: int = 0, count: int = 200, s_values: Sequence[int] = (1, 2),
                     t_max: int = 5) -> dict:
    """Equivalence fuzzing: ``count`` seeded random balanced bipartite
    sources with planted perfect matchings, every budget k from 0 to |E|,
    each configured restriction level. Returns a report, with its seed and
    any disagreements found."""
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    if not s_values:
        raise ParameterError("s_values must name at least one restriction level")
    if any(s < 1 for s in s_values):
        raise ParameterError(f"restriction levels must be >= 1, got {list(s_values)}")
    if t_max < 1:
        raise ParameterError(f"t_max must be >= 1, got {t_max}")
    rng = random.Random(seed)
    disagreements = []
    checks = 0
    for index in range(count):
        t = rng.randint(1, t_max)
        prob = rng.choice((0.0, 0.15, 0.3, 0.5))
        g = random_bipartite_with_pm(t, prob, seed=rng.randrange(2**32))
        r = build_reduction(g)
        mp_value = brute_force_solve(g, MP, limit=g.m).value
        ak_value, *mps_values = _gadget_values(r, [AK] + [mp_s(s) for s in s_values])
        for k in range(g.m + 1):
            left = mp_value <= k
            right_ak = ak_value <= k + 1
            for s, mps_value in zip(s_values, mps_values):
                checks += 1
                right_mps = mps_value <= k + 1
                if not (left == right_ak == right_mps):
                    disagreements.append({
                        "index": index,
                        "t": t,
                        "edges": [list(e) for e in g.edges],
                        "k": k,
                        "s": s,
                        "left": left,
                        "right_ak": right_ak,
                        "right_mps": right_mps,
                    })
    return {
        "seed": seed,
        "instances": count,
        "s_values": list(s_values),
        "checks": checks,
        "disagreements": disagreements,
        "passed": not disagreements,
    }
