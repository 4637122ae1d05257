"""Hypercube-specific constructions and verifications: incident-edge cuts,
trivial conditional preclusion sets, the 2-path degree bound, the
super-edge-connectivity check in its corrected form, and the restricted
preclusion value 2n-2.

The corrected connectivity statement tested here excludes fault sets that
contain a full vertex star: the literal "anything other than an
incident-pair cut leaves the cube connected" version is falsified by a star
plus padding edges, and that counterexample is constructed and reported
rather than hidden.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from itertools import combinations
from math import comb
from typing import Iterator, Optional

from .errors import BudgetError, ParameterError, PreclusionError
from .graphs import EdgeSet, Graph, check_int, components, edge_ids, hypercube
from .solver import (
    AK,
    PreclusionCertificate,
    evidence_for,
    is_s_restricted_set,
    mp_s,
    precluding_subsets,
    solve,
)

__all__ = [
    "TwoPath",
    "two_paths",
    "incident_pair_set",
    "trivial_conditional_set",
    "compute_v_e",
    "check_connected_after",
    "lemma_report_conditional_sets",
    "verify_mps_hypercube",
    "hypercube_report",
    "star_plus_padding_counterexample",
    "super_connectivity_report",
    "verify_trivial_conditional_connected",
]


@dataclass(frozen=True)
class TwoPath:
    """A path u-w-v of length two; u and v are its degree-endpoint pair."""

    u: int
    w: int
    v: int


def two_paths(g: Graph) -> Iterator[TwoPath]:
    """All 2-paths of ``g``, enumerated by middle vertex then endpoint pair."""
    for w in range(g.n):
        nbrs = g.neighbors(w)
        for u, v in combinations(nbrs, 2):
            yield TwoPath(u, w, v)


def _check_two_path(g: Graph, p: TwoPath) -> None:
    for x in (p.u, p.w, p.v):
        check_int(x, "2-path vertex", 0)
    if p.u == p.v:
        raise ParameterError("2-path endpoints must differ")
    if not (g.has_edge(p.u, p.w) and g.has_edge(p.w, p.v)):
        raise ParameterError(f"{p} is not a 2-path of the graph")


def incident_pair_set(g: Graph, edge_id: int) -> EdgeSet:
    """I(uv) = I(u) union I(v) minus {uv}; size 2n-2 on the n-cube."""
    check_int(edge_id, "edge_id", 0)
    (eid,) = edge_ids(g, (edge_id,))
    u, v = g.edges[eid]
    return EdgeSet(g, (g.incident(u) | g.incident(v)) - {eid})


def trivial_conditional_set(g: Graph, p: TwoPath) -> EdgeSet:
    """All edges incident to the endpoints of the 2-path except the path's
    own two edges; deleting it strands u and v as pendants of w."""
    _check_two_path(g, p)
    keep = {g.edge_id(p.u, p.w), g.edge_id(p.w, p.v)}
    return EdgeSet(g, (g.incident(p.u) | g.incident(p.v)) - keep)


def compute_v_e(g: Graph) -> Optional[int]:
    """min over 2-paths u-w-v of d(u) + d(v) - 2 - [u adjacent to v];
    ``None`` when the graph has no 2-path at all."""
    best: Optional[int] = None
    for p in two_paths(g):
        value = g.degree(p.u) + g.degree(p.v) - 2 - (1 if g.has_edge(p.u, p.v) else 0)
        if best is None or value < best:
            best = value
    return best


def check_connected_after(g: Graph, f: EdgeSet) -> bool:
    return AK.side_holds(components(g, without=f))


# The 1-restricted rule. On Q_n it fails exactly when F holds every edge at
# some vertex, which deleting F isolates: the vertex-star test of the lemmas.
_NO_STAR = mp_s(1)


# ---------------------------------------------------------------------------
# Optimal conditional preclusion sets (exhaustive structure check)
# ---------------------------------------------------------------------------

def lemma_report_conditional_sets(n: int, allow_slow: bool = False) -> dict:
    """Enumerate every edge subset of size 2n-2 in the n-cube, filter the
    conditional (1-restricted) preclusion sets, and test whether each one is
    the trivial set of some 2-path. Exhaustive: n=3 always, n=4 only behind
    ``allow_slow`` (about 9 * 10^5 subsets)."""
    check_int(n, "n", 3)
    if n == 4 and not allow_slow:
        raise BudgetError("n=4 enumerates ~9e5 subsets; pass allow_slow=True")
    if n not in (3, 4):
        raise BudgetError(f"exhaustive enumeration supported for n in (3, 4), got {n}")
    g = hypercube(n)
    size = 2 * n - 2
    trivial_sets = {frozenset(trivial_conditional_set(g, p).members) for p in two_paths(g)}
    conditional = 0
    nontrivial: list[list[int]] = []
    for _, combo in precluding_subsets(g, (size,)):
        if not _NO_STAR.side_holds(components(g, without=combo)):
            continue
        fault = frozenset(combo)
        conditional += 1
        if fault not in trivial_sets:
            nontrivial.append(sorted(fault))
    return {
        "n": n,
        "subset_size": size,
        "subsets_checked": comb(g.m, size),
        "conditional_sets": conditional,
        "trivial_sets": len(trivial_sets),
        "nontrivial_examples": nontrivial[:5],
        "passed": not nontrivial and conditional == len(trivial_sets),
    }


# ---------------------------------------------------------------------------
# Restricted preclusion number of the n-cube
# ---------------------------------------------------------------------------

def verify_mps_hypercube(n: int, s: int) -> PreclusionCertificate:
    """Certificate that the s-restricted preclusion number of the n-cube is
    2n-2.

    The upper bound is always verified by constructing a trivial conditional
    set and checking the predicate. The matching lower bound is established
    exhaustively (budgeted branch-and-bound) for n in {3, 4, 5}; for larger
    n it is cited, and the certificate's note says so. A set below 2n-2 that
    the search finds refutes the bound: it is returned as the certificate,
    with a note saying so.
    """
    check_int(n, "n", 3)
    check_int(s, "s", 2)
    if s.bit_length() > n:  # s > 2**n - 1, without building 2**n
        raise ParameterError(
            f"restriction level {s} outside the satisfiable range 2..{2**n - 1}")
    g = hypercube(n)
    value = 2 * n - 2
    witness = trivial_conditional_set(g, next(two_paths(g)))
    if not is_s_restricted_set(g, witness, s):
        raise PreclusionError(
            f"trivial conditional set failed the {s}-restricted predicate on Q_{n}")
    if n <= 5:
        lower = solve(g, mp_s(s), budget=value - 1)
        if lower.feasible:
            return replace(lower, note=f"lower bound {value} refuted by a set of size {lower.value}")
        note = f"lower bound verified exhaustively (no qualifying set of size <= {value - 1})"
    else:
        note = "upper bound verified by construction; lower bound cited, not re-derived"
    return PreclusionCertificate(mp_s(s), value, witness, evidence_for(g, witness),
                                 note=note)


def hypercube_report(n: int, s: int) -> dict:
    """The ``verify hypercube`` suite: :func:`verify_mps_hypercube`'s
    certificate, which passes when its value is the theorem's 2n-2."""
    cert = verify_mps_hypercube(n, s)
    expected = 2 * n - 2
    return {"n": n, "s": s, "expected": expected, "certificate": cert.to_dict(),
            "passed": cert.value == expected}


# ---------------------------------------------------------------------------
# Super edge connectivity (corrected form) and its literal counterexample
# ---------------------------------------------------------------------------

def star_plus_padding_counterexample(n: int) -> tuple[Graph, EdgeSet]:
    """A fault set of size 2n-2 that is no incident-pair cut yet disconnects
    the n-cube: the full star of vertex 0 plus n-2 edges far from it. This
    falsifies the literal form of the connectivity statement and motivates
    the corrected form tested by :func:`super_connectivity_report`."""
    check_int(n, "n", 3)
    g = hypercube(n)
    near = {0} | set(g.neighbors(0))
    padding = []
    for eid, (u, v) in enumerate(g.edges):
        if u not in near and v not in near:
            padding.append(eid)
            if len(padding) == n - 2:
                break
    return g, EdgeSet(g, set(g.incident(0)) | set(padding))


def _incident_pair_cuts(g: Graph) -> set[frozenset[int]]:
    return {frozenset(incident_pair_set(g, eid).members) for eid in range(g.m)}


def super_connectivity_report(n: int, seed: Optional[int] = None,
                              count: Optional[int] = None) -> dict:
    """Check the corrected connectivity statement on size-(2n-2) fault sets:
    every fault set that is neither an incident-pair cut nor a superset of a
    vertex star leaves the n-cube connected. Exhaustive for n=3, which takes
    neither ``seed`` nor ``count``; otherwise seeded random sampling of
    ``count`` sets (default seed 0, 100,000 sets), reported with its seed.
    The literal-form counterexample is rebuilt and reported alongside, and
    ``passed`` also requires :func:`verify_trivial_conditional_connected`."""
    check_int(n, "n", 3)
    if n == 3 and (seed is not None or count is not None):
        raise ParameterError("n=3 is checked exhaustively and takes no seed or count")
    seed = 0 if seed is None else seed
    count = 100_000 if count is None else count
    check_int(count, "count", 1)
    g = hypercube(n)
    size = 2 * n - 2
    pair_cuts = _incident_pair_cuts(g)
    failures: list[list[int]] = []
    counts = {"incident_pair": 0, "contains_star": 0, "other": 0}
    if n == 3:
        corpus = combinations(range(g.m), size)
        mode = "exhaustive"
        checked = comb(g.m, size)
    else:
        rng = random.Random(seed)
        corpus = (tuple(sorted(rng.sample(range(g.m), size))) for _ in range(count))
        mode = "sampled"
        checked = count
    for combo in corpus:
        fault = frozenset(combo)
        if fault in pair_cuts:
            counts["incident_pair"] += 1
            continue
        rep = components(g, without=fault)
        if not _NO_STAR.side_holds(rep):
            counts["contains_star"] += 1
            continue
        counts["other"] += 1
        if not rep.connected:
            failures.append(sorted(fault))

    cx_graph, cx = star_plus_padding_counterexample(n)
    cx_rep = components(cx_graph, without=cx)
    counterexample = {
        "edges": [list(cx_graph.edges[eid]) for eid in sorted(cx.members)],
        "size": len(cx),
        "is_incident_pair_cut": frozenset(cx.members) in pair_cuts,
        "contains_vertex_star": not _NO_STAR.side_holds(cx_rep),
        "connected_after": cx_rep.connected,
    }
    report = {
        "n": n,
        "fault_size": size,
        "mode": mode,
        "checked": checked,
        "counts": counts,
        "corrected_failures": failures[:5],
        "literal_counterexample": counterexample,
        "trivial_conditional_sets_leave_connected": verify_trivial_conditional_connected(n),
    }
    report["passed"] = not failures and report["trivial_conditional_sets_leave_connected"]
    if mode == "sampled":
        report["seed"] = seed
    return report


def verify_trivial_conditional_connected(n: int) -> bool:
    """Every trivial conditional preclusion set leaves the n-cube connected."""
    check_int(n, "n", 3)
    g = hypercube(n)
    return all(
        check_connected_after(g, trivial_conditional_set(g, p)) for p in two_paths(g)
    )
