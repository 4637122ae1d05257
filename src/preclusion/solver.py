"""Exact optimizers for matching preclusion, s-restricted matching
preclusion, and anti-Kekule numbers, with certificates.

The optimizer runs iterative deepening over decision budgets k, and stops
early once a round ends without the budget or the packing bound (below)
cutting any branch. Each search node holds a partial fault set F and a
maximum matching M of g - F; while M is still near-perfect, any feasible
superset of F must delete one of M's edges, so the node branches over them
(in increasing edge index, banning earlier siblings so no subset is visited
twice). Side conditions - minimum component size for the s-restricted
problem, connectivity for anti-Kekule - are one component floor
(``ProblemKind.component_floor``) and antitone under deletion, so a branch
dies as soon as one fails.

A solve has one root: g's maximum matching and side-rule status, computed
once; they also answer the INFINITY precheck. Every other node, lex-min
candidates included, is one deletion step from its parent. Deleting ab
keeps M maximum unless M uses ab; then one Edmonds search from a, then from
b, restores it. Only ab can split a component, so a search from a, then
from b, capped at the floor or stopped on meeting the other endpoint,
decides the rule. A lex-min candidate is a child of its fixed prefix, which
needs no side check: it is a subset of a qualifying set. The leaf that
returns the witness W holds a maximum matching of g - W, so the evidence's
nu is that leaf's, and only its components are computed afresh. The root's
packing (below) does not depend on k, so all deepening rounds share one:
each round extends it only past where earlier rounds stopped.

Every fault set below a node (fault set F, banned set B, room r = k - |F|)
is F + S with S avoiding B and |S| <= r. A greedy packing bound refutes
nodes without enumerating them: starting from the node's matching M_1, each
M_(i+1) is a near-perfect matching of g - F - (U_1 + ... + U_i), where
U_i = M_i - B is the part of M_i that S may still delete, grown from M_i by
augmenting paths. S must hit each M_i inside its own U_i, and the U_i are
disjoint, so more than r matchings refute the node at this k, and a matching
with an empty U_i refutes it at every k (the dimension-matching argument
behind mp(Q_n) = n; Brigham, Harary, Violin and Yellen, "Perfect-matching
preclusion", 2005). Only refuted subtrees are cut, so DFS order, values and
witnesses are those of the plain enumeration; ``stats["bound_prunes"]``
counts the k-dependent cuts, which keep deepening going like budget prunes.

A node hands its children its packing past M_1: its M_2, and each later
M_(i+1) that grew near-perfect. A child grows each M_(i+1) from its
parent's M_(i+1) less its own U_1..U_i, for as many i as its parent packed,
and from its own M_i less U_i after that. The parent's M_(i+1) avoids the
parent's F and U_1..U_i, and the parent's U_1 held the edge the child
deleted, so it avoids the child's F; less the child's U_1..U_i it is a
matching of g - F - (U_1 + ... + U_i), which is all a start must be. Every
packing found is a sound bound, and the start only decides which one is
found and how much ``maximize`` has to repair: the parent's matchings differ
from the child's near a few vertices, where M_i less U_i leaves most of the
graph free. M_1 and so the children are the node's own, so DFS order,
values and witnesses stay those of the plain enumeration; only which
subtrees the bound cuts, and so the ``stats`` counters, depend on the starts.

The children of a node at room 1 are leaves or budget prunes. When its
parent's M_2 is near-perfect it is a near-perfect matching of g - F, so the
node hands it on, and a child whose edge it avoids is no leaf: that child
counts as a node and a budget prune without its Edmonds search.

Orbital branching (Ostrowski, Linderoth, Rossi and Smriglio, "Orbital
branching", Math. Programming 126, 2011) stops the search from refuting
every symmetric image of a refuted branch again. Let Gamma be the
automorphisms of g that fix a node's F and B setwise. Once the node's
children e_1..e_i are refuted, no qualifying set of size <= k through F
avoiding B contains any of them: such a set either contains an earlier
child or ban, or lies below child e_i. Nor does one contain sigma(e_i) for
sigma in Gamma, since sigma^-1 maps it to a set of the same size through F
and e_i avoiding B, and automorphisms keep matchings and components. So the
node bans the Gamma-orbit of each refuted child for its later children. A
ban repeats a refutation of this round, so a round that no budget or bound
cut shaped makes bans that hold at every k, and the deepening stop rule
stays exact. The first qualifying set in DFS order contains no banned edge,
so the search still returns it. ``symmetry.automorphisms`` finds the
generators of Gamma and checks each one, and returns after one refinement
when that is discrete. Two fixed rules keep the cost where the search has
already spent as much: a node computes orbits only after a refuted child's
subtree took at least n // 2 nodes (the size of a perfect matching), and
orbits are cached per (F, B) for the solve. Pendant bans (below) shrink
refuted subtrees, so a gate of m nodes starved the bans: with it the
``hypercube`` benchmark's seed-1 instances took 11,519 nodes against 7,342
with neither rule, and Q4 mp_1 banned 31 edges by orbit instead of 71. A
gate of n nodes left too few runs banning at all; at n // 2 every benchmark
instance checked (``hypercube`` seeds 1-6, ``random`` seeds 1-3) takes no
more nodes than with neither rule, and seed 1's total is 4,381.
``stats["orbit_bans"]`` counts the edges banned beyond the refuted children
themselves, and ``stats["automorphisms"]`` the checked generators found.

Pendant bans. Under a component floor of 2 or more (``mp_s(s)`` with
s >= 1, and ``ak``) no qualifying set through F deletes the last live edge
of a vertex of g - F, since that isolates the vertex. So a node bans every
such edge: the root those of g's degree-1 vertices, any other node those at
the two ends of the edge it deleted, the only vertices that lost an edge
(its parent banned the rest). The cut is exact, and the other bans stay
sound with it in B: the pendant set is a function of F, so every
automorphism fixing F fixes it, and no qualifying set through F_d contains
it, so the lex-min pass may ban it or refute a candidate holding it. It
also strengthens the packing bound. Such an edge lies in every perfect
matching of g - F; in U_1 it left g - F - U_1 with an isolated vertex, and
on even order the packing at one matching, while banned it stays in every
M_i. With both rules, Q5 mp_1 at budget 7 takes 975 nodes instead of
2,267, its budget prunes fall from 458 to 1 and its side prunes from 90 to
0. ``stats["pendant_bans"]`` counts the edges banned so, node by node, like
``orbit_bans``.

The lex-min pass reuses the refutations of round k*, the round that found
the first set. Let node d on the path to that set hold F_d, and B_d, the
banned set it held when it descended: its inherited bans, its pendant
edges, its refuted earlier children and their orbits. The root bans only
edges that no qualifying set holds, so by the induction that makes sibling,
orbit and pendant bans exact, every qualifying set of
size <= k* through F_d avoids B_d, not only those that avoid d's inherited
bans. A lex-min candidate whose fault set holds F_d therefore bans B_d too,
and one whose fault set meets B_d is refuted without a search. At d = 0 this
skips the root's refuted children as position-0 candidates. These bans only
cut subtrees with no qualifying set of size k*, so the answer is unchanged;
since they change a candidate's banned set, they may change its Gamma and
so its ``orbit_bans`` and ``automorphisms`` counts.
``stats["lexmin_nodes"]`` counts the nodes the lex-min pass spent.

``brute_force_solve`` is the independent oracle: it enumerates edge subsets
in increasing cardinality and tests each against an exhaustive list of the
graph's near-perfect matchings, never calling the optimizer's matching
search. The gadget oracle and the hypercube lemma run the same sweep; only
the side rule, ``ProblemKind.side_holds``, is shared with the optimizer.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence

from .errors import OracleLimitError, ParameterError, PreconditionError
from .graphs import ComponentReport, EdgeSet, Graph, components, edge_ids, random_graph
from .matching import (
    augment_from,
    matching_number_excluding,
    maximize,
    maximum_matching_mates,
    near_perfect_matching_masks,
)

__all__ = [
    "INFINITY",
    "ORACLE_EDGE_LIMIT",
    "ProblemKind",
    "MP",
    "AK",
    "mp_s",
    "Evidence",
    "PreclusionCertificate",
    "evidence_for",
    "is_matching_preclusion_set",
    "is_s_restricted_set",
    "is_anti_kekule_set",
    "trivial_mp_set",
    "solve",
    "precluding_subsets",
    "first_qualifying_subsets",
    "brute_force_solve",
    "chain_suite",
]

INFINITY = math.inf
ORACLE_EDGE_LIMIT = 16


@dataclass(frozen=True)
class ProblemKind:
    """Which fault-set notion is being optimized: plain matching preclusion
    (``mp``), s-restricted (``mps``), or anti-Kekule (``ak``).

    ``mp_s(0)`` behaves identically to ``MP``: a component floor of one
    vertex constrains nothing.
    """

    name: str
    s: int = 0

    def __post_init__(self):
        if self.name not in ("mp", "mps", "ak"):
            raise ParameterError(f"unknown problem kind {self.name!r}")
        if self.s < 0:
            raise ParameterError(f"restriction level must be >= 0, got {self.s}")
        if self.name != "mps" and self.s != 0:
            raise ParameterError(f"kind {self.name!r} does not take a restriction level")

    def label(self) -> str:
        if self.name == "mps":
            return f"mp_{self.s}"
        return self.name

    def describe(self) -> str:
        if self.name == "mp":
            return "matching preclusion"
        if self.name == "mps":
            return f"{self.s}-restricted matching preclusion"
        return "anti-Kekule"

    @property
    def has_side_condition(self) -> bool:
        """False for ``mp`` and ``mp_s(0)``: no components needed."""
        return self.name == "ak" or self.s > 0

    def component_floor(self, n: int) -> int:
        """The side rule on an ``n``-vertex graph: the fewest vertices every
        component of g - F must keep. ``mps`` needs s + 1, ``ak`` needs n
        (g - F connected), ``mp`` needs nothing. The rule is antitone under
        further deletion."""
        if self.name == "mps":
            return self.s + 1
        if self.name == "ak":
            return n
        return 0

    def side_holds(self, rep: ComponentReport) -> bool:
        """Whether the components of g - F meet :meth:`component_floor`."""
        return rep.min_size >= self.component_floor(rep.n)


MP = ProblemKind("mp")
AK = ProblemKind("ak")


def mp_s(s: int) -> ProblemKind:
    return ProblemKind("mps", s)


@dataclass(frozen=True, slots=True)
class Evidence:
    """What the graph looks like after deleting a certificate's witness."""

    nu_after: int
    component_min_size: int
    connected: bool


@dataclass(frozen=True, slots=True)
class PreclusionCertificate:
    """Solver answer: optimal value (possibly infinite) plus a witness.

    ``value == INFINITY`` means no qualifying edge set exists (or none within
    the requested budget); ``reason`` says which. Finite certificates carry a
    witness of exactly ``value`` edges and post-deletion evidence.
    """

    kind: ProblemKind
    value: float
    witness: Optional[EdgeSet]
    evidence: Optional[Evidence]
    reason: Optional[str] = None
    note: Optional[str] = None
    stats: Optional[dict] = None

    @property
    def feasible(self) -> bool:
        return not math.isinf(self.value)


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

def is_matching_preclusion_set(g: Graph, f: Iterable[int]) -> bool:
    """True when g - f has neither a perfect nor an almost perfect matching,
    i.e. nu(g - f) <= floor(n/2) - 1."""
    return matching_number_excluding(g, f) <= g.n // 2 - 1


def is_s_restricted_set(g: Graph, f: Iterable[int], s: int) -> bool:
    """Matching preclusion with the extra demand that every component of
    g - f keeps at least s + 1 vertices."""
    kind = mp_s(s)
    dead = edge_ids(g, f)
    if matching_number_excluding(g, dead) > g.n // 2 - 1:
        return False
    return kind.side_holds(components(g, without=dead))


def is_anti_kekule_set(g: Graph, f: Iterable[int]) -> bool:
    """True when g - f stays connected but loses every perfect matching.
    Only defined on even order (Kekule structures are perfect matchings)."""
    dead = edge_ids(g, f)
    if g.n % 2 == 1:
        raise PreconditionError("anti-Kekule sets are defined for even-order graphs")
    if not AK.side_holds(components(g, without=dead)):
        return False
    return matching_number_excluding(g, dead) <= g.n // 2 - 1


def trivial_mp_set(g: Graph, v: int) -> EdgeSet:
    """I(v): all edges incident to ``v``. For even order this is always a
    matching preclusion set (v becomes isolated)."""
    if not 0 <= v < g.n:
        raise ParameterError(f"vertex {v} out of range for n={g.n}")
    return EdgeSet(g, g.incident(v))


def _infinity_without_search(kind: ProblemKind, near_perfect: bool, connected: bool,
                             stats: Optional[dict] = None) -> Optional[PreclusionCertificate]:
    """INFINITY when g has no near-perfect matching, or is disconnected for ak."""
    if not near_perfect:
        reason = "graph has neither a perfect nor an almost perfect matching"
    elif kind == AK and not connected:
        reason = "graph is disconnected; edge deletion cannot restore connectivity"
    else:
        return None
    return PreclusionCertificate(kind, INFINITY, None, None, reason=reason, stats=stats)


def _none_within(g: Graph, kind: ProblemKind, cap: Optional[int],
                 stats: dict) -> PreclusionCertificate:
    """INFINITY after a search found no set of size <= ``cap`` (None: any)."""
    if cap is not None and cap < g.m:
        reason = f"no {kind.describe()} set of size at most {cap} exists"
    else:
        reason = f"no {kind.describe()} set exists"
    return PreclusionCertificate(kind, INFINITY, None, None, reason=reason, stats=stats)


def evidence_for(g: Graph, witness: Iterable[int]) -> Evidence:
    """The evidence for ``witness``, recomputed from scratch: the
    independent route that ``brute_force_solve`` takes and that checks the
    evidence ``solve`` reads off its own search."""
    dead = edge_ids(g, witness)
    rep = components(g, without=dead)
    return Evidence(
        nu_after=matching_number_excluding(g, dead),
        component_min_size=rep.min_size,
        connected=rep.connected,
    )


# ---------------------------------------------------------------------------
# Branch-and-bound optimizer
# ---------------------------------------------------------------------------

class _Stats:
    """The search's counters, reported as ``stats`` under these names."""

    __slots__ = ("nodes", "budget_prunes", "side_prunes", "bound_prunes", "orbit_bans",
                 "pendant_bans", "automorphisms", "deepening_rounds", "lexmin_nodes")

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class _Search:
    """One solve's state: its root and the root's packing, its counters and
    its orbit cache."""

    def __init__(self, g: Graph, kind: ProblemKind):
        self.g = g
        self.has_side = kind.has_side_condition
        self.floor = kind.component_floor(g.n)
        self.threshold = g.n // 2 - 1
        # Pendant bans (module docstring) need a floor of 2; at the root they
        # are the edges of g's degree-1 vertices.
        self.pendant = self.floor >= 2
        self.root_pendant = frozenset(nbrs[0][1] for nbrs in g.adj if len(nbrs) == 1)
        # The orbit gate, in nodes: the size of a perfect matching.
        self.gate = g.n // 2
        self.mates = maximum_matching_mates(g)
        self.root_side = not self.has_side or kind.side_holds(components(g))
        # The root's packing (module docstring), kept across deepening rounds
        # as _dfs left it: M_2, M_3, ..., the deleted set and the cut list
        # U_1 + U_2 + ..., the children U_1, and whether the last M grew.
        self.root_packing: tuple[list[list[int]], set[int], list[int]] = ([], set(), [])
        self.root_children: Optional[list[int]] = None
        self.root_grew = True
        # nu(g - F) at the last leaf reached: the witness's, once one is found.
        self.leaf_nu = 0
        self.stats = _Stats()
        self.orbits: dict[tuple[frozenset[int], frozenset[int]], tuple[frozenset[int], ...]] = {}
        # (F, B) of each node above a set found, deepest first: its fault set
        # and the banned set it held when it descended towards that set.
        self.path: list[tuple[frozenset[int], frozenset[int]]] = []

    def _mates_after(self, dead: frozenset[int], parent_mates: list[int], removed: int) -> list[int]:
        # The parent's matching M was maximum, and stays so (shared, never
        # mutated) unless it uses the deleted edge ab, whose loss costs at
        # most one unit of nu. Any augmenting path for M - ab in g - dead
        # must end at a or b (one avoiding both would already augment M), so
        # one Edmonds search from a, then from b, restores maximality. When
        # M was perfect, a and b are the only free vertices, and a path from
        # b would end at a.
        a, b = self.g.edges[removed]
        if parent_mates[a] != b:
            return parent_mates
        mates = parent_mates.copy()
        mates[a] = mates[b] = -1
        if not augment_from(self.g, dead, mates, a) and -1 in parent_mates:
            augment_from(self.g, dead, mates, b)
        return mates

    def _side_holds(self, dead: frozenset[int], removed: Optional[int]) -> bool:
        """Whether g - dead meets the component floor. At the root
        (``removed`` None) that is g's status, cached by the constructor.
        Below it, g - (dead - ab) met the floor, where ab is the edge
        ``removed``, and deleting ab can only split the component of a and
        b: a search from a, then from b, that meets the other endpoint or
        collects ``floor`` vertices settles it."""
        if removed is None:
            return self.root_side
        adj = self.g.adj
        floor = self.floor
        ends = self.g.edges[removed]
        for src, dst in (ends, ends[::-1]):
            seen = {src}
            stack = [src]
            while stack and len(seen) < floor:
                for w, eid in adj[stack.pop()]:
                    if w not in seen and eid not in dead:
                        if w == dst:
                            return True
                        seen.add(w)
                        stack.append(w)
            if len(seen) < floor:
                return False
        return True

    def _dfs(self, fault: frozenset[int], banned: frozenset[int], mates: list[int],
             k: int, removed: Optional[int] = None,
             warm: Optional[tuple[list[int], ...]] = None) -> Optional[frozenset[int]]:
        """The first qualifying set of size <= ``k`` below the node that
        deletes the edge ``removed`` from its parent, which holds the fault
        set ``fault`` and the maximum matching ``mates`` (the root: no edge,
        and g's own), avoiding ``banned``; None if there is none. ``warm`` is
        the parent's packing (M_2, M_3, ...) or, at room 0, a tuple whose
        first entry is a near-perfect matching of g - F (module docstring)."""
        stats = self.stats
        stats.nodes += 1
        if removed is not None:
            a, b = self.g.edges[removed]
            if warm is not None and len(fault) + 1 == k and warm[0][a] != b:
                stats.budget_prunes += 1
                return None
            fault = fault | {removed}
            mates = self._mates_after(fault, mates, removed)
        room = k - len(fault)
        nu = (len(mates) - mates.count(-1)) // 2
        leaf = nu <= self.threshold
        if not leaf and room <= 0:
            stats.budget_prunes += 1
            return None
        # The side rule is antitone under further deletion, so a violation
        # at an internal node kills the whole branch. Below the root only
        # the edge just deleted needs checking.
        if self.has_side and not self._side_holds(fault, removed):
            stats.side_prunes += 1
            return None
        if leaf:
            self.leaf_nu = nu
            return fault
        # Pendant bans (module docstring): below the root only the ends of
        # the edge just deleted can have one live edge left.
        if self.pendant:
            if removed is None:
                pendant = self.root_pendant
            else:
                pendant = set()
                adj = self.g.adj
                for x in (a, b):
                    last = -1
                    for _, eid in adj[x]:
                        if eid not in fault:
                            if last != -1:
                                break
                            last = eid
                    else:
                        if last not in banned:
                            pendant.add(last)
            if pendant:
                stats.pendant_bans += len(pendant)
                banned = banned | pendant
        # The packing bound (module docstring): M_1 is the node's matching,
        # and its unbanned part U_1 holds the children. Each M_(i+1) starts
        # from the parent's M_(i+1) in warm, less U_1..U_i, while warm lasts
        # (with no warm: M_2 from M_1), and from M_i less U_i after that.
        # The root's packing does not depend on k, so each round resumes it
        # where the last one left it: listing the U of its last M again if
        # the room cut it there, past the end if an M failed.
        g = self.g
        edges = g.edges
        edge_to = g.edge_to
        odd = g.n % 2
        carried = (mates,) if warm is None else warm
        if removed is None:
            packings, dead, spent = self.root_packing
            children, grew = self.root_children, self.root_grew
        else:
            packings, dead, spent = [], set(fault), []
            children, grew = None, True
        packing = packings[-1] if packings else mates
        while grew:
            if len(packings) >= room:
                # The room cuts the node at this matching unless its U is
                # empty, which refutes it at every k: one unbanned edge tells.
                for v, w in enumerate(packing):
                    if w > v and edge_to[v][w] not in banned:
                        stats.bound_prunes += 1
                        break
                return None
            unbanned = [eid for v, w in enumerate(packing)
                        if w > v and (eid := edge_to[v][w]) not in banned]
            if not unbanned:
                return None
            dead.update(unbanned)
            spent += unbanned
            if children is None:
                children = unbanned
                if removed is None:
                    self.root_children = children
            if len(packings) < len(carried):
                packing, cut = carried[len(packings)].copy(), spent
            else:
                packing, cut = packing.copy(), unbanned
            for eid in cut:
                a, b = edges[eid]
                if packing[a] == b:
                    packing[a] = packing[b] = -1
            packings.append(packing)
            grew = maximize(g, dead, packing, misses_allowed=odd)
        if removed is None:
            self.root_grew = False
        # The children get M_2 and each later M_(i+1) that grew near-perfect:
        # all packings but the last, which failed. Children at room 0 are
        # leaves or budget prunes: a near-perfect warm[0] settles those whose
        # edge it avoids.
        if room > 1:
            warm = tuple(packings[:-1] or packings)
        elif warm is not None and warm[0].count(-1) > odd:
            warm = None
        cur_banned = banned
        orbits = None
        children.sort()
        for eid in children:
            if eid in cur_banned:
                continue
            start = stats.nodes
            result = self._dfs(fault, cur_banned, mates, k, eid, warm)
            if result is not None:
                self.path.append((fault, cur_banned))
                return result
            cur_banned = cur_banned | {eid}
            # Orbit bans (module docstring): once a refuted child's subtree
            # took n // 2 nodes, ban the orbits of every child refuted so
            # far, and from then on the orbit of each refuted child.
            if orbits is not None:
                grown = cur_banned | orbits[eid]
            elif stats.nodes - start >= self.gate:
                orbits = self._edge_orbits(fault, banned)
                grown = cur_banned.union(*(orbits[e] for e in cur_banned - banned))
            else:
                continue
            stats.orbit_bans += len(grown) - len(cur_banned)
            cur_banned = grown
        return None

    def _edge_orbits(self, fault: frozenset[int],
                     banned: frozenset[int]) -> tuple[frozenset[int], ...]:
        """The edge orbits of the automorphisms of g that fix ``fault`` and
        ``banned`` setwise, computed once per pair for the solve."""
        key = (fault, banned)
        orbits = self.orbits.get(key)
        if orbits is None:
            from .symmetry import automorphisms, edge_orbits
            generators = automorphisms(self.g, key)
            self.stats.automorphisms += len(generators)
            orbits = self.orbits[key] = edge_orbits(self.g, generators)
        return orbits

    def _lex_min_witness(self, k: int, known: frozenset[int]) -> frozenset[int]:
        """Lexicographically smallest optimal witness (by sorted edge
        indices), grown one position at a time. A known witness guides the
        scan so each position tries only smaller indices than the incumbent.
        With the positions P fixed, candidate e is P's child deleting e and
        banning every other index below e, so a set found avoids them, the
        incumbent always starts with P, and the last one is the answer. P is
        walked down from the root, and needs no side check (module docstring).
        A candidate whose fault set holds the F of a node on the path to
        ``known`` also bans that node's B, or is refuted if it meets B."""
        stats = self.stats
        start = stats.nodes
        # Candidates record paths of their own; their bans hold only in
        # this pass's order, so only the round's path is used.
        proved = tuple(self.path)
        witness = known
        best = sorted(known)
        prefix, mates = frozenset(), self.mates
        for pos in range(k):
            for e in range(best[pos - 1] + 1 if pos else 0, best[pos]):
                fault = prefix | {e}
                banned = frozenset(range(e)) - fault
                for f_d, b_d in proved:
                    if f_d <= fault:
                        if not fault.isdisjoint(b_d):
                            break
                        banned |= b_d
                else:
                    found = self._dfs(prefix, banned, mates, k, e)
                    if found is not None:
                        witness, best = found, sorted(found)
                        break
            prefix = prefix | {best[pos]}
            mates = self._mates_after(prefix, mates, best[pos])
        stats.lexmin_nodes = stats.nodes - start
        return witness


def solve(g: Graph, kind: ProblemKind, budget: Optional[int] = None,
          deterministic: bool = False, jobs: int = 1) -> PreclusionCertificate:
    """Minimum qualifying edge set for ``kind``, as a certificate.

    With a ``budget``, the search stops at that cardinality (decision mode):
    an infeasible answer then only asserts that no set of size <= budget
    exists. ``deterministic=True`` additionally pins the witness to the
    lexicographically smallest optimum. ``jobs`` is accepted and validated
    (it must be >= 1) but has no effect: the search is single-threaded.
    """
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")
    _check_size_cap(budget, "budget")
    if kind.name == "ak" and g.n % 2 == 1:
        raise PreconditionError("anti-Kekule sets are defined for even-order graphs")

    search = _Search(g, kind)
    stats = search.stats
    trivial = _infinity_without_search(kind, search.mates.count(-1) <= g.n % 2,
                                       search.root_side, stats.as_dict())
    if trivial is not None:
        return trivial
    cap = g.m if budget is None else min(budget, g.m)
    witness = None
    for k in range(cap + 1):
        stats.deepening_rounds += 1
        cuts = stats.budget_prunes + stats.bound_prunes
        witness = search._dfs(frozenset(), frozenset(), search.mates, k)
        # A round that neither the budget nor the k-dependent packing bound
        # cut refuted the whole tree, and every larger k would search that
        # same tree again.
        if witness is not None or stats.budget_prunes + stats.bound_prunes == cuts:
            break
    if witness is None:
        return _none_within(g, kind, budget, stats.as_dict())
    if deterministic:
        witness = search._lex_min_witness(len(witness), witness)
    edge_set = EdgeSet(g, witness)
    # The witness's leaf held a maximum matching of g - witness.
    rep = components(g, without=edge_set)
    evidence = Evidence(search.leaf_nu, rep.min_size, rep.connected)
    return PreclusionCertificate(kind, len(witness), edge_set, evidence, stats=stats.as_dict())


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def _check_size_cap(cap: Optional[int], name: str) -> None:
    if cap is not None and cap < 0:
        raise ParameterError(f"{name} must be >= 0, got {cap}")


def precluding_subsets(g: Graph, sizes: Iterable[int]) -> Iterator[tuple[int, tuple[int, ...]]]:
    """``(checked, combo)`` for every edge subset whose deletion hits each
    mask of ``near_perfect_matching_masks``, size by size in ``sizes`` and
    lexicographically within a size; ``checked`` counts the subsets tested
    so far. A graph with no near-perfect matching yields nothing; a
    negative size raises :class:`ParameterError`."""
    sizes = tuple(sizes)
    _check_size_cap(min(sizes, default=0), "size")
    masks = near_perfect_matching_masks(g)
    if not masks:
        return
    checked = 0
    for size in sizes:
        for combo in combinations(range(g.m), size):
            checked += 1
            fmask = 0
            for e in combo:
                fmask |= 1 << e
            if all(pm & fmask for pm in masks):
                yield checked, combo


def first_qualifying_subsets(g: Graph, kinds: Sequence[ProblemKind],
                             max_size: Optional[int] = None
                             ) -> dict[ProblemKind, tuple[int, tuple[int, ...]]]:
    """One sweep over the sizes 0..max_size mapping each kind to its first
    qualifying ``(checked, combo)``, the lex-min optimum; a kind with none
    is left out. The pending kinds share one ``components`` report."""
    _check_size_cap(max_size, "max_size")
    pending = list(dict.fromkeys(kinds))
    found: dict[ProblemKind, tuple[int, tuple[int, ...]]] = {}
    cap = g.m if max_size is None else min(max_size, g.m)
    for checked, combo in precluding_subsets(g, range(cap + 1)):
        rep = None
        for kind in list(pending):
            if kind.has_side_condition:
                if rep is None:
                    rep = components(g, without=combo)
                if not kind.side_holds(rep):
                    continue
            found[kind] = (checked, combo)
            pending.remove(kind)
        if not pending:
            break
    return found


def brute_force_solve(g: Graph, kind: ProblemKind, limit: int = ORACLE_EDGE_LIMIT,
                      max_size: Optional[int] = None) -> PreclusionCertificate:
    """Independent oracle: enumerate edge subsets in increasing cardinality
    (lexicographic within a cardinality) and return the first one whose
    deletion kills every near-perfect matching and meets the side
    conditions. Witnesses are therefore always the lexicographically
    smallest optimum.
    """
    if kind.name == "ak" and g.n % 2 == 1:
        raise PreconditionError("anti-Kekule sets are defined for even-order graphs")
    _check_size_cap(max_size, "max_size")
    if g.m > limit:
        raise OracleLimitError(f"{g.m} edges exceeds the oracle limit of {limit}")
    cap = g.m if max_size is None else min(max_size, g.m)
    connected = kind != AK or AK.side_holds(components(g))
    hit = first_qualifying_subsets(g, [kind], cap).get(kind) if connected else None
    if hit is None:
        # Asked only now, so a feasible answer enumerates the near-perfect
        # matchings once, inside the sweep.
        trivial = _infinity_without_search(kind, bool(near_perfect_matching_masks(g)), connected)
        if trivial is not None:
            return trivial
        # g has a near-perfect matching, so the sweep tested every subset
        checked = sum(math.comb(g.m, size) for size in range(cap + 1))
        return _none_within(g, kind, max_size, {"subsets_checked": checked})
    checked, combo = hit
    edge_set = EdgeSet(g, combo)
    return PreclusionCertificate(kind, len(combo), edge_set, evidence_for(g, edge_set),
                                 stats={"subsets_checked": checked})


# ---------------------------------------------------------------------------
# Monotone-chain verification suite
# ---------------------------------------------------------------------------

def chain_suite(seed: int = 0, count: int = 100, max_s: int = 3) -> dict:
    """Check mp <= mp_1 <= ... <= mp_max_s (INFINITY on top) on ``count``
    seeded random even-order graphs within the oracle edge limit; the report
    carries its seed."""
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    if max_s < 0:
        raise ParameterError(f"max_s must be >= 0, got {max_s}")
    rng = random.Random(seed)
    violations = []
    for index in range(count):
        n = rng.choice((4, 6, 8))
        m = rng.randint(0, min(ORACLE_EDGE_LIMIT, n * (n - 1) // 2))
        g = random_graph(n, m, seed=rng.randrange(2**32))
        values = [solve(g, mp_s(s)).value for s in range(max_s + 1)]
        if any(a > b for a, b in zip(values, values[1:])):
            violations.append({
                "index": index,
                "n": n,
                "edges": [list(e) for e in g.edges],
                "values": [v if not math.isinf(v) else "infinity" for v in values],
            })
    return {
        "seed": seed,
        "instances": count,
        "max_s": max_s,
        "violations": violations,
        "passed": not violations,
    }
