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

The search is a node step and a driver. The node step takes one child, one
deletion step from its parent, and returns its outcome: when pruned, its
reason, the name of the ``stats`` counter the driver then bumps ("empty", for
a U_i with no unbanned edge, names none); else its F, B, M, children (none at
a leaf) and their warm start. It
re-matches (deleting ab keeps M maximum unless M uses ab; then one Edmonds
search from a, then from b, restores it), then applies the budget, the side
rule, the leaf test, pendant bans and the packing bound. The side rule held
at the parent, and only ab can split a component.
When M used ab and the re-matching matched both a and b again, one
alternating path joined them in g - F: a freed vertex is matched again only
as the end of an augmenting path, a path from a to the third free vertex of
odd order leaves b free, and a failed search from a leaves a free. Then ab
is no bridge, the components are the parent's and the rule holds; on even
order that is every child but the leaves, since children delete edges of M.
Elsewhere a search from a, then from b, capped at the floor or stopped on
meeting the other endpoint, decides it. The driver owns the root, the
children loop with its sibling and orbit bans, the deepening rounds and the
lex-min pass. The root's matching and side status also answer the INFINITY
precheck; its pendant bans and packing do not depend on k, so every round
reads them, and each packed matching is grown in the first round that
reaches it. A set W found comes back with its leaf's matching, a maximum
one of g - W, for the evidence's nu, and with its (F, B) path, for the
lex-min pass, whose candidates are children of their fixed prefix: a subset
of a qualifying set, it meets the side rule unchecked.

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
generators of Gamma and checks each one. Gamma <= Aut(g), so on a graph
whose plain refinement is discrete (``symmetry.refines_to_discrete``, asked
once per solve, at its first orbit lookup) every Gamma is trivial and the
lookups return singleton orbits without that search. Two fixed rules keep
the cost where the search has already spent as much: a node computes orbits
only after a refuted child's subtree took at least n // 2 nodes (the size
of a perfect matching), and orbits are cached per (F, B) for the solve.
Pendant bans (below) shrink refuted subtrees, so a gate of m nodes starves
the orbit bans, and the search then takes more nodes than with neither
rule; a gate of n nodes leaves too few runs banning at all.
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
M_i. ``stats["pendant_bans"]`` counts the edges banned so, node by node,
like ``orbit_bans``.

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
graph's near-perfect matchings, so its value and witness never touch the
optimizer's matching search. The gadget oracle and the hypercube lemma run
the same sweep. Only the side rule, ``ProblemKind.side_holds``, is shared
with the optimizer, and the Edmonds engine, which ``evidence_for`` runs to
recompute the evidence's nu.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import OracleLimitError, ParameterError, PreconditionError
from .graphs import (ComponentReport, EdgeSet, Graph, check_int, check_vertex, components,
                     edge_ids, random_graph)
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
        check_int(self.s, "s", 0)
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

    def check_order(self, n: int) -> None:
        """Refuse ``ak`` on odd order: Kekule structures are perfect matchings."""
        if self.name == "ak" and n % 2 == 1:
            raise PreconditionError("anti-Kekule sets are defined for even-order graphs")


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

def _qualifies(g: Graph, f: Iterable[int], kind: ProblemKind) -> bool:
    """Whether g - f meets ``kind``'s side rule and has neither a perfect nor
    an almost perfect matching, i.e. nu(g - f) <= floor(n/2) - 1."""
    kind.check_order(g.n)
    dead = edge_ids(g, f)
    if kind.has_side_condition and not kind.side_holds(components(g, without=dead)):
        return False
    return matching_number_excluding(g, dead) <= g.n // 2 - 1


def is_matching_preclusion_set(g: Graph, f: Iterable[int]) -> bool:
    """True when g - f has neither a perfect nor an almost perfect matching."""
    return _qualifies(g, f, MP)


def is_s_restricted_set(g: Graph, f: Iterable[int], s: int) -> bool:
    """Matching preclusion with the extra demand that every component of
    g - f keeps at least s + 1 vertices."""
    return _qualifies(g, f, mp_s(s))


def is_anti_kekule_set(g: Graph, f: Iterable[int]) -> bool:
    """True when g - f stays connected but loses every perfect matching.
    Only defined on even order (Kekule structures are perfect matchings)."""
    return _qualifies(g, f, AK)


def trivial_mp_set(g: Graph, v: int) -> EdgeSet:
    """I(v): all edges incident to ``v``. For even order this is always a
    matching preclusion set (v becomes isolated)."""
    check_vertex(g, v, "v")
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
    """The evidence for ``witness``, recomputed from scratch: the route that
    ``brute_force_solve`` takes and that checks the evidence ``solve`` reads
    off its own search. Its nu comes from the optimizer's Edmonds engine."""
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

# The search's counters, reported as ``stats`` under these names.
_STATS = ("nodes", "budget_prunes", "side_prunes", "bound_prunes", "orbit_bans",
          "pendant_bans", "automorphisms", "deepening_rounds", "lexmin_nodes")


class _Search:
    """One solve's state: its root, its counters and its orbit cache."""

    def __init__(self, g: Graph, kind: ProblemKind):
        self.g = g
        self.floor = kind.component_floor(g.n)
        # The side rule and pendant bans (module docstring) act under a floor
        # of 2: mp_s(s) with s >= 1, and ak with n >= 2, as on any graph with
        # an edge, the only graphs the search steps on.
        self.has_side = self.floor >= 2
        # The orbit gate, in nodes: the size of a perfect matching.
        self.gate = g.n // 2
        self.mates = maximum_matching_mates(g)
        self.root_side = not self.has_side or kind.side_holds(components(g))
        self.stats = dict.fromkeys(_STATS, 0)
        self.orbits: dict[tuple[frozenset[int], frozenset[int]], tuple[frozenset[int], ...]] = {}
        # Whether g refines to discrete, asked at the first orbit request.
        self.rigid: Optional[bool] = None

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

    def _side_holds(self, dead: frozenset[int], removed: int) -> bool:
        """Whether g - dead meets the component floor, given that g - dead + ab
        did for ab the edge ``removed``: a search from a, then from b, that
        meets the other endpoint or collects ``floor`` vertices settles it.
        The node step asks only where its re-matching did not already join
        a and b."""
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

    def _step(self, fault: frozenset[int], banned: frozenset[int], mates: list[int], k: int,
              removed: int, warm: Optional[tuple[list[int], ...]]) -> Union[str, tuple]:
        """The node step for the child deleting ``removed`` from the node
        (``fault``, ``banned``, maximum matching ``mates``, packing ``warm``:
        M_2, M_3, ...).
        Its outcome is the reason it was pruned, or (F, B, M, children,
        warm), children None at a leaf."""
        a, b = self.g.edges[removed]
        fault = fault | {removed}
        rematched = self._mates_after(fault, mates, removed)
        # A leaf has nu <= floor(n/2) - 1: more free vertices than n % 2.
        leaf = rematched.count(-1) > self.g.n % 2
        if not leaf and len(fault) >= k:
            return "budget_prunes"
        # A re-matching that matched both a and b again ran one alternating
        # path from a to b in g - F, so ab is no bridge (module docstring).
        joined = rematched is not mates and -1 not in (rematched[a], rematched[b])
        if self.has_side and not joined and not self._side_holds(fault, removed):
            return "side_prunes"
        if leaf:
            return fault, banned, rematched, None, None
        # Only the ends of the edge just deleted can have one live edge left.
        if self.has_side:
            pendant = self._pendant(fault, banned, (a, b))
            if pendant:
                self.stats["pendant_bans"] += len(pendant)
                banned = banned | pendant
        return self._pack(fault, banned, rematched, k - len(fault), warm, [], [], set(fault))

    def _pendant(self, fault: frozenset[int], banned: frozenset[int],
                 ends: Iterable[int]) -> set[int]:
        """Pendant bans (module docstring): the live edge, not in ``banned``,
        of each vertex of ``ends`` that has one live edge left in g - fault."""
        pendant = set()
        for x in ends:
            last = -1
            for _, eid in self.g.adj[x]:
                if eid not in fault:
                    if last != -1:
                        break
                    last = eid
            else:
                if last != -1 and last not in banned:
                    pendant.add(last)
        return pendant

    def _pack(self, fault: frozenset[int], banned: frozenset[int], mates: list[int], room: int,
              warm: Optional[tuple[list[int], ...]], packings: list[list[int]],
              cuts: list[list[int]], dead: set[int]) -> Union[str, tuple]:
        """The packing bound of the node (F, B, M_1) at ``room``: grow M_2,
        M_3, ... past ``packings``, those grown so far (the root keeps its
        lists for every round), with ``cuts`` the parts U_1, U_2, ... listed
        so far and ``dead`` F plus the cuts, until more than ``room`` refute
        the node ("bound_prunes"), a U_i is empty ("empty") or one fails:
        then the outcome. Each M_(i+1) starts
        from ``warm``'s less U_1..U_i while ``warm`` lasts, and from M_i
        less U_i after that."""
        g = self.g
        edges = g.edges
        edge_to = g.edge_to
        odd = g.n % 2
        carried = warm or ()
        packing = packings[-1] if packings else mates
        grew = not packings or packing.count(-1) <= odd
        while grew:
            if len(packings) >= room:
                # The room cuts the node at this matching unless its U is
                # empty, which refutes it at every k: one unbanned edge tells.
                for v, w in enumerate(packing):
                    if w > v and edge_to[v][w] not in banned:
                        return "bound_prunes"
                return "empty"
            unbanned = [eid for v, w in enumerate(packing)
                        if w > v and (eid := edge_to[v][w]) not in banned]
            if not unbanned:
                return "empty"
            dead.update(unbanned)
            cuts.append(unbanned)
            if len(packings) < len(carried):
                packing, cut = carried[len(packings)].copy(), chain.from_iterable(cuts)
            else:
                packing, cut = packing.copy(), unbanned
            for eid in cut:
                a, b = edges[eid]
                if packing[a] == b:
                    packing[a] = packing[b] = -1
            packings.append(packing)
            grew = maximize(g, dead, packing, misses_allowed=odd)
        # The children get M_2 and each later M_(i+1) that grew near-perfect:
        # all packings but the last, which failed.
        cuts[0].sort()
        return fault, banned, mates, cuts[0], tuple(packings[:-1] or packings)

    def _below(self, k: int, outcome: Union[str, tuple]
               ) -> Optional[tuple[frozenset[int], list[int], list]]:
        """The driver below a node's ``outcome``, which it counts: the first
        qualifying set of size <= ``k`` there, its leaf's matching and its path,
        the (F, B) of each node above it as it descended, deepest first; or None."""
        stats = self.stats
        stats["nodes"] += 1
        if isinstance(outcome, str):
            if outcome != "empty":
                stats[outcome] += 1
            return None
        fault, banned, mates, children, warm = outcome
        if children is None:
            return fault, mates, []
        cur_banned = banned
        orbits = None
        for eid in children:
            if eid in cur_banned:
                continue
            start = stats["nodes"]
            found = self._below(k, self._step(fault, cur_banned, mates, k, eid, warm))
            if found:
                found[2].append((fault, cur_banned))
                return found
            cur_banned = cur_banned | {eid}
            # Orbit bans (module docstring): once a refuted child's subtree
            # took n // 2 nodes, ban the orbits of every child refuted so
            # far, and from then on the orbit of each refuted child.
            if orbits is not None:
                grown = cur_banned | orbits[eid]
            elif stats["nodes"] - start >= self.gate:
                orbits = self._edge_orbits(fault, banned)
                grown = cur_banned.union(*(orbits[e] for e in cur_banned - banned))
            else:
                continue
            stats["orbit_bans"] += len(grown) - len(cur_banned)
            cur_banned = grown
        return None

    def _rounds(self, cap: int) -> Optional[tuple[frozenset[int], list[int], list]]:
        """Rounds k = 0..``cap`` from the root, which is no leaf (``solve``'s
        precheck): the first set found, as :meth:`_below` returns it, or
        None. Every round reads the root's pendant bans, the edges of g's
        degree-1 vertices, and one packing."""
        stats = self.stats
        pendant = frozenset(self._pendant(frozenset(), frozenset(), range(self.g.n))
                            if self.has_side else ())
        packing = ([], [], set())
        for k in range(cap + 1):
            stats["deepening_rounds"] += 1
            prunes = stats["budget_prunes"] + stats["bound_prunes"]
            if k == 0:
                outcome = "budget_prunes"
            elif not self.root_side:
                outcome = "side_prunes"
            else:
                stats["pendant_bans"] += len(pendant)
                outcome = self._pack(frozenset(), pendant, self.mates, k, None, *packing)
            found = self._below(k, outcome)
            # A round that neither the budget nor the k-dependent packing
            # bound cut refuted the whole tree, and every larger k would
            # search that same tree again.
            if found or stats["budget_prunes"] + stats["bound_prunes"] == prunes:
                return found
        return None

    def _edge_orbits(self, fault: frozenset[int],
                     banned: frozenset[int]) -> tuple[frozenset[int], ...]:
        """The edge orbits of the automorphisms of g that fix ``fault`` and
        ``banned`` setwise, computed once per pair for the solve."""
        key = (fault, banned)
        orbits = self.orbits.get(key)
        if orbits is None:
            # Imported here, so a solve that never looks up orbits does not load
            # ``symmetry``; two library copies in one process then share one, so
            # time each side of a symmetry A/B in its own process.
            from .symmetry import automorphisms, edge_orbits, refines_to_discrete
            if self.rigid is None:
                self.rigid = refines_to_discrete(self.g)
            if self.rigid:
                # Aut(g) is the identity, and so is every Gamma <= Aut(g).
                orbits = tuple(frozenset((eid,)) for eid in range(self.g.m))
            else:
                generators = automorphisms(self.g, key)
                self.stats["automorphisms"] += len(generators)
                orbits = edge_orbits(self.g, generators)
            self.orbits[key] = orbits
        return orbits

    def _lex_min_witness(self, found: tuple[frozenset[int], list[int], list]
                         ) -> tuple[frozenset[int], list[int]]:
        """Lexicographically smallest optimal witness (by sorted edge
        indices) and its leaf's matching, grown one position at a time from
        round k's ``found``, which guides the scan so each position tries
        only smaller indices than the incumbent. With the positions P fixed,
        candidate e is P's child deleting e and banning every other index
        below e, so a set found avoids them, the incumbent always starts with
        P, and the last one is the answer. A candidate whose fault set holds
        the F of a node on ``found``'s path also bans that node's B, or is
        refuted if it meets B."""
        start = self.stats["nodes"]
        witness, leaf, path = found
        best = sorted(witness)
        k = len(best)
        prefix, mates = frozenset(), self.mates
        for pos in range(k):
            for e in range(best[pos - 1] + 1 if pos else 0, best[pos]):
                fault = prefix | {e}
                banned = frozenset(range(e)) - fault
                for f_d, b_d in path:
                    if f_d <= fault:
                        if not fault.isdisjoint(b_d):
                            break
                        banned |= b_d
                else:
                    candidate = self._below(k, self._step(prefix, banned, mates, k, e, None))
                    if candidate:
                        witness, leaf = candidate[:2]
                        best = sorted(witness)
                        break
            prefix = prefix | {best[pos]}
            mates = self._mates_after(prefix, mates, best[pos])
        self.stats["lexmin_nodes"] = self.stats["nodes"] - start
        return witness, leaf


def solve(g: Graph, kind: ProblemKind, budget: Optional[int] = None,
          deterministic: bool = False, jobs: int = 1) -> PreclusionCertificate:
    """Minimum qualifying edge set for ``kind``, as a certificate.

    With a ``budget``, the search stops at that cardinality (decision mode):
    an infeasible answer then only asserts that no set of size <= budget
    exists. ``deterministic=True`` additionally pins the witness to the
    lexicographically smallest optimum. ``jobs`` is accepted and validated
    (it must be an int >= 1) but has no effect: the search is single-threaded.
    """
    check_int(jobs, "jobs", 1)
    if budget is not None:
        check_int(budget, "budget", 0)
    kind.check_order(g.n)

    search = _Search(g, kind)
    trivial = _infinity_without_search(kind, search.mates.count(-1) <= g.n % 2,
                                       search.root_side, search.stats)
    if trivial is not None:
        return trivial
    found = search._rounds(g.m if budget is None else min(budget, g.m))
    if found is None:
        return _none_within(g, kind, budget, search.stats)
    witness, mates = search._lex_min_witness(found) if deterministic else found[:2]
    edge_set = EdgeSet(g, witness)
    rep = components(g, without=edge_set)
    evidence = Evidence((g.n - mates.count(-1)) // 2, rep.min_size, rep.connected)
    return PreclusionCertificate(kind, len(witness), edge_set, evidence, stats=search.stats)


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def precluding_subsets(g: Graph, sizes: Iterable[int]) -> Iterator[tuple[int, tuple[int, ...]]]:
    """``(checked, combo)`` for every edge subset whose deletion hits each
    mask of ``near_perfect_matching_masks``, size by size in ``sizes`` and
    lexicographically within a size; ``checked`` counts the subsets tested
    so far. A graph with no near-perfect matching yields nothing; a size
    that is no integer >= 0 raises :class:`ParameterError`."""
    sizes = tuple(sizes)
    for size in sizes:
        check_int(size, "size", 0)
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


def first_qualifying_subsets(g: Graph, kinds: Sequence[ProblemKind]
                             ) -> dict[ProblemKind, tuple[int, tuple[int, ...]]]:
    """One sweep over the sizes 0..m mapping each kind to its first
    qualifying ``(checked, combo)``, the lex-min optimum; a kind with none
    is left out. The pending kinds share one ``components`` report."""
    pending = list(dict.fromkeys(kinds))
    for kind in pending:
        kind.check_order(g.n)
    found: dict[ProblemKind, tuple[int, tuple[int, ...]]] = {}
    for checked, combo in precluding_subsets(g, range(g.m + 1)):
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


def brute_force_solve(g: Graph, kind: ProblemKind, limit: int = ORACLE_EDGE_LIMIT
                      ) -> PreclusionCertificate:
    """Independent oracle: enumerate edge subsets in increasing cardinality
    (lexicographic within a cardinality) and return the first one whose
    deletion kills every near-perfect matching and meets the side
    conditions. Witnesses are therefore always the lexicographically
    smallest optimum; the evidence comes from :func:`evidence_for`.
    """
    kind.check_order(g.n)
    check_int(limit, "limit", 0)
    if g.m > limit:
        raise OracleLimitError(f"{g.m} edges exceeds the oracle limit of {limit}")
    connected = kind != AK or AK.side_holds(components(g))
    hit = first_qualifying_subsets(g, [kind]).get(kind) if connected else None
    if hit is None:
        # Asked only now, so a feasible answer enumerates the near-perfect
        # matchings once, inside the sweep.
        trivial = _infinity_without_search(kind, bool(near_perfect_matching_masks(g)), connected)
        if trivial is not None:
            return trivial
        # g has a near-perfect matching, so the sweep tested every subset
        return _none_within(g, kind, None, {"subsets_checked": 2 ** g.m})
    checked, combo = hit
    edge_set = EdgeSet(g, combo)
    return PreclusionCertificate(kind, len(combo), edge_set, evidence_for(g, edge_set),
                                 stats={"subsets_checked": checked})


# ---------------------------------------------------------------------------
# Monotone-chain verification suite
# ---------------------------------------------------------------------------

def chain_suite(seed: int = 0, count: int = 100) -> dict:
    """Check mp <= mp_1 <= mp_2 <= mp_3 (INFINITY on top) on ``count``
    seeded random even-order graphs within the oracle edge limit; the report
    carries its seed and the chain's top level, ``max_s`` = 3."""
    check_int(count, "count", 1)
    rng = random.Random(seed)
    violations = []
    for index in range(count):
        n = rng.choice((4, 6, 8))
        m = rng.randint(0, min(ORACLE_EDGE_LIMIT, n * (n - 1) // 2))
        g = random_graph(n, m, seed=rng.randrange(2**32))
        values = [solve(g, mp_s(s)).value for s in range(4)]
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
        "max_s": 3,
        "violations": violations,
        "passed": not violations,
    }
