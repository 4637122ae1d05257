"""Instance lists of the three benchmark workloads.

Every instance is one call into the library's public API, named by the
module and function it calls, so a traced run that rebinds those names is
seen by the benchmark too. The workload seed is the only input; it picks the
graphs (``random``, ``oracle``) or the vertex labelling (``hypercube``).
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass, field
from typing import Any, Optional

WORKLOADS = ("hypercube", "random", "oracle")

# Sizes are set so that one pass takes about 8-30 s on one core of a 2020s
# x86 machine and the cross-seed spread of every end-to-end metric stays
# well inside its bound. Solving times are heavy-tailed in the graph size,
# so the random graphs are drawn in equal numbers per (n, m) cell rather
# than with random n and m (see perfbench/README.md). A Q5 node count moves
# by about 10% with the labelling and Q5 is most of a hypercube pass, so Q5
# is solved under two labellings to halve that seed-to-seed variance.
# K_{4,4} costs about 17 ms a labelling; with K44 = 2 * (Q4 + Q5) labellings
# the median hypercube instance is the median of the K_{4,4} mp_1 and ak
# solves rather than an extreme of them.
Q4_LABELLINGS = 8
K44_LABELLINGS = 20
Q5_LABELLINGS = 2
TINY_PER_CELL = 25        # n in {4, 6, 8}, every m up to 16: 40 cells
MEDIUM_PER_CELL = 48      # n in {10, 12, 14}, m in [2n, 2.5n]: 21 cells
ORACLE_PER_CELL = 30      # n in {6, 7, 8}, m from 11 to 16 but not K_6: 16 cells
ORACLE_FUZZ_SOURCES = 4000


@dataclass
class Instance:
    """One timed call: ``module.function(*args, **kwargs)``.

    ``graph`` and ``kind`` describe what the checks need; ``group`` ties
    together the instances of one graph for the chain checks.
    """

    name: str
    module: str
    function: str
    args: tuple
    kwargs: dict = field(default_factory=dict)
    graph: Any = None
    kind: Any = None
    group: Optional[str] = None
    expected: Optional[float] = None

    @property
    def deterministic(self) -> bool:
        return bool(self.kwargs.get("deterministic"))

    def run(self):
        target = getattr(importlib.import_module(self.module), self.function)
        return target(*self.args, **self.kwargs)


def relabel(lib, g, rng: random.Random):
    """``g`` under a random vertex permutation, edges re-indexed in sorted
    order, with the bipartition re-attached when ``g`` carries one."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges)
    h = lib.Graph(g.n, edges)
    return lib.with_bipartition(h) if g.bipartition is not None else h


def _solve(name, g, kind, group, expected=None, **kwargs) -> Instance:
    return Instance(name, "preclusion.solver", "solve", (g, kind), kwargs,
                    graph=g, kind=kind, group=group, expected=expected)


def hypercube_instances(lib, seed: int) -> list[Instance]:
    """The paper's instances: Q4 {mp, mp_1, mp_2, ak} under
    ``Q4_LABELLINGS`` seeded labellings, K_{4,4} {mp, mp_1, ak} under
    ``K44_LABELLINGS``, and Q5 mp and Q5 mp_1 decided at budget 5 under
    ``Q5_LABELLINGS``. All but the budgeted ones are lex-min. Seed 0 keeps
    the canonical labelling for copy 0."""
    mp1, mp2 = lib.mp_s(1), lib.mp_s(2)
    out = []
    for copy in range(max(Q4_LABELLINGS, K44_LABELLINGS, Q5_LABELLINGS)):
        rng = None if seed == 0 and copy == 0 else random.Random(f"hypercube/{seed}/{copy}")

        def label(g):
            return g if rng is None else relabel(lib, g, rng)

        r = f".r{copy}"
        if copy < Q4_LABELLINGS:
            q4 = label(lib.hypercube(4))
            out += [
                _solve("q4_mp" + r, q4, lib.MP, "q4" + r, 4, deterministic=True),
                _solve("q4_mp_1" + r, q4, mp1, "q4" + r, 6, deterministic=True),
                _solve("q4_mp_2" + r, q4, mp2, "q4" + r, 6, deterministic=True),
                _solve("q4_ak" + r, q4, lib.AK, "q4" + r, deterministic=True),
            ]
        if copy < K44_LABELLINGS:
            k44 = label(lib.complete_bipartite(4, 4))
            out += [
                _solve("k44_mp" + r, k44, lib.MP, "k44" + r, deterministic=True),
                _solve("k44_mp_1" + r, k44, mp1, "k44" + r, deterministic=True),
                _solve("k44_ak" + r, k44, lib.AK, "k44" + r, deterministic=True),
            ]
        if copy < Q5_LABELLINGS:
            q5 = label(lib.hypercube(5))
            out += [
                _solve("q5_mp" + r, q5, lib.MP, None, 5, deterministic=True),
                _solve("q5_mp_1_b5" + r, q5, mp1, None, lib.INFINITY, budget=5),
            ]
    return out


def _cells(rng, ns, m_range, per_cell):
    for n in ns:
        for m in m_range(n):
            for _ in range(per_cell):
                yield n, m, rng.randrange(2**32)


def random_instances(lib, seed: int) -> list[Instance]:
    """General (non-bipartite path) graphs in two bands plus Petersen.

    Tiny band: n in {4, 6, 8}, m <= 16 as in ``chain_suite``, mp_s for
    s = 0..3. Medium band: n in {10, 12, 14}, m in [2n, 2.5n], lex-min mp,
    mp_1 and ak."""
    rng = random.Random(f"random/{seed}")
    out = []
    tiny = _cells(rng, (4, 6, 8), lambda n: range(min(16, n * (n - 1) // 2) + 1), TINY_PER_CELL)
    for i, (n, m, graph_seed) in enumerate(tiny):
        g = lib.random_graph(n, m, seed=graph_seed)
        for s in range(4):
            out.append(_solve(f"tiny{i}_mp_{s}", g, lib.mp_s(s), f"tiny{i}"))
    medium = _cells(rng, (10, 12, 14), lambda n: range(2 * n, 5 * n // 2 + 1), MEDIUM_PER_CELL)
    for i, (n, m, graph_seed) in enumerate(medium):
        g = lib.random_graph(n, m, seed=graph_seed)
        for kind in (lib.MP, lib.mp_s(1), lib.AK):
            out.append(_solve(f"medium{i}_{kind.label()}", g, kind, f"medium{i}",
                              deterministic=True))
    pet = relabel(lib, lib.petersen(), rng)
    for kind in (lib.MP, lib.mp_s(1), lib.AK):
        out.append(_solve(f"petersen_{kind.label()}", pet, kind, "petersen",
                          deterministic=True))
    return out


def oracle_instances(lib, seed: int) -> list[Instance]:
    """The three subset sweeps and no optimizer search: one-source
    ``fuzz_equivalence`` corpora, ``brute_force_solve`` on random graphs
    within the oracle edge limit, and the exhaustive Q4 conditional-set
    lemma."""
    rng = random.Random(f"oracle/{seed}")
    out = []
    for i in range(ORACLE_FUZZ_SOURCES):
        out.append(Instance(f"fuzz{i}", "preclusion.reduction", "fuzz_equivalence",
                            (rng.randrange(2**32), 1)))
    limit = lib.ORACLE_EDGE_LIMIT
    brute = _cells(rng, (6, 7, 8), lambda n: range(11, min(limit, n * (n - 1) // 2 - 1) + 1),
                   ORACLE_PER_CELL)
    for i, (n, m, graph_seed) in enumerate(brute):
        g = lib.random_graph(n, m, seed=graph_seed)
        kinds = [lib.MP, lib.mp_s(1), lib.mp_s(2)] + ([lib.AK] if n % 2 == 0 else [])
        for kind in kinds:
            out.append(Instance(f"brute{i}_{kind.label()}", "preclusion.solver",
                                "brute_force_solve", (g, kind), graph=g, kind=kind,
                                group=f"brute{i}"))
    out.append(Instance("lemma4", "preclusion.cubes", "lemma_report_conditional_sets",
                        (4,), {"allow_slow": True}))
    return out


BUILDERS = {
    "hypercube": hypercube_instances,
    "random": random_instances,
    "oracle": oracle_instances,
}
