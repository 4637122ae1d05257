import ast
import random
import re
from pathlib import Path

import pytest

from preclusion import (
    EdgeSet,
    Graph,
    ParameterError,
    TagMismatchError,
    complete,
    complete_bipartite,
    components,
    cycle,
    delete_edges,
    find_bipartition,
    generate,
    hypercube,
    path,
    petersen,
    random_bipartite_with_pm,
    random_graph,
)
from preclusion.graphs import MAX_VERTICES, edge_ids
from conftest import random_corpus, relabel


def test_graph_rejects_self_loops_and_duplicates():
    with pytest.raises(ParameterError):
        Graph(3, [(0, 0)])
    with pytest.raises(ParameterError, match="duplicate"):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ParameterError):
        Graph(2, [(0, 5)])


def test_an_edge_must_be_a_pair_of_integer_vertices():
    # An edge that is no pair does not escape as a bare unpacking error, and
    # a float or bool endpoint equal to a vertex does not pass for it.
    c4 = cycle(4)
    for call, message in (
            (lambda: Graph(3, [(0, 1, 2)]), "edge (0, 1, 2) is not a pair of vertices"),
            (lambda: Graph(3, [5]), "edge 5 is not a pair of vertices"),
            (lambda: EdgeSet.from_pairs(c4, [(0,)]), "edge (0,) is not a pair of vertices"),
            (lambda: EdgeSet.from_pairs(c4, [5]), "edge 5 is not a pair of vertices"),
            (lambda: EdgeSet.from_pairs(c4, [(0, 1.0)]), "edge endpoint must be an integer, got 1.0"),
            (lambda: EdgeSet.from_pairs(c4, [(True, 2)]), "edge endpoint must be an integer, got True")):
        with pytest.raises(ParameterError) as info:
            call()
        assert str(info.value) == message
    assert EdgeSet.from_pairs(c4, [[0, 1], (3, 2)]) == EdgeSet(c4, [0, 2])


def test_edge_lookups_reject_vertices_out_of_range():
    # -1 must not reach the last vertex's neighbours.
    for g in (hypercube(3), petersen()):
        for bad in (-1, g.n):
            for w in range(g.n):
                for u, v in ((bad, w), (w, bad)):
                    assert not g.has_edge(u, v)
                    with pytest.raises(ParameterError):
                        g.edge_id(u, v)


def test_vertex_accessors_refuse_what_is_no_vertex():
    # -1 must not read the last vertex, n must not escape as a bare
    # IndexError, and a bool or float must not pass for a vertex.
    from preclusion import trivial_mp_set
    c5 = cycle(5)
    for read in (c5.degree, c5.neighbors, c5.incident):
        for bad in (-1, 5):
            with pytest.raises(ParameterError, match=f"^vertex {bad} out of range for n=5$"):
                read(bad)
        for bad in (True, 1.0, "1", None):
            with pytest.raises(ParameterError, match="^vertex must be an integer"):
                read(bad)
    with pytest.raises(ParameterError, match="^v 5 out of range for n=5$"):
        trivial_mp_set(c5, 5)
    for u, v in ((True, 2), (0, 1.0), (1.0, 2), (None, 1)):
        for lookup in (c5.has_edge, c5.edge_id):
            with pytest.raises(ParameterError, match="^edge endpoint must be an integer"):
                lookup(u, v)


def test_edge_index_agrees_with_edges_and_adjacency():
    rng = random.Random(10)
    for g in (hypercube(4), petersen(), relabel(random_graph(12, 30, seed=3), rng)):
        for eid, (u, v) in enumerate(g.edges):
            assert g.edge_to[u][v] == g.edge_to[v][u] == g.edge_id(v, u) == eid
        assert sum(map(len, g.edge_to)) == 2 * g.m
        for v in range(g.n):
            assert g.adj[v] == tuple(sorted(g.edge_to[v].items()))
            assert g.incident(v) == frozenset(eid for eid, e in enumerate(g.edges) if v in e)


def test_graph_rejects_bad_bipartition():
    with pytest.raises(ParameterError):
        Graph(2, [(0, 1)], bipartition=[0, 0])
    with pytest.raises(ParameterError):
        Graph(2, [(0, 1)], bipartition=[0])


def test_hypercube_counts():
    q3 = hypercube(3)
    assert q3.n == 8
    assert q3.m == 12
    assert all(q3.degree(v) == 3 for v in range(8))
    assert q3.bipartition is not None
    # vertex i adjacent exactly to i XOR 2^k
    for i in range(8):
        assert set(q3.neighbors(i)) == {i ^ (1 << k) for k in range(3)}


@pytest.mark.parametrize("n", range(1, 11))
def test_hypercube_regular_bipartite_connected(n):
    q = hypercube(n)
    assert q.n == 2**n
    assert q.m == n * 2 ** (n - 1)
    assert all(q.degree(v) == n for v in range(q.n))
    assert components(q).connected
    assert find_bipartition(q) is not None


def test_petersen_counts():
    p = petersen()
    assert p.n == 10
    assert p.m == 15
    assert all(p.degree(v) == 3 for v in range(10))
    assert find_bipartition(p) is None  # odd cycles


def test_complete_bipartite_counts():
    g = complete_bipartite(3, 3)
    assert g.n == 6
    assert g.m == 9
    sides = g.bipartition
    assert sides.count(0) == 3 and sides.count(1) == 3


def test_generate_dispatch_and_errors():
    assert generate("hypercube", [3]).n == 8
    assert generate("petersen").m == 15
    with pytest.raises(ParameterError):
        generate("hypercube", [0])
    with pytest.raises(ParameterError):
        generate("nosuch", [1])
    with pytest.raises(ParameterError):
        generate("cycle", [])


def test_handshake_on_generated_graphs():
    for g in [hypercube(4), complete(6), complete_bipartite(2, 5), petersen(),
              cycle(7), path(9)]:
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m


def test_random_bipartite_with_pm():
    g = random_bipartite_with_pm(1, 0.0, seed=5)
    assert (g.n, g.m) == (2, 1)
    full = random_bipartite_with_pm(3, 1.0, seed=5)
    assert full == complete_bipartite(3, 3)
    a = random_bipartite_with_pm(4, 0.5, seed=7)
    b = random_bipartite_with_pm(4, 0.5, seed=7)
    assert a.edges == b.edges
    # planted matching is always present
    for i in range(4):
        assert a.has_edge(i, 4 + i)
    with pytest.raises(ParameterError):
        random_bipartite_with_pm(0, 0.5, seed=1)
    with pytest.raises(ParameterError):
        random_bipartite_with_pm(2, 1.5, seed=1)


def test_random_graph_samples_the_pairs_the_full_pair_list_gave():
    # random.sample picks the same indices from any sequence of the same
    # length, so unranking sampled ranks gives the graph that sampling the
    # listed pairs gave. The population of C(n, 2) pairs is copied into a
    # pool when it is small against m (6/3, 10/20, 30/400, 40/780) and
    # sampled into a set of picks otherwise (8/4, 20/20, 40/30).
    for n, m in ((1, 0), (2, 1), (6, 3), (8, 4), (10, 20), (20, 20), (30, 400),
                 (40, 30), (40, 780)):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for seed in range(5):
            expect = sorted(random.Random(seed).sample(pairs, m))
            assert list(random_graph(n, m, seed=seed).edges) == expect, (n, m, seed)


def test_random_generators_check_the_order_before_building():
    # Listing every pair of this order would take about 3e10 tuples, and
    # the planted bipartite graph's loop about 1.7e10 steps.
    with pytest.raises(ParameterError, match="exceeds the limit"):
        random_graph(MAX_VERTICES + 1, 0, seed=0)
    with pytest.raises(ParameterError, match="exceeds the limit"):
        random_bipartite_with_pm(MAX_VERTICES // 2 + 1, 0.0, seed=0)


@pytest.mark.parametrize("call, message", [
    (lambda: Graph(MAX_VERTICES + 1, []), "vertex count 258048 exceeds the limit of 258047"),
    (lambda: complete(1416), "edge count 1001820 exceeds the limit of 1000000"),
    (lambda: random_graph(4, 7, seed=0), "edge count 7 out of range for n=4"),
], ids=["graph order", "complete edges", "random edges"])
def test_sizes_past_a_limit_are_refused(call, message):
    with pytest.raises(ParameterError) as err:
        call()
    assert str(err.value) == message


def test_delete_edges_identity_and_basic():
    q3 = hypercube(3)
    same = delete_edges(q3, EdgeSet(q3, []))
    assert same == q3
    c4 = cycle(4)
    p = delete_edges(c4, EdgeSet(c4, [0]))
    assert p == Graph(4, [(1, 2), (2, 3), (0, 3)])  # a path on 4 vertices
    k2 = complete(2)
    bare = delete_edges(k2, EdgeSet(k2, [0]))
    assert bare.n == 2 and bare.m == 0


def test_delete_edges_tag_mismatch():
    c4 = cycle(4)
    c5 = cycle(5)
    with pytest.raises(TagMismatchError):
        delete_edges(c4, EdgeSet(c5, [0]))


def test_delete_edges_keeps_survivors_in_order():
    # A survivor's new index is its rank among the survivors.
    q3 = hypercube(3)
    h = delete_edges(q3, EdgeSet(q3, [2, 7]))
    assert h.edges == tuple(e for eid, e in enumerate(q3.edges) if eid not in (2, 7))


def test_components_basics():
    assert components(hypercube(3)).connected
    two_k2 = Graph(4, [(0, 1), (2, 3)])
    rep = components(two_k2)
    assert len(rep.components) == 2 and rep.min_size == 2 and not rep.connected
    k2 = complete(2)
    rep = components(k2, without=[0])
    assert len(rep.components) == 2 and rep.min_size == 1


def test_components_partition_vertices():
    for g in random_corpus(30, seed=11):
        rep = components(g)
        seen = sorted(v for comp in rep.components for v in comp)
        assert seen == list(range(g.n))
        assert rep.connected == (len(rep.components) <= 1)


def test_deletion_refines_components():
    for g in random_corpus(25, seed=23):
        if g.m < 2:
            continue
        f_small = EdgeSet(g, [0])
        f_big = EdgeSet(g, [0, g.m - 1])
        coarse = components(g, without=f_small)
        fine = components(g, without=f_big)
        assert fine.min_size <= coarse.min_size
        for comp in fine.components:
            assert any(comp <= big for big in coarse.components)


def test_edge_set_validation_and_ops():
    q3 = hypercube(3)
    with pytest.raises(ParameterError):
        EdgeSet(q3, [99])
    es = EdgeSet.from_pairs(q3, [(0, 1), (0, 2)])
    assert len(es) == 2
    assert es.pairs() == ((0, 1), (0, 2))
    assert (1 in es, 2 in es) == (True, False)
    assert hash(es) == hash(EdgeSet(q3, [1, 0])) and repr(es) == "EdgeSet([0, 1])"
    # A one-shot iterator is used up, so no second pass can name the index.
    with pytest.raises(ParameterError, match="^edge index is not hashable$"):
        edge_ids(q3, iter([[0]]))


def test_names_without_a_caller_are_gone():
    import preclusion
    from preclusion import cli, cubes, graphs, matching, reduction

    gone = [(graphs, "surviving_edge_ids"), (cubes, "incident_set"),
            (cubes, "verify_optimal_conditional_sets_trivial"),
            (graphs.EdgeSet, "union"), (graphs.EdgeSet, "difference"),
            (cli.RunReport, "from_json"), (reduction.ReductionInstance, "t"),
            (matching.Matching, "saturated")]
    for owner, name in gone:
        assert not hasattr(owner, name), name
        assert not hasattr(preclusion, name), name
    q3 = hypercube(3)
    assert not hasattr(EdgeSet(q3, [0]), "union")
    assert not hasattr(matching.max_matching(q3), "saturated")


def test_find_bipartition():
    assert find_bipartition(cycle(4)) is not None
    assert find_bipartition(cycle(5)) is None
    sides = find_bipartition(hypercube(3))
    for u, v in hypercube(3).edges:
        assert sides[u] != sides[v]


def _raises_parameter_error(node) -> bool:
    exc = node.exc if isinstance(node, ast.Raise) else None
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "ParameterError"


def _is_lower_bound(test) -> bool:
    """``n < 3`` or ``self.s < 0``, alone or under ``not``, ``and`` and
    ``or``: the shape of a hand-rolled lower bound. A range test such as
    ``0 <= u < n``, which bounds an index from both sides, stays."""
    if isinstance(test, ast.UnaryOp):
        return _is_lower_bound(test.operand)
    if isinstance(test, ast.BoolOp):
        return any(map(_is_lower_bound, test.values))
    if not isinstance(test, ast.Compare):
        return False
    terms = [test.left, *test.comparators]
    return any(isinstance(op, ast.Lt) and isinstance(a, (ast.Name, ast.Attribute))
               and isinstance(b, ast.Constant) and type(b.value) is int
               for a, op, b in zip(terms, test.ops, terms[1:]))


class _ParameterErrors(ast.NodeVisitor):
    """Each ParameterError a module raises, as (function, line, message
    text), and each lower bound on a name that raises one."""

    def __init__(self, module: str):
        self.where, self.raises, self.bounds = module, [], []

    def visit_FunctionDef(self, node):
        outer, self.where = self.where, f"{self.where}.{node.name}"
        self.generic_visit(node)
        self.where = outer

    def visit_If(self, node):
        if _is_lower_bound(node.test) and any(map(_raises_parameter_error, node.body)):
            self.bounds.append((self.where, node.lineno))
        self.generic_visit(node)

    def visit_Raise(self, node):
        if _raises_parameter_error(node):
            text = "".join(c.value for c in ast.walk(node)
                           if isinstance(c, ast.Constant) and isinstance(c.value, str))
            self.raises.append((self.where, node.lineno, text))


def _parameter_errors() -> _ParameterErrors:
    """The ParameterError raises and lower bounds of every module in the
    package, in one visitor."""
    errors = _ParameterErrors("")
    for source in sorted((Path(__file__).resolve().parent.parent / "src" / "preclusion")
                         .glob("*.py")):
        errors.where = source.stem
        errors.visit(ast.parse(source.read_text(), str(source)))
    return errors


def test_check_int_is_the_one_integer_rule():
    # graphs.check_int states the rule once, in any wording; an upper bound
    # after it stays.
    errors = _parameter_errors()
    found = [f"{where}:{line} checks a lower bound by hand"
             for where, line in errors.bounds if where != "graphs.check_int"]
    found += [f"{where}:{line} words the integer rule"
              for where, line, text in errors.raises
              if where != "graphs.check_int"
              and re.search(r"must be (>=|an integer|integers)", text)]
    assert found == []


def test_endpoints_is_the_one_edge_reader():
    # Graph, EdgeSet.from_pairs and the parsers read an edge through
    # graphs._endpoints, so no other function words its rule.
    assert [where for where, _, text in _parameter_errors().raises
            if "is not a pair of vertices" in text] == ["graphs._endpoints"]
