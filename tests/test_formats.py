import pytest

from preclusion import ParameterError, ParseError, cycle, emit, hypercube, parse, path, petersen
from preclusion.formats import detect_format
from preclusion.graphs import complete_bipartite
from conftest import random_corpus

# Reference encodings computed with an independent graph6 encoder before the
# build and frozen here.
C5_GRAPH6 = "Dhc"
PETERSEN_GRAPH6 = "IheA@GUAo"
Q3_GRAPH6 = "Gr`HOk"
K33_GRAPH6 = "EFz_"


def test_graph6_frozen_references():
    assert emit(cycle(5), "graph6").strip() == C5_GRAPH6
    assert emit(petersen(), "graph6").strip() == PETERSEN_GRAPH6
    assert emit(hypercube(3), "graph6").strip() == Q3_GRAPH6
    assert emit(complete_bipartite(3, 3), "graph6").strip() == K33_GRAPH6


def test_graph6_parse_c5():
    g = parse("graph6", C5_GRAPH6)
    assert g.n == 5 and g.m == 5
    assert g == cycle(5)


def test_graph6_header_accepted():
    g = parse("graph6", ">>graph6<<" + C5_GRAPH6)
    assert g == cycle(5)


def test_graph6_long_form():
    # 63 vertices needs the '~' size prefix
    p63 = path(63)
    s = emit(p63, "graph6")
    assert s.startswith("~??~")
    assert parse("graph6", s) == p63


def test_graph6_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as err:
        parse("graph6", "D\x1f")
    assert err.value.offset == 1
    with pytest.raises(ParseError):
        parse("graph6", "")
    with pytest.raises(ParseError):
        parse("graph6", "D")  # truncated body for n=5
    with pytest.raises(ParseError, match="^graph6 sizes above 258047 are not supported") as err:
        parse("graph6", "~~??????")
    assert err.value.offset == 1


def test_unknown_formats_are_parameter_errors():
    for call in (lambda: parse("xml", ""), lambda: emit(cycle(4), "xml")):
        with pytest.raises(ParameterError, match="^unknown format 'xml'; choose from"):
            call()


def test_edge_list_round_trip_k2():
    g = parse("edge_list", "2 1\n0 1\n")
    assert g.n == 2 and g.edges == ((0, 1),)


def test_edge_list_errors():
    with pytest.raises(ParseError):
        parse("edge_list", "")
    with pytest.raises(ParseError):
        parse("edge_list", "not a header\n")
    with pytest.raises(ParseError):
        parse("edge_list", "2 2\n0 1\n")  # promised 2 edges, got 1
    with pytest.raises(ParseError) as err:
        parse("edge_list", "2 1\n0 9\n")
    assert err.value.offset > 0
    with pytest.raises(ParseError):
        parse("edge_list", "2 1\n1 1\n")


def test_json_round_trip_keeps_bipartition():
    q3 = hypercube(3)
    back = parse("json", emit(q3, "json"))
    assert back == q3
    assert back.bipartition == q3.bipartition


def test_round_trip_all_formats_random_corpus():
    for g in random_corpus(40, seed=99):
        for fmt in ("graph6", "edge_list", "json"):
            assert parse(fmt, emit(g, fmt)) == g


def test_round_trip_q3():
    q3 = hypercube(3)
    for fmt in ("graph6", "edge_list", "json"):
        assert parse(fmt, emit(q3, fmt)) == q3


def test_detect_format():
    assert detect_format("8 12\n0 1\n") == "edge_list"
    assert detect_format(C5_GRAPH6 + "\n") == "graph6"
    assert detect_format("\n  \nGr`HOk\n") == "graph6"


def test_detect_format_skips_comments_as_the_edge_list_parser_does():
    # No graph6 line starts with "#" (byte 35 < 63), so a comment-led input
    # is an edge list whose first data row is the header.
    text = "# C4\n4 4\n0 1\n1 2\n2 3\n0 3\n"
    assert detect_format(text) == "edge_list"
    assert parse(detect_format(text), text) == cycle(4)


def test_detect_format_reads_comments_alone_as_an_empty_edge_list():
    # Comment lines are the edge list's own, so input of nothing else is
    # an edge list without data; blank input stays empty graph6.
    for text in ("# nothing\n", "\n# a\n  # b\n\n"):
        assert detect_format(text) == "edge_list"
        with pytest.raises(ParseError, match="empty edge-list input"):
            parse(detect_format(text), text)
    for text in ("", "\n  \n"):
        assert detect_format(text) == "graph6"
        with pytest.raises(ParseError, match="empty graph6 input"):
            parse(detect_format(text), text)


def test_detect_format_reads_json_but_not_a_60_vertex_graph6():
    assert detect_format(emit(cycle(6), "json")) == "json"
    assert detect_format(' \n{\n  "n": 2, "edges": [[0, 1]]}') == "json"
    assert detect_format("{ }") == detect_format("{}\n") == "json"
    # "{" is the graph6 size byte of n = 60, and "}" a valid first body byte
    from preclusion import Graph
    g = Graph(60, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    text = emit(g, "graph6")
    assert text.startswith("{}")
    assert detect_format(text) == "graph6"
    assert parse(detect_format(text), text) == g
    sixty = emit(Graph(60, []), "graph6")
    assert sixty.startswith("{?") and detect_format(sixty) == "graph6"


# Each value error in a JSON graph, with the message Graph gives it.
JSON_VALUE_ERRORS = [
    ('{"n": true, "edges": []}', "n must be an integer, got True"),
    ('{"n": 2, "edges": [[false, true]]}', "edge endpoint must be an integer, got False"),
    ('{"n": 2, "edges": [[0, 1]], "bipartition": [0, true]}',
     "bipartition side must be an integer, got True"),
    ('{"n": 2, "edges": [[0, 1]], "bipartition": [0, 1.0]}',
     "bipartition side must be an integer, got 1.0"),
    ('{"n": 2, "edges": [[0, "1"]]}', "edge endpoint must be an integer, got '1'"),
    ('{"n": 2, "edges": [null]}', "edge None is not a pair of vertices"),
    ('{"n": 3, "edges": [[0, 1, 2]]}', "edge [0, 1, 2] is not a pair of vertices"),
]


@pytest.mark.parametrize("text, message", JSON_VALUE_ERRORS,
                         ids=[text for text, _ in JSON_VALUE_ERRORS])
def test_json_values_must_be_integers(text, message):
    # Python reads JSON true as 1, so a bool would pass for a vertex; the
    # error names the argument and the value.
    with pytest.raises(ParseError) as err:
        parse("json", text)
    assert str(err.value) == f"invalid JSON graph: {message} (byte offset 0)"


@pytest.mark.parametrize("text, offset", [
    ("3 2\n0 1\n1 0\n", 8),
    ("# c\n3 2\n0 1\n1 0\n", 12),
    ("6 3\n2 4\n2 4\n2\n", 8),  # the duplicate comes before the bad line
    ("3 2\r\n0 1\r\n1 0\r\n", 10),
])
def test_a_duplicate_edge_reports_its_own_line(text, offset):
    with pytest.raises(ParseError, match="^duplicate edge") as err:
        parse("edge_list", text)
    assert err.value.offset == offset


@pytest.mark.parametrize("text, offset", [
    ("3 1\r\n\r\n0 x\r\n", 7),
    ("# c\r\n3 1\r\n0 9\r\n", 10),
])
def test_crlf_line_ends_count_in_edge_list_offsets(text, offset):
    with pytest.raises(ParseError) as err:
        parse("edge_list", text)
    assert err.value.offset == offset


@pytest.mark.parametrize("text, offset", [
    ("  G r", 3),
    ("\n\nG r", 3),
    ("\t>>graph6<<D\x7f", 12),
])
def test_graph6_offsets_count_leading_whitespace(text, offset):
    with pytest.raises(ParseError, match="^invalid graph6 byte") as err:
        parse("graph6", text)
    assert err.value.offset == offset


@pytest.mark.parametrize("text, offset", [
    ("2 1\n0 \u0661\n", 4),  # Arabic-Indic one
    ("\u0662 1\n0 1\n", 0),
    ("2 1\n0 \uff11\n", 4),  # full-width one
])
def test_edge_list_digits_are_ascii_only(text, offset):
    with pytest.raises(ParseError) as err:
        parse("edge_list", text)
    assert err.value.offset == offset


# More digits than CPython's integer-string limit (4,300 by default), which
# int() and json.loads refuse with a bare ValueError.
_LONG = "1" * 5000
_LONG_INTEGERS = {
    "edge list header": ("edge_list", f"{_LONG} 0\n", 0),
    "edge list edge line": ("edge_list", f"2 1\n0 {_LONG}\n", 4),
    "json value": ("json", f'{{"n": {_LONG}, "edges": []}}', 0),
}


@pytest.mark.parametrize("fmt, text, offset", _LONG_INTEGERS.values(), ids=list(_LONG_INTEGERS))
def test_an_integer_past_the_digit_limit_is_a_parse_error(fmt, text, offset):
    with pytest.raises(ParseError) as err:
        parse(fmt, text)
    assert err.value.offset == offset
    if fmt == "json":
        assert str(err.value).startswith("invalid JSON graph: ")


def _fuzz_text(rng, seeds, alphabet):
    """A random string over ``alphabet``, or a valid encoding with a few
    characters replaced, inserted or deleted."""
    if rng.random() < 0.4:
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
    text = list(rng.choice(seeds))
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(len(text) + 1)
        op = rng.random()
        if op < 0.4 and pos < len(text):
            text[pos] = rng.choice(alphabet)
        elif op < 0.7:
            text.insert(pos, rng.choice(alphabet))
        elif pos < len(text):
            del text[pos]
    return "".join(text)


def test_parsers_raise_only_package_errors():
    # Whatever the input, a parser either returns a graph or raises a
    # PreclusionError subclass, never a bare Python error.
    import random
    from preclusion import PreclusionError
    alphabets = {
        "graph6": "?@ABC_`abcz}~>g<h\n ",
        "edge_list": "0123456789 \n#-x+",
        "json": '{}[]",:0123456789 -.eEntrufalsbidgp',
    }
    graphs = [cycle(5), petersen(), hypercube(3), path(1), complete_bipartite(2, 3)]
    seeds = {fmt: [emit(g, fmt) for g in graphs] for fmt in alphabets}
    fixed = [("json", "[" * 100_000), ("json", '{"n": 1e400, "edges": []}'),
             ("json", '{"n": 3, "edges": [[0, 1.5]]}'),
             ("edge_list", "2 1\n0 \u00b2\n"),  # a digit to str.isdigit, not to int
             *[(fmt, text) for fmt, text, _ in _LONG_INTEGERS.values()]]
    rng = random.Random(415)
    cases = fixed + [(fmt, _fuzz_text(rng, seeds[fmt], alphabets[fmt]))
                     for fmt in rng.choices(list(alphabets), k=10_000)]
    parsed = 0
    for fmt, text in cases:
        try:
            parse(fmt, text)
            parsed += 1
        except PreclusionError:
            pass
    assert 500 < parsed < len(cases) - 3000
