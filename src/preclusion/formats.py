"""Graph serialization: graph6, edge-list, and JSON.

graph6 is the standard ASCII encoding (upper-triangle adjacency bits packed
into printable sextets); the edge-list format is a "n m" header followed by
one "u v" line per edge; JSON carries the vertex count, edge list, and
optional bipartition.
"""

from __future__ import annotations

import json
import re

from .errors import ParameterError, ParseError
from .graphs import MAX_VERTICES, Graph

__all__ = [
    "parse",
    "emit",
    "parse_graph6",
    "emit_graph6",
    "parse_edge_list",
    "emit_edge_list",
    "parse_json",
    "emit_json",
    "detect_format",
]

_GRAPH6_HEADER = ">>graph6<<"


def emit_graph6(g: Graph) -> str:
    # The 1- and 4-byte size prefixes cover every order up to MAX_VERTICES.
    out = []
    if g.n <= 62:
        out.append(chr(g.n + 63))
    else:
        out.append("~")
        for shift in (12, 6, 0):
            out.append(chr(((g.n >> shift) & 0x3F) + 63))
    bits = 0
    nbits = 0
    for j in range(1, g.n):
        for i in range(j):
            bits = (bits << 1) | (j in g.edge_to[i])
            nbits += 1
            if nbits == 6:
                out.append(chr(bits + 63))
                bits = nbits = 0
    if nbits:
        out.append(chr((bits << (6 - nbits)) + 63))
    return "".join(out) + "\n"


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    base = len(text) - len(text.lstrip())
    if s.startswith(_GRAPH6_HEADER):
        s = s[len(_GRAPH6_HEADER):]
        base += len(_GRAPH6_HEADER)
    if not s:
        raise ParseError("empty graph6 input", base)
    vals = []
    for pos, ch in enumerate(s):
        code = ord(ch)
        if not 63 <= code <= 126:
            raise ParseError(f"invalid graph6 byte {ch!r}", base + pos)
        vals.append(code - 63)
    if vals[0] < 63:
        n = vals[0]
        body = vals[1:]
        body_base = base + 1
    else:
        if len(vals) < 4:
            raise ParseError("truncated graph6 size prefix", base + len(s))
        if vals[1] == 63:
            raise ParseError(f"graph6 sizes above {MAX_VERTICES} are not supported", base + 1)
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        body = vals[4:]
        body_base = base + 4
    need = n * (n - 1) // 2
    have = 6 * len(body)
    if have < need:
        raise ParseError(
            f"graph6 body too short: need {need} bits, have {have}", base + len(s)
        )
    if have - need >= 6:
        raise ParseError("trailing bytes after graph6 body", body_base + (need + 5) // 6)
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if (body[idx // 6] >> (5 - idx % 6)) & 1:
                edges.append((i, j))
            idx += 1
    return Graph(n, edges)


# A data row of an edge list, its "n m" header or a "u v" edge: two runs of
# ASCII digits, with only whitespace between and around them.
_PAIR_RE = re.compile(r"\s*([0-9]+)\s+([0-9]+)\s*")


def _is_row(line: str) -> bool:
    """Whether an edge-list line carries data: it is neither blank nor a
    ``#`` comment."""
    stripped = line.strip()
    return bool(stripped) and not stripped.startswith("#")


def _decimal(token: str, at: int) -> int:
    """``int(token)`` for a run of decimal digits; a run past CPython's
    integer-string limit (4,300 digits by default) is a ParseError at ``at``."""
    try:
        return int(token)
    except ValueError as exc:
        raise ParseError(f"integer of {len(token)} digits is too long", at) from exc


def emit_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    lines = text.splitlines()
    offsets = []
    pos = 0
    for line in text.splitlines(keepends=True):  # "\r\n" ends a line too
        offsets.append(pos)
        pos += len(line)
    rows = [(i, line) for i, line in enumerate(lines) if _is_row(line)]
    if not rows:
        raise ParseError("empty edge-list input", 0)
    first_idx, first = rows[0]
    header = _PAIR_RE.fullmatch(first)
    if not header:
        raise ParseError("edge list must start with a 'n m' header line", offsets[first_idx])
    at = offsets[first_idx]
    n, m = _decimal(header.group(1), at), _decimal(header.group(2), at)
    if len(rows) - 1 != m:
        raise ParseError(f"header promises {m} edges but {len(rows) - 1} edge lines follow", at)

    def pairs():
        # Graph checks n, then reads each edge once in order, so a
        # ParameterError belongs to the header or to the line last yielded.
        nonlocal at
        for idx, line in rows[1:]:
            at = offsets[idx]
            pair = _PAIR_RE.fullmatch(line)
            if not pair:
                raise ParseError(f"bad edge line {line!r}", at)
            yield _decimal(pair.group(1), at), _decimal(pair.group(2), at)

    try:
        return Graph(n, pairs())
    except ParameterError as exc:
        raise ParseError(str(exc), at) from exc


def emit_json(g: Graph) -> str:
    payload = {
        "n": g.n,
        "edges": [[u, v] for u, v in g.edges],
        "bipartition": list(g.bipartition) if g.bipartition is not None else None,
    }
    return json.dumps(payload) + "\n"


def parse_json(text: str) -> Graph:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.pos) from exc
    except RecursionError as exc:
        raise ParseError("JSON nested too deeply", 0) from exc
    except ValueError as exc:  # an integer past CPython's integer-string limit
        raise ParseError(f"invalid JSON graph: {exc}", 0) from exc
    if not isinstance(payload, dict) or "n" not in payload or "edges" not in payload:
        raise ParseError("JSON graph needs 'n' and 'edges' keys", 0)
    try:
        return Graph(payload["n"], payload["edges"], bipartition=payload.get("bipartition"))
    except (ParameterError, TypeError, ValueError) as exc:
        raise ParseError(f"invalid JSON graph: {exc}", 0) from exc


_PARSERS = {"graph6": parse_graph6, "edge_list": parse_edge_list, "json": parse_json}
_EMITTERS = {"graph6": emit_graph6, "edge_list": emit_edge_list, "json": emit_json}


def parse(fmt: str, text: str) -> Graph:
    if fmt not in _PARSERS:
        raise ParameterError(f"unknown format {fmt!r}; choose from {sorted(_PARSERS)}")
    return _PARSERS[fmt](text)


def emit(g: Graph, fmt: str) -> str:
    if fmt not in _EMITTERS:
        raise ParameterError(f"unknown format {fmt!r}; choose from {sorted(_EMITTERS)}")
    return _EMITTERS[fmt](g)


# A JSON object opens with "{" and then, after optional whitespace, a key or
# its closing brace. "{" alone is no sign of JSON: it is the graph6 size byte
# of a 60-vertex graph, whose body may start with "}" (but never with '"' or
# whitespace), so "{}" counts only as the whole input.
_JSON_RE = re.compile(r'\s*\{\s*("|\}\s*$)')


def detect_format(text: str) -> str:
    """Guess the input format: a JSON object, an edge list (its first data
    row, past blank and ``#`` comment lines, an "n m" header, or no data row
    but a comment), or otherwise graph6. No graph6 line starts with "#"."""
    if _JSON_RE.match(text):
        return "json"
    for line in text.splitlines():
        if _is_row(line):
            return "edge_list" if _PAIR_RE.fullmatch(line) else "graph6"
    # Only blank and comment lines: an edge list if there is a comment.
    return "edge_list" if text.strip() else "graph6"
