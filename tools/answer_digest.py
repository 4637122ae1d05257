"""Two sha256 per benchmark workload and seed, one over every answer the
library gives and one over its search counters, to show that a refactor
changed no answer and, apart from that, no counter.

Run from the root of a checkout:

    python3 tools/answer_digest.py
    python3 tools/answer_digest.py --workload random --seeds 1 2

``preclusion`` is imported from that checkout's ``src/``, and the instance
lists are built by ``BUILDERS`` in its ``perfbench/workloads.py``, so the
same script compares two checkouts: run it from each root, each in its own
process, and diff the output. Each instance runs once, in list order. Each
line carries ``answers``, a sha256 over a certificate's ``to_dict()`` (the
form a report gives it: kind, value, witness ids and edges, evidence, and
any reason and note), or over a suite's report (``fuzz_equivalence``, the
hypercube lemma) without its ``subsets_checked``; and ``counters``, a
sha256 over each certificate's sorted ``stats`` and each report's
``subsets_checked``. A change that only moves the search's work moves only
``counters``. With no arguments it covers ``hypercube`` seeds 1-6,
``random`` seeds 1-3, ``oracle`` seed 1, ``cli``, ``symmetry`` and
``formats``, about 20 s on one x86 core.

The ``cli`` entry takes no seed. It runs each invocation in ``INVOCATIONS``
through ``preclusion.cli.main`` in this process, with stdout and stderr
captured and ``SystemExit`` caught. Per invocation, ``answers`` is a sha256
over its output (a report without its ``timing`` and ``stats``), its exit
code and its stderr, and ``counters`` one over the report's ``stats``. Input
files are written to a temporary directory; none is read from stdin.

The ``symmetry`` entry takes no seed either. Its ``answers`` are a sha256
over the ``edge_orbits`` that the generators of
``symmetry.automorphisms(g, fixed)`` generate, and its ``counters`` one over
those generators, which any generating set of the group may replace. Its
corpus is fixed (``symmetry_cases``): Q3-Q5, Petersen, K_{4,4}, K_{3,5},
K_{1,5} and 30 seeded random graphs on 6-14 vertices, some with twins, each
with no fixed sets and with three seeded (F, B) pairs. It runs in under 2 s.

The ``formats`` entry takes no seed. It reads each input of ``FORMAT_CASES``
(valid graphs, and one input per kind of input error) through
``parse(detect_format(text), text)`` and prints one line per case:
``outcome`` is a sha256 over the detected format and the graph (order,
edges, bipartition) or the error's type and byte offset, and ``message`` a
sha256 over the error message (empty for a graph). A change to an error's
wording moves only ``message``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

DEFAULT_SEEDS = {"hypercube": range(1, 7), "random": range(1, 4), "oracle": range(1, 2)}
WORKLOADS = [*DEFAULT_SEEDS, "cli", "symmetry", "formats"]

# The input files of the ``cli`` entry, by name.
INPUTS = {
    "c4.txt": "4 4\n0 1\n1 2\n2 3\n0 3\n",
    "c4-comment.txt": "# C4\n4 4\n0 1\n1 2\n2 3\n0 3\n",
    "comments.txt": "# nothing\n",
    "c5.txt": "5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n",
    "c6.txt": "6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n",
    "k33.txt": "6 9\n0 3\n0 4\n0 5\n1 3\n1 4\n1 5\n2 3\n2 4\n2 5\n",
    "q3.txt": "8 12\n0 1\n0 2\n0 4\n1 3\n1 5\n2 3\n2 6\n3 7\n4 5\n4 6\n5 7\n6 7\n",
    "petersen.g6": "IheA@GUAo\n",
    "short.g6": "abc\n",
    "empty.txt": "0 0\n",
}

# Every subcommand and suite, each exit code and the usage errors; an
# argument that names a file in INPUTS is read from the temporary directory.
INVOCATIONS = [
    "gen hypercube 3 --format edges",
    "gen petersen --format g6",
    "gen complete_bipartite 2 3 --format json",
    "solve q3.txt --mode mp",
    "solve q3.txt --mode mp --budget 2",
    "solve petersen.g6 --mode mp --deterministic",
    "solve q3.txt --mode ak",
    "solve c6.txt --mode ak",
    "solve q3.txt --mode ak --budget 1",
    "solve q3.txt --mode mps --s 2",
    "solve q3.txt --mode mps --s 2 --budget 4",
    "solve c4-comment.txt --mode mp",
    "reduce c4.txt",
    "reduce c4.txt --format g6",
    "reduce c4.txt --check 1",
    "reduce k33.txt --check 2 --s 2",
    "reduce empty.txt --check 0",
    "verify hypercube 3 2",
    "verify hypercube 6 2",
    "verify lemma4 3",
    "verify lemma5 3",
    "verify lemma5 4 1 200",
    "verify chain 0 5",
    "verify reduction-fuzz 1 5",
    "solve c4.txt --mode mp --s 3",
    "solve q3.txt --mode mps",
    "solve c5.txt --mode ak",
    "solve short.g6 --mode mp",
    "solve comments.txt --mode mp",
    "reduce c4.txt --s 2",
    "verify hypercube 3",
    "verify lemma5 3 --slow",
    "verify lemma5 3 1",
    "verify lemma5 4 1 0",
    "verify chain --seed 1",
    "verify chain --jobs 0",
    "gen hypercube 0",
]


# The inputs of the ``formats`` entry, by name: valid graphs first, then one
# input per kind of error.
FORMAT_CASES = {
    "q3 edge list": "8 12\n0 1\n0 2\n0 4\n1 3\n1 5\n2 3\n2 6\n3 7\n4 5\n4 6\n5 7\n6 7\n",
    "q3 graph6": "Gr`HOk\n",
    "petersen graph6": "IheA@GUAo\n",
    "c5 graph6 with header": ">>graph6<<Dhc\n",
    "k23 json with bipartition": '{"n": 5, "edges": [[0, 2], [0, 3], [0, 4], [1, 2], [1, 3],'
                                 ' [1, 4]], "bipartition": [0, 0, 1, 1, 1]}',
    "empty json": '{"n": 0, "edges": []}',
    "empty edge list": "0 0\n",
    "empty graph6": "?\n",
    "comment-led edge list": "# C4\n\n4 4\n0 1\n# mid\n1 2\n2 3\n0 3\n",
    "json edge of three": '{"n": 3, "edges": [[0, 1, 2]]}',
    "json edge of one": '{"n": 3, "edges": [[0]]}',
    "json scalar edge": '{"n": 3, "edges": [5]}',
    "json null edge": '{"n": 2, "edges": [null]}',
    "json bool endpoint": '{"n": 2, "edges": [[false, true]]}',
    "json float endpoint": '{"n": 3, "edges": [[0, 1.5]]}',
    "json string endpoint": '{"n": 2, "edges": [[0, "1"]]}',
    "json null endpoint": '{"n": 2, "edges": [[0, null]]}',
    "json bool order": '{"n": true, "edges": []}',
    "json float order": '{"n": 2.0, "edges": []}',
    "json null order": '{"n": null, "edges": []}',
    "json negative order": '{"n": -1, "edges": []}',
    "json bool side": '{"n": 2, "edges": [[0, 1]], "bipartition": [0, true]}',
    "json float side": '{"n": 2, "edges": [[0, 1]], "bipartition": [0, 1.0]}',
    "json side out of range": '{"n": 2, "edges": [[0, 1]], "bipartition": [0, 2]}',
    "json edge within a side": '{"n": 2, "edges": [[0, 1]], "bipartition": [0, 0]}',
    "json edges not a list": '{"n": 2, "edges": 5}',
    "json order above the limit": '{"n": 258048, "edges": []}',
    "json out of range": '{"n": 2, "edges": [[0, 5]]}',
    "json self-loop": '{"n": 2, "edges": [[1, 1]]}',
    "json duplicate": '{"n": 3, "edges": [[0, 1], [1, 0]]}',
    "json missing keys": '{"n": 2}',
    "json syntax": '{"n": 2, "edges": [}',
    "json nested deeply": '{"n": ' + "[" * 100_000,
    "edge list order above the limit": "258048 0\n",
    "edge list out of range": "2 1\n0 9\n",
    "edge list self-loop": "2 1\n1 1\n",
    "edge list duplicate": "3 2\n0 1\n1 0\n",
    "edge list duplicate after a comment": "# c\n3 2\n0 1\n1 0\n",
    "edge list duplicate before a bad line": "6 3\n2 4\n2 4\n2\n",
    "edge list duplicate with CRLF line ends": "3 2\r\n0 1\r\n1 0\r\n",
    "edge list bad line with CRLF line ends": "3 1\r\n\r\n0 x\r\n",
    "edge list bad line": "3 1\n0 x\n",
    "edge list bad header": "3\n0 1\n",
    "edge list count mismatch": "2 2\n0 1\n",
    "edge list superscript digit": "2 1\n0 \u00b2\n",
    "edge list Arabic-Indic digit": "2 1\n0 \u0661\n",
    "edge list header past the digit limit": "1" * 5000 + " 0\n",
    "edge list edge past the digit limit": "2 1\n0 " + "1" * 5000 + "\n",
    "json value past the digit limit": '{"n": ' + "1" * 5000 + ', "edges": []}',
    "comments alone": "# nothing\n",
    "graph6 bad byte": "D\x1f\n",
    "graph6 bad byte after leading spaces": "  G r\n",
    "graph6 bad byte after leading blank lines": "\n\nG r\n",
    "graph6 truncated body": "D\n",
    "graph6 truncated size prefix": "~??\n",
    "graph6 trailing bytes": "Dhc??\n",
    "graph6 order above the limit": "~~??????\n",
    "empty input": "",
}


def canonical(result) -> tuple[str, str]:
    """The answer and the counters, each as one JSON text, independent of
    timing and dict order."""
    if isinstance(result, dict):
        answer = dict(result)
        counters = answer.pop("subsets_checked", None)
    else:
        answer = result.to_dict()
        counters = sorted((result.stats or {}).items())
    return (json.dumps(answer, sort_keys=True, default=repr),
            json.dumps(counters, sort_keys=True))


class Digests:
    """Two sha256, over the answers and over the counters of named items."""

    def __init__(self):
        self.answers, self.counters = hashlib.sha256(), hashlib.sha256()

    def update(self, name: str, answer: str, counters: str) -> None:
        self.answers.update(f"{name}\t{answer}\n".encode())
        self.counters.update(f"{name}\t{counters}\n".encode())

    def __str__(self) -> str:
        return f"answers={self.answers.hexdigest()} counters={self.counters.hexdigest()}"


def digest(instances) -> Digests:
    out = Digests()
    for instance in instances:
        out.update(instance.name, *canonical(instance.run()))
    return out


def cli_digests(lib):
    """(invocation, exit code, digests) for each of INVOCATIONS, run through
    ``lib``'s CLI."""
    main = importlib.import_module(lib.__name__ + ".cli").main
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in INPUTS.items():
            (Path(tmp) / name).write_text(text, encoding="ascii")
        for line in INVOCATIONS:
            argv = [str(Path(tmp) / arg) if arg in INPUTS else arg for arg in line.split()]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            text, stats = out.getvalue(), None
            if text.startswith("{"):
                report = json.loads(text)
                report.pop("timing", None)
                stats = report.pop("stats", None)
                text = json.dumps(report, sort_keys=True)
            digests = Digests()
            digests.update(line, f"{text}\0{code}\0{err.getvalue()}", json.dumps(stats))
            yield line, code, digests


def symmetry_cases(lib):
    """(name, graph, fixed edge sets) for the ``symmetry`` entry."""
    graphs = [("Q3", lib.hypercube(3)), ("Q4", lib.hypercube(4)), ("Q5", lib.hypercube(5)),
              ("Petersen", lib.petersen()), ("K44", lib.complete_bipartite(4, 4)),
              ("K35", lib.complete_bipartite(3, 5)), ("K15", lib.complete_bipartite(1, 5))]
    rng = random.Random(26)
    for seed in range(30):
        n = rng.randint(6, 14)
        m = rng.randint(n // 2, 2 * n)  # the sparse ones have twins
        graphs.append((f"random({n}, {m}, {seed})", lib.random_graph(n, m, seed)))
    for name, g in graphs:
        yield name, g, ()
        for _ in range(3):
            fault = rng.sample(range(g.m), rng.randint(0, min(2, g.m)))
            rest = sorted(set(range(g.m)) - set(fault))
            yield name, g, (sorted(fault), sorted(rng.sample(rest, rng.randint(0, min(3, len(rest))))))


def symmetry_digest(lib) -> tuple[int, Digests]:
    """The number of cases and the digests of each case's edge orbits and
    generators."""
    symmetry = importlib.import_module(lib.__name__ + ".symmetry")
    digests = Digests()
    cases = 0
    for name, g, fixed in symmetry_cases(lib):
        generators = symmetry.automorphisms(g, fixed)
        orbits = [sorted(orbit) for orbit in symmetry.edge_orbits(g, generators)]
        digests.update(name, json.dumps([fixed, orbits]), json.dumps([fixed, generators]))
        cases += 1
    return cases, digests


def format_digests(lib):
    """(case, outcome sha256, message sha256) for each of FORMAT_CASES."""
    formats = importlib.import_module(lib.__name__ + ".formats")
    for name, text in FORMAT_CASES.items():
        fmt = formats.detect_format(text)
        try:
            g = formats.parse(fmt, text)
        except Exception as exc:  # a bare Python error is an outcome too
            outcome = f"{type(exc).__name__} {getattr(exc, 'offset', None)}"
            message = str(exc)
        else:
            outcome, message = f"{g.n} {g.edges} {g.bipartition}", ""
        yield (name, hashlib.sha256(f"{fmt}\0{outcome}".encode()).hexdigest(),
               hashlib.sha256(message.encode()).hexdigest())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all six)")
    parser.add_argument("--seeds", type=int, nargs="+",
                        help="seeds to run (default: per workload, see above)")
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "preclusion").is_dir():
        parser.error(f"run from a checkout's root: no src/preclusion under {root}")
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    lib = importlib.import_module("preclusion")
    if root / "src" not in Path(lib.__file__).resolve().parents:
        parser.error(f"preclusion was imported from {lib.__file__}, not from {root / 'src'}")

    if args.workload in ("cli", "symmetry", "formats") and args.seeds:
        parser.error(f"the {args.workload} entry takes no seeds")
    for workload in [args.workload] if args.workload else WORKLOADS:
        if workload == "cli":
            for line, code, digests in cli_digests(lib):
                print(f"cli {line} exit={code} {digests}", flush=True)
            continue
        if workload == "symmetry":
            cases, digests = symmetry_digest(lib)
            print(f"symmetry cases={cases} {digests}", flush=True)
            continue
        if workload == "formats":
            for name, outcome, message in format_digests(lib):
                print(f"formats {name}: outcome={outcome} message={message}", flush=True)
            continue
        builders = importlib.import_module("workloads").BUILDERS
        for seed in args.seeds or DEFAULT_SEEDS[workload]:
            instances = builders[workload](lib, seed)
            print(f"{workload} seed={seed} instances={len(instances)} "
                  f"{digest(instances)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
