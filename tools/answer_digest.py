"""One sha256 per benchmark workload and seed over every answer the library
gives, to show that a refactor changed no answer and no search counter.

Run from the root of a checkout:

    python3 tools/answer_digest.py
    python3 tools/answer_digest.py --workload random --seeds 1 2

``preclusion`` is imported from that checkout's ``src/``, and the instance
lists are built by ``BUILDERS`` in its ``perfbench/workloads.py``, so the
same script compares two checkouts: run it from each root, each in its own
process, and diff the output. Each instance runs once, in list order. A
certificate contributes its value, reason, note, witness ids, evidence and
sorted ``stats``; a suite (``fuzz_equivalence``, the hypercube lemma) its
report dict. With no arguments it covers ``hypercube`` seeds 1-6,
``random`` seeds 1-3, ``oracle`` seed 1, ``cli`` and ``symmetry``, about
20 s on one x86 core.

The ``cli`` entry takes no seed. It runs each invocation in ``INVOCATIONS``
through ``preclusion.cli.main`` in this process, with stdout and stderr
captured and ``SystemExit`` caught, and prints one sha256 per invocation
over its output (a report without its ``timing``), its exit code and its
stderr. Input files are written to a temporary directory; none is read from
stdin.

The ``symmetry`` entry takes no seed either. It prints one sha256 over the
generators that ``symmetry.automorphisms(g, fixed)`` returns and the
``edge_orbits`` they generate, on a fixed corpus (``symmetry_cases``): Q3-Q5,
Petersen, K_{4,4}, K_{3,5}, K_{1,5} and 30 seeded random graphs on 6-14
vertices, some with twins, each with no fixed sets and with three seeded
(F, B) pairs. It runs in under 2 s.
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
WORKLOADS = [*DEFAULT_SEEDS, "cli", "symmetry"]

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
    "verify hypercube 3 2",
    "verify lemma4 3",
    "verify lemma5 3",
    "verify lemma5 4 --count 200 --seed 1",
    "verify chain --count 5",
    "verify reduction-fuzz 1 5",
    "bench --mode mp",
    "bench --mode mps --s 1 --max-n 3",
    "bench --mode ak --min-n 2 --max-n 3 --csv",
    "solve c4.txt --mode mp --s 3",
    "solve q3.txt --mode mps",
    "solve c5.txt --mode ak",
    "solve short.g6 --mode mp",
    "solve comments.txt --mode mp",
    "bench --mode mp --s 2",
    "bench --min-n 4 --max-n 3",
    "reduce c4.txt --s 2",
    "verify hypercube 3",
    "verify lemma5 3 --slow",
    "verify chain --jobs 0",
    "gen hypercube 0",
]


def canonical(result) -> str:
    """The answer as one JSON text, independent of timing and dict order."""
    if isinstance(result, dict):
        answer = result
    else:
        evidence = result.evidence
        answer = {
            "value": repr(result.value),
            "reason": result.reason,
            "note": result.note,
            "witness": None if result.witness is None else sorted(result.witness.members),
            "evidence": None if evidence is None else [
                evidence.nu_after, evidence.component_min_size, evidence.connected],
            "stats": sorted((result.stats or {}).items()),
        }
    return json.dumps(answer, sort_keys=True, default=repr)


def digest(instances) -> str:
    h = hashlib.sha256()
    for instance in instances:
        h.update(f"{instance.name}\t{canonical(instance.run())}\n".encode())
    return h.hexdigest()


def cli_digests(lib):
    """(invocation, exit code, sha256) for each of INVOCATIONS, run through
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
            text = out.getvalue()
            if "--csv" in argv:  # drop the seconds column
                text = "".join(row.rsplit(",", 1)[0] + "\n" for row in text.splitlines())
            elif text.startswith("{"):
                report = json.loads(text)
                report.pop("timing", None)
                text = json.dumps(report, sort_keys=True)
            h = hashlib.sha256(f"{text}\0{code}\0{err.getvalue()}".encode())
            yield line, code, h.hexdigest()


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


def symmetry_digest(lib) -> tuple[int, str]:
    """The number of cases and one sha256 over each case's generators and
    edge orbits."""
    symmetry = importlib.import_module(lib.__name__ + ".symmetry")
    h = hashlib.sha256()
    cases = 0
    for name, g, fixed in symmetry_cases(lib):
        generators = symmetry.automorphisms(g, fixed)
        orbits = [sorted(orbit) for orbit in symmetry.edge_orbits(g, generators)]
        h.update(f"{name}\t{json.dumps([fixed, generators, orbits])}\n".encode())
        cases += 1
    return cases, h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all five)")
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

    if args.workload in ("cli", "symmetry") and args.seeds:
        parser.error(f"the {args.workload} entry takes no seeds")
    for workload in [args.workload] if args.workload else WORKLOADS:
        if workload == "cli":
            for line, code, sha in cli_digests(lib):
                print(f"cli {line} exit={code} sha256={sha}", flush=True)
            continue
        if workload == "symmetry":
            cases, sha = symmetry_digest(lib)
            print(f"symmetry cases={cases} sha256={sha}", flush=True)
            continue
        builders = importlib.import_module("workloads").BUILDERS
        for seed in args.seeds or DEFAULT_SEEDS[workload]:
            instances = builders[workload](lib, seed)
            print(f"{workload} seed={seed} instances={len(instances)} "
                  f"sha256={digest(instances)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
