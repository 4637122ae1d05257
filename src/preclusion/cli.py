"""Command-line front end: generate graphs, run the solvers, build and check
the reduction, and reproduce the verification suites, all with JSON reports.
``main`` alone times a run and writes its report; a sweep over hypercubes is
``preclusion gen hypercube N | preclusion solve ...``, one report per order.

Exit codes: 0 feasible/pass, 1 infeasible or fail-with-counterexample,
2 usage or precondition error, 4 internal error (a bug, never an answer).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass
from typing import Optional

from . import __version__
from .errors import ParameterError, ParseError, PreclusionError
from .formats import detect_format, emit, parse
from .graphs import FAMILIES, Graph, check_int, generate
from .cubes import (
    hypercube_report,
    lemma_report_conditional_sets,
    super_connectivity_report,
)
from .reduction import build_reduction, verify_equivalence, fuzz_equivalence
from .solver import (
    AK,
    MP,
    chain_suite,
    mp_s,
    solve,
)

_FMT = {"edges": "edge_list", "g6": "graph6", "json": "json"}


@dataclass
class RunReport:
    """Machine-readable result of one CLI invocation. All fields are plain
    JSON values, so serialization round-trips losslessly."""

    command: list
    input: dict
    result: dict
    timing: dict
    stats: Optional[dict]
    deterministic: bool
    version: str

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"


def _read_graph(path: str) -> Graph:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            # One character per byte, with each line's own ending kept.
            with open(path, "r", encoding="latin-1", newline="") as handle:
                text = handle.read()
    except UnicodeDecodeError as exc:  # stdin bytes its encoding cannot read
        raise ParseError("graph input must be ASCII text", exc.start) from exc
    except OSError as exc:
        raise ParameterError(f"cannot read {path}: {exc.strerror or exc}") from exc
    if not text.isascii():
        # Each character before the first non-ASCII one is one byte.
        at = next(i for i, ch in enumerate(text) if not ch.isascii())
        raise ParseError("graph input must be ASCII text", at)
    return parse(detect_format(text), text)


def _echo(args: argparse.Namespace, *names: str) -> list:
    """``--name value`` for each option in ``names`` given a value, for a
    report's ``command``."""
    out = []
    for name in names:
        value = getattr(args, name)
        if value is not None:
            out += ["--" + name.replace("_", "-"), str(value)]
    return out


def _kind_from_args(parser: argparse.ArgumentParser, args: argparse.Namespace):
    if args.mode != "mps":
        if args.s is not None:
            parser.error(f"--s applies only to --mode mps, not --mode {args.mode}")
        return MP if args.mode == "mp" else AK
    if args.s is None:
        parser.error("--mode mps requires --s")
    return mp_s(args.s)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

# Each subcommand returns its verdict (exit 0 when true, else 1) and its
# report's fields, or None when it wrote its own output (``gen``).

def cmd_gen(parser, args) -> None:
    g = generate(args.family, args.params)
    sys.stdout.write(emit(g, _FMT[args.format]))


def cmd_solve(parser, args) -> tuple[bool, dict]:
    g = _read_graph(args.input)
    kind = _kind_from_args(parser, args)
    cert = solve(g, kind, budget=args.budget, deterministic=args.deterministic,
                 jobs=args.jobs)
    return cert.feasible, {
        "command": ["solve", "--mode", args.mode] + _echo(args, "s", "budget"),
        "input": {"n": g.n, "m": g.m, "family": None},
        "result": cert.to_dict(),
        "stats": cert.stats,
    }


def cmd_reduce(parser, args) -> tuple[bool, dict]:
    if args.s is not None and args.check is None:
        parser.error("--s applies only with --check")
    g = _read_graph(args.input)
    r = build_reduction(g)
    labels = ("u_prime", "u_dprime", "v_prime", "v_dprime", "edge_e", "edge_e_prime")
    gadget: dict = {"n": r.gadget.n, "m": r.gadget.m,
                    "labels": {name: getattr(r, name) for name in labels}}
    if args.format == "g6":
        gadget["graph6"] = emit(r.gadget, "graph6").strip()
    else:
        gadget["graph"] = json.loads(emit(r.gadget, "json"))
    result = {"gadget": gadget}
    ok = True
    if args.check is not None:
        s = 1 if args.s is None else args.s
        eq = verify_equivalence(g, args.check, s=s)
        result["equivalence"] = {"k": args.check, "s": s, **asdict(eq)}
        ok = eq.agree
    return ok, {
        "command": ["reduce"] + _echo(args, "check", "s", "format"),
        "input": {"n": g.n, "m": g.m, "family": None},
        "result": result,
    }


# Each suite's runner, a library function that takes the suite's positional
# parameters in order, how many of them it needs, and their names. A runner
# supplies its own defaults and its report's verdict, ``passed``. lemma4's
# runner also takes --slow, as ``allow_slow``.
_SUITES = {
    "hypercube": (hypercube_report, 2, ("n", "s")),
    "lemma5": (super_connectivity_report, 1, ("n", "seed", "count")),
    "lemma4": (lemma_report_conditional_sets, 1, ("n",)),
    "chain": (chain_suite, 0, ("seed", "count")),
    "reduction-fuzz": (fuzz_equivalence, 0, ("seed", "count")),
}


def cmd_verify(parser, args) -> tuple[bool, dict]:
    runner, needed, names = _SUITES[args.suite]
    if not needed <= len(args.params) <= len(names):
        arity = needed if needed == len(names) else f"{needed} to {len(names)}"
        parser.error(f"suite {args.suite!r} takes {arity} parameter(s)")
    if args.slow and args.suite != "lemma4":
        parser.error(f"suite {args.suite!r} does not take --slow")
    result = runner(*args.params, allow_slow=True) if args.slow else runner(*args.params)
    result["suite"] = args.suite
    return result["passed"], {
        "command": ["verify", args.suite] + [str(p) for p in args.params] + ["--slow"] * args.slow,
        "input": {"n": None, "m": None, "family": args.suite},
        "result": result,
    }


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="preclusion",
        description="Exact matching preclusion / anti-Kekule solvers with certificates.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)
    # The options of the subcommands that run the solver.
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--deterministic", action="store_true")
    run.add_argument("--jobs", type=int, default=1,
                     help="accepted and validated (>= 1) but has no effect")

    p_gen = sub.add_parser("gen", help="generate a named graph family instance")
    p_gen.add_argument("family", choices=FAMILIES)
    p_gen.add_argument("params", nargs="*", type=int)
    p_gen.add_argument("--format", choices=sorted(_FMT), default="edges")
    p_gen.set_defaults(func=cmd_gen)

    p_solve = sub.add_parser("solve", parents=[run], help="compute a preclusion certificate")
    p_solve.add_argument("input", nargs="?", default="-",
                         help="graph file (JSON, edge list or graph6); '-' for stdin")
    p_solve.add_argument("--mode", choices=["mp", "mps", "ak"], required=True)
    p_solve.add_argument("--s", type=int, default=None,
                         help="restriction level for --mode mps")
    p_solve.add_argument("--budget", type=int, default=None,
                         help="decision mode: search only up to this cardinality")
    p_solve.set_defaults(func=cmd_solve)

    p_reduce = sub.add_parser("reduce", help="build the gadget for a bipartite source")
    p_reduce.add_argument("input", nargs="?", default="-",
                          help="bipartite graph file (JSON, edge list or graph6); '-' for stdin")
    p_reduce.add_argument("--check", type=int, default=None, metavar="K",
                          help="also verify the equivalence at budget K via the oracle")
    p_reduce.add_argument("--s", type=int, default=None,
                          help="restriction level for the --check equivalence")
    p_reduce.add_argument("--format", choices=["g6", "json"], default=None,
                          help="gadget encoding (default json)")
    p_reduce.set_defaults(func=cmd_reduce)

    p_verify = sub.add_parser("verify", parents=[run], help="run a verification suite")
    p_verify.add_argument("suite", choices=sorted(_SUITES))
    p_verify.add_argument("params", nargs="*", type=int,
                          help="hypercube N S; lemma4 N; lemma5 N [SEED [COUNT]]; "
                               "chain, reduction-fuzz [SEED [COUNT]]")
    p_verify.add_argument("--slow", action="store_true",
                          help="allow the long-running lemma4 n=4 enumeration")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Checked here, not only in solve, so suites that never solve reject it too.
        check_int(getattr(args, "jobs", 1), "--jobs", 1)
        started = time.perf_counter()
        outcome = args.func(parser, args)
        if outcome is None:
            return 0
        passed, fields = outcome
        report = RunReport(timing={"wall_seconds": time.perf_counter() - started},
                           stats=fields.pop("stats", None),
                           deterministic=bool(getattr(args, "deterministic", False)),
                           version=__version__, **fields)
        sys.stdout.write(report.to_json())
        return 0 if passed else 1
    except PreclusionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Anything else is a bug; exit 1 would read as "infinity".
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
