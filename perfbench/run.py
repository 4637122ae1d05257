#!/usr/bin/env python3
"""Benchmark of the preclusion library.

    python3 perfbench/run.py --workload {hypercube,random,oracle} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root. One process, one thread, closed loop: the
instances of a workload run back to back through the library's public API,
taken from ``src/``. With ``--trace 0`` the instance list is set up several
times, then passed over repeatedly for about ``--seconds`` seconds, and the
end-to-end metrics are printed, every time taken to reference speed (see
``Gauge``). With ``--trace 1`` one untraced and one traced pass run, and the
per-layer metrics are printed; the spans go to ``perfbench/out/``. Every
answer is checked outside the timed region. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Metric definitions and the layer-to-workload predictions are in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import math
import random
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

from checks import check
from tracing import Tracer
from workloads import BUILDERS, WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 15
# (traced function, stat) pairs reported as "<function>.<stat>".
LAYER_STATS = (
    ("matching.kuhn_augment", "calls"), ("matching.kuhn_augment", "s"),
    ("matching.maximum_matching_mates", "calls"), ("matching.maximum_matching_mates", "s"),
    ("matching.matching_number_excluding", "calls"),
    ("matching.matching_number_excluding", "s"),
    ("matching.near_perfect_matching_masks", "calls"),
    ("matching.near_perfect_matching_masks", "s"),
    ("matching.near_perfect_matching_masks", "masks"),
    ("graphs.components", "calls"), ("graphs.components", "s"),
    ("solver.solve", "calls"), ("solver.solve", "self_s"),
    ("solver.brute_force_solve", "calls"), ("solver.brute_force_solve", "self_s"),
    ("solver.brute_force_solve", "subsets_checked"),
    ("reduction.fuzz_equivalence", "self_s"),
    ("cubes.lemma_report_conditional_sets", "self_s"),
)
HYPERCUBE_NODE_METRICS = ("q4_mp", "q4_mp_1", "q4_mp_2", "q4_ak", "k44_mp", "k44_mp_1",
                          "k44_ak", "q5_mp", "q5_mp_1_b5")
# The speed at which reference_work() takes REFERENCE_S: about that of one
# unloaded core of a 2020s x86 server under CPython 3.11.
REFERENCE_S = 0.001
GAUGE_EVERY_S = 0.025
GAUGE_WINDOW_S = 0.5   # samples this close to a timed call gauge its speed


class SetupError(Exception):
    pass


def reference_work(n: int = 4000) -> int:
    """Fixed pure-Python work that does not touch the library."""
    acc, table = 0, [0] * 64
    for i in range(n):
        x = (i * 2654435761) & 0xFFFFFFFF
        acc ^= x >> (i & 15)
        table[x & 63] += 1
        if acc & 1:
            acc += table[i & 63]
    return acc


class Gauge:
    """The machine's speed while something is timed.

    A core of a shared host runs the same Python up to 1.6 times slower for
    minutes at a time, and all pure-Python code slows in step. While the
    gauge is on, a timer signal runs ``reference_work`` every
    ``GAUGE_EVERY_S`` of wall time, also in the middle of a library call.
    ``time_of`` takes a call's measured time, less the samples taken during
    it, to the speed at which ``reference_work`` takes ``REFERENCE_S``,
    judged by the median of the samples within ``GAUGE_WINDOW_S`` of the
    call. The library never runs inside a sample, so a change to the library
    moves the scaled times by the same factor as the raw ones.
    """

    def __init__(self):
        self.starts, self.ends = [], []
        self.sampling = False

    def _sample(self, signum, frame):
        if self.sampling:  # the next tick came while a stalled sample ran
            return
        self.sampling = True
        start = perf_counter()
        reference_work()
        self.starts.append(start)
        self.ends.append(perf_counter())
        self.sampling = False

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_EVERY_S, GAUGE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def reference_s(self) -> float:
        return statistics.median(e - s for s, e in zip(self.starts, self.ends))

    def time_of(self, start: float, end: float) -> float:
        """The time of a call that ran from ``start`` to ``end``, at
        reference speed; a sample lies wholly inside a call or outside it."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_right(self.ends, end)
        own = end - start - math.fsum(self.ends[k] - self.starts[k] for k in range(first, last))
        lo = bisect.bisect_left(self.starts, start - GAUGE_WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + GAUGE_WINDOW_S)
        near = [self.ends[k] - self.starts[k] for k in range(lo, hi)]
        return own * REFERENCE_S / statistics.median(near)


def load_library():
    """Import ``preclusion`` afresh from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "preclusion" or n.startswith("preclusion.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        lib = importlib.import_module("preclusion")
    except ImportError as exc:
        raise SetupError(f"cannot import preclusion from {SRC}: {exc}") from None
    if SRC.resolve() not in Path(lib.__file__).resolve().parents:
        raise SetupError(f"preclusion was imported from {lib.__file__}, not from {SRC}")
    return lib


def set_up(workload: str, seed: int):
    """Start and end of the set-up, the library and the instance list."""
    t0 = perf_counter()
    lib = load_library()
    instances = BUILDERS[workload](lib, seed)
    # Mix the bands so each is timed across the whole pass rather than in one
    # stretch of it: on shared hardware the machine's speed drifts in seconds.
    random.Random(f"order/{seed}").shuffle(instances)
    return t0, perf_counter(), lib, instances


def run_pass(instances, tracer=None):
    """One pass: wall time, each instance's start and end, results."""
    gc.collect()
    spans, results = [], []
    t0 = perf_counter()
    for index, inst in enumerate(instances):
        if tracer is not None:
            tracer.instance = index
        start = perf_counter()
        try:
            result = inst.run()
        except Exception as exc:  # reported as a failed instance
            result = exc
        spans.append((start, perf_counter()))
        results.append(result)
    return perf_counter() - t0, spans, results


def tail(values):
    """The highest whole percentile with at least 10 values beyond it, its
    value, and the count beyond; the maximum when there are fewer than 20."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return 100, ordered[-1], 0
    pct = math.floor(100 * (n - 10) / n)
    rank = math.ceil(pct * n / 100)
    return pct, ordered[rank - 1], n - rank


def counts(instances, results, report):
    """search_nodes and subsets_checked: the solve and brute_force_solve
    calls of one pass plus those the checks made."""
    nodes, subsets = report.search_nodes, report.subsets_checked
    for inst, res in zip(instances, results):
        stats = getattr(res, "stats", None) or {}
        if inst.function == "solve":
            nodes += stats.get("nodes", 0)
        elif inst.function == "brute_force_solve":
            subsets += stats.get("subsets_checked", 0)
    return nodes, subsets


def judge(lib, instances, passes):
    """Check the first pass; later passes must repeat it exactly. Returns
    (failed instance runs, check report)."""
    report = check(lib, instances, passes[0])
    for index in sorted(report.problems)[:20]:
        print(f"FAILED {instances[index].name}: {'; '.join(report.problems[index])}")
    failed = len(report.problems) * len(passes)
    for p, results in enumerate(passes[1:], start=1):
        for i, (a, b) in enumerate(zip(passes[0], results)):
            if i not in report.problems and a != b:
                failed += 1
                print(f"FAILED {instances[i].name}: pass {p} differs from pass 0")
    return failed, report


def untraced_run(args):
    setups, walls, spans, passes = [], [], [], []
    with Gauge() as gauge:
        for _ in range(SETUP_REPEATS):
            start, end, lib, instances = set_up(args.workload, args.seed)
            setups.append((start, end))
        begin = perf_counter()
        while not walls or perf_counter() - begin + statistics.median(walls) <= args.seconds:
            wall, pass_spans, results = run_pass(instances)
            walls.append(wall)
            spans.append(pass_spans)
            passes.append(results)
    setup_s = statistics.median(gauge.time_of(start, end) for start, end in setups)
    times = [[gauge.time_of(start, end) for start, end in pass_spans] for pass_spans in spans]
    failed, report = judge(lib, instances, passes)
    # Each instance's median over the passes: a slowdown of the shared
    # machine lasting a few seconds spoils a few instances of one pass, not
    # the estimate of a whole pass.
    per_instance = [statistics.median(col) * 1000 for col in zip(*times)]
    pct, tail_ms, beyond = tail(per_instance)
    nodes, subsets = counts(instances, passes[0], report)
    metrics = {
        "wall_s": (math.fsum(per_instance) / 1000, "s"),
        "instance_p50_ms": (statistics.median(per_instance), "ms"),
        "instance_tail_ms": (tail_ms, "ms"),
        "search_nodes": (nodes, "count"),
        "subsets_checked": (subsets, "count"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    attempted = len(instances) * len(passes)
    print(f"workload {args.workload} seed {args.seed}: {len(instances)} instances, "
          f"{len(passes)} passes, pass walls {[round(w, 3) for w in walls]}")
    print(f"reference_work median {gauge.reference_s() * 1000:.4f} ms over "
          f"{len(gauge.starts)} samples (times below at {REFERENCE_S * 1000:g} ms); "
          f"raw setup_s {statistics.median(end - start for start, end in setups):.6f}")
    print(f"instance_tail_ms is p{pct} over {len(per_instance)} instances, "
          f"{beyond} beyond it")
    print(f"failed_share {failed / attempted:.6f} ({failed} of {attempted})")
    return metrics, attempted, failed


def traced_run(args):
    _, _, lib, instances = set_up(args.workload, args.seed)
    wall, spans, plain = run_pass(instances)
    times = [end - start for start, end in spans]
    tracer = Tracer()
    tracer.install()
    try:
        traced_wall, _, traced = run_pass(instances, tracer)
    finally:
        tracer.uninstall()

    # Lex-min cost from outside: each deterministic solve timed again next
    # to the same solve without lex-min, so machine drift cancels in pairs.
    extra_nodes, extra_s = 0, 0.0
    for i, inst in enumerate(instances):
        if inst.function == "solve" and inst.deterministic and not isinstance(plain[i], Exception):
            start = perf_counter()
            inst.run()
            middle = perf_counter()
            free = lib.solve(*inst.args, **dict(inst.kwargs, deterministic=False))
            extra_s += (middle - start) - (perf_counter() - middle)
            extra_nodes += plain[i].stats["nodes"] - free.stats["nodes"]
            if inst.name.endswith(".r0"):
                print(f"{inst.name}: {plain[i].stats['nodes']} nodes lex-min, "
                      f"{free.stats['nodes']} without")

    failed, report = judge(lib, instances, [plain, traced])
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"trace-{args.workload}.spans", [inst.name for inst in instances])

    layers = tracer.summary()
    metrics = {}
    for short, stat in LAYER_STATS:
        unit = "s" if stat in ("s", "self_s") else "count"
        metrics[f"{short}.{stat}"] = (layers[short][stat], unit)
    kuhn, solve = layers["matching.kuhn_augment"], layers["solver.solve"]
    metrics["matching.kuhn_augment.hit_ratio"] = (
        kuhn["hits"] / kuhn["calls"] if kuhn["calls"] else 0.0, "ratio")
    solved = [(res, t) for inst, res, t in zip(instances, plain, times)
              if inst.function == "solve" and not isinstance(res, Exception)]
    solve_s = sum(t for _, t in solved)
    nodes = sum(res.stats["nodes"] for res, _ in solved)
    metrics["solver.nodes_per_s"] = (nodes / solve_s if solve_s else 0.0, "1/s")
    for stat in ("budget_prunes", "side_prunes", "deepening_rounds"):
        metrics[f"solver.{stat}"] = (solve.get(stat, 0), "count")
    metrics["solver.lexmin.extra_nodes"] = (extra_nodes, "count")
    metrics["solver.lexmin.s"] = (extra_s, "s")
    metrics["trace.overhead_s"] = (traced_wall - wall, "s")
    metrics["trace.absent_functions"] = (len(tracer.absent), "count")
    by_name = {inst.name: res for inst, res in zip(instances, plain)}
    for short in HYPERCUBE_NODE_METRICS:
        res = by_name.get(f"{short}.r0")
        ok = res is not None and not isinstance(res, Exception)
        metrics[f"solver.nodes.{short}"] = (res.stats["nodes"] if ok else 0, "count")

    plain_counts = counts(instances, plain, report)
    traced_counts = counts(instances, traced, report)
    print(f"workload {args.workload} seed {args.seed} traced: {len(instances)} instances, "
          f"{len(tracer.name_id)} spans, untraced pass {wall:.3f} s, "
          f"traced pass {traced_wall:.3f} s")
    print(f"search_nodes {plain_counts[0]} untraced, {traced_counts[0]} traced; "
          f"subsets_checked {plain_counts[1]} untraced, {traced_counts[1]} traced")
    print("absent functions: " + (", ".join(tracer.absent) or "none"))
    attempted = 2 * len(instances)
    print(f"failed_share {failed / attempted:.6f} ({failed} of {attempted})")
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        metrics, attempted, failed = (traced_run if args.trace else untraced_run)(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
