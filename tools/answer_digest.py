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
``random`` seeds 1-3 and ``oracle`` seed 1, about 20 s on one x86 core.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import sys
from pathlib import Path

DEFAULT_SEEDS = {"hypercube": range(1, 7), "random": range(1, 4), "oracle": range(1, 2)}


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(DEFAULT_SEEDS),
                        help="one workload (default: all three)")
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
    builders = importlib.import_module("workloads").BUILDERS

    for workload in [args.workload] if args.workload else list(DEFAULT_SEEDS):
        for seed in args.seeds or DEFAULT_SEEDS[workload]:
            instances = builders[workload](lib, seed)
            print(f"{workload} seed={seed} instances={len(instances)} "
                  f"sha256={digest(instances)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
