"""Answer checks, run outside the timed region.

Each instance is judged on its own: a certificate whose witness fails the
library's public predicate, whose size differs from its value, whose value
disagrees with the independent route (``brute_force_solve`` for a ``solve``
on at most ``ORACLE_EDGE_LIMIT`` edges, lex-min ``solve`` for a
``brute_force_solve``), or that breaks a known value or the monotone chain
counts as failed, and so does an instance that raised.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

# mp <= mp_1 <= mp_2 <= mp_3 (mp_s(0) is mp) and mp_1 <= ak.
_CHAIN = (("mp", "mp_0"), ("mp_1",), ("mp_2",), ("mp_3",))


@dataclass
class CheckReport:
    problems: dict = field(default_factory=dict)   # instance index -> [str]
    search_nodes: int = 0      # nodes of the solve calls the checks make
    subsets_checked: int = 0   # subsets of the brute_force_solve calls they make

    def add(self, index: int, message: str) -> None:
        self.problems.setdefault(index, []).append(message)


def _value(v) -> str:
    return "inf" if math.isinf(v) else str(int(v))


def _witness_problems(lib, g, cert) -> list[str]:
    kind = cert.kind
    if not cert.feasible:
        if not cert.reason:
            return ["infinite value without a reason"]
        if kind.name == "mp" and lib.matching_number(g) >= g.n // 2:
            return ["mp reported infinite on a graph with a near-perfect matching"]
        return []
    w = cert.witness
    if w is None:
        return ["finite value without a witness"]
    if not g.same_labelling(w.graph):
        return ["witness tagged to another graph"]
    if len(w) != cert.value:
        return [f"witness has {len(w)} edges, value is {_value(cert.value)}"]
    if kind.name == "mp":
        ok = lib.is_matching_preclusion_set(g, w)
    elif kind.name == "mps":
        ok = lib.is_s_restricted_set(g, w, kind.s)
    else:
        ok = lib.is_anti_kekule_set(g, w)
    return [] if ok else [f"witness fails the {kind.label()} predicate"]


def _agree(cert, ref, with_witness: bool) -> list[str]:
    if cert.value != ref.value:
        return [f"value {_value(cert.value)} but the other route gives {_value(ref.value)}"]
    if with_witness and cert.feasible and cert.witness.members != ref.witness.members:
        return [f"witness {sorted(cert.witness.members)} but the lex-min optimum is "
                f"{sorted(ref.witness.members)}"]
    return []


def check(lib, instances, results) -> CheckReport:
    """Check one pass's results; ``results[i]`` is the return value of
    ``instances[i]`` or the exception it raised."""
    report = CheckReport()
    chains: dict = defaultdict(dict)
    for i, (inst, res) in enumerate(zip(instances, results)):
        if isinstance(res, BaseException):
            report.add(i, f"raised {type(res).__name__}: {res}")
            continue
        if inst.function in ("fuzz_equivalence", "lemma_report_conditional_sets"):
            if res.get("passed") is not True:
                report.add(i, f"{inst.function} did not pass")
            continue
        g, kind = inst.graph, inst.kind
        problems = []
        if res.kind != kind:
            problems.append(f"answered kind {res.kind.label()}, asked {kind.label()}")
        problems += _witness_problems(lib, g, res)
        if inst.expected is not None and res.value != inst.expected:
            problems.append(f"value {_value(res.value)}, known value {_value(inst.expected)}")
        if inst.function == "solve":
            if g.m <= lib.ORACLE_EDGE_LIMIT and "budget" not in inst.kwargs:
                ref = lib.brute_force_solve(g, kind)
                report.subsets_checked += (ref.stats or {}).get("subsets_checked", 0)
                problems += _agree(res, ref, inst.deterministic)
        else:
            ref = lib.solve(g, kind, deterministic=True)
            report.search_nodes += ref.stats["nodes"]
            problems += _agree(res, ref, True)
        for message in problems:
            report.add(i, message)
        if inst.group is not None:
            chains[inst.group][kind.label()] = (i, res.value)
    for values in chains.values():
        _check_chain(values, report)
    return report


def _check_chain(values: dict, report: CheckReport) -> None:
    steps = [next((values[a] for a in alias if a in values), None) for alias in _CHAIN]
    present = [step for step in steps if step is not None]
    for (i, lo), (j, hi) in zip(present, present[1:]):
        if lo > hi:
            report.add(j, f"chain broken: {_value(lo)} > {_value(hi)}")
    if "mp_1" in values and "ak" in values:
        (i, mp1), (j, ak) = values["mp_1"], values["ak"]
        if mp1 > ak:
            report.add(j, f"mp_1 = {_value(mp1)} exceeds ak = {_value(ak)}")
