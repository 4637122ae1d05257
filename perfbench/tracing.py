"""Spans around the library's public functions, for the traced run.

``Tracer.install`` rebinds each traced function at every ``preclusion``
module that binds it (``preclusion.solver.components`` as well as
``preclusion.graphs.components``), so calls between modules are seen too.
A name the library no longer defines is listed as absent and reports zero
calls. Spans live in flat arrays until ``write`` saves them.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from time import perf_counter


def _count_hits(result, counters):
    counters["hits"] += 1 if result else 0


def _count_masks(result, counters):
    counters["masks"] += len(result)


def _solve_stats(result, counters):
    for key, value in (result.stats or {}).items():
        counters[key] = counters.get(key, 0) + value


def _subsets(result, counters):
    counters["subsets_checked"] += (result.stats or {}).get("subsets_checked", 0)


# (home module, public function, hook that reads counters off the result)
TRACED = (
    ("preclusion.matching", "kuhn_augment", _count_hits),
    ("preclusion.matching", "maximum_matching_mates", None),
    ("preclusion.matching", "matching_number_excluding", None),
    ("preclusion.matching", "near_perfect_matching_masks", _count_masks),
    ("preclusion.graphs", "components", None),
    ("preclusion.solver", "solve", _solve_stats),
    ("preclusion.solver", "brute_force_solve", _subsets),
    ("preclusion.reduction", "fuzz_equivalence", None),
    ("preclusion.cubes", "lemma_report_conditional_sets", None),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []          # span name id -> "module.function"
        self.counters: dict[str, dict] = {}
        self.absent: list[str] = []
        self.instance = -1                  # id of the instance being run
        self.name_id = array("i")
        self.parent = array("i")
        self.instance_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._rebound: list[tuple] = []

    def install(self) -> None:
        for home, function, hook in TRACED:
            short = f"{home.rsplit('.', 1)[-1]}.{function}"
            self.counters[short] = {"hits": 0, "masks": 0, "subsets_checked": 0}
            try:
                original = getattr(importlib.import_module(home), function)
            except (ImportError, AttributeError):
                self.absent.append(short)
                continue
            wrapper = self._wrap(original, len(self.names), self.counters[short], hook)
            self.names.append(short)
            for module in [m for k, m in sys.modules.items()
                           if k == "preclusion" or k.startswith("preclusion.")]:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._rebound.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def _wrap(self, fn, nid, counters, hook):
        name_id, parent, instance_id = self.name_id, self.parent, self.instance_id
        start, end, stack = self.start, self.end, self._stack

        def traced(*args, **kwargs):
            sid = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            instance_id.append(self.instance)
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(result, counters)
            return result

        return traced

    def summary(self) -> dict:
        """Per function name: calls, inclusive seconds ``s``, ``self_s`` (the
        span minus the time its child spans cover), plus hook counters."""
        k = len(self.names)
        calls, total, own = [0] * k, [0.0] * k, [0.0] * k
        child = [0.0] * len(self.name_id)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        # Children always follow their parent, so one backward sweep sees
        # every child before the parent it reports to.
        for sid in range(len(name_id) - 1, -1, -1):
            d = end[sid] - start[sid]
            nid = name_id[sid]
            calls[nid] += 1
            total[nid] += d
            own[nid] += d - child[sid]
            p = parent[sid]
            if p >= 0:
                child[p] += d
        out = {short: dict(counters, calls=0, s=0.0, self_s=0.0)
               for short, counters in self.counters.items()}
        for nid, short in enumerate(self.names):
            out[short].update(calls=calls[nid], s=total[nid], self_s=own[nid])
        return out

    def write(self, path, instance_names: list[str]) -> None:
        """One JSON header line, then the span arrays as raw machine-order
        bytes in the header's field order."""
        fields = ("name_id", "parent", "instance_id", "start", "end")
        header = {
            "names": self.names,
            "absent": self.absent,
            "instances": instance_names,
            "spans": len(self.name_id),
            "fields": [[f, getattr(self, f).typecode] for f in fields],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for f in fields:
                getattr(self, f).tofile(handle)
