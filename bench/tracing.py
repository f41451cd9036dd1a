"""Per-layer tracing from outside the package.

``Tracer.install`` wraps the entry point of each layer and patches every
binding callers look up: the defining module's attribute and each
``from ... import`` copy in the other diagnoscope modules (tolerance,
verification and cli re-bind names this way).  A wrapper records one span
(kind, parent span, start, end, attributes) in memory, timed by the clock
it is given (the benchmark child passes its clock in reference seconds);
``uninstall`` restores every binding.  Nothing inside the package is
changed on disk.
"""

from __future__ import annotations

import json
import sys
from math import comb
from time import perf_counter
from typing import Callable, Dict, List, Optional

MARK = "_bench_wrapper"

# (module, function, span kind)
TARGETS = (
    ("diagnoscope.diagnosis", "is_t_diagnosable", "decide"),
    ("diagnoscope.diagnosis", "diagnosability", "diagnosability"),
    ("diagnoscope.tolerance", "_pmc_tolerance", "pmc"),
    ("diagnoscope.tolerance", "_scenario_sweep", "sweep"),
    ("diagnoscope.tolerance", "theoretical_bounds", "bounds"),
    ("diagnoscope.connectivity", "vertex_connectivity", "connectivity"),
    ("diagnoscope.connectivity", "max_common_neighbors", "connectivity"),
    ("diagnoscope.connectivity", "_kappa_value", "connectivity"),
    ("diagnoscope.families", "recognize_exceptional", "recognize"),
    ("diagnoscope.syndrome", "generate_syndrome", "generate"),
    ("diagnoscope.syndrome", "decode", "decode"),
)


def _decide_attrs(args, result):
    return {"refuted": result is not None and not result.diagnosable}


def _sweep_attrs(args, result):
    g, size = args[0], args[1]
    return {"scenarios": comb(g.m, min(size, g.m))}


def _decode_attrs(args, result):
    g, t = args[0], args[2]
    return {
        "sets": sum(comb(g.n, k) for k in range(min(t, g.n) + 1)),
        "unique": result is not None and len(result) == 1,
    }


_ATTRS: Dict[str, Callable] = {"decide": _decide_attrs, "sweep": _sweep_attrs, "decode": _decode_attrs}


def package_modules():
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "diagnoscope" and m]


def leftover_wrappers() -> List[str]:
    """Module attributes of the package that are still tracing wrappers."""
    return [
        f"{m.__name__}.{attr}"
        for m in package_modules()
        for attr, value in vars(m).items()
        if getattr(value, MARK, False)
    ]


class Tracer:
    def __init__(self, clock: Callable[[], float] = perf_counter):
        self.clock = clock
        # span: (kind, parent index or -1, start s, end s, attrs or None)
        self.spans: List[Optional[tuple]] = []
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    def install(self) -> None:
        modules = package_modules()
        for module_name, func_name, kind in TARGETS:
            original = getattr(sys.modules[module_name], func_name)
            wrapper = self._wrap(original, kind)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, kind: str):
        spans, stack, clock, attrs_of = self.spans, self._stack, self.clock, _ATTRS.get(kind)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                attrs = attrs_of(args, result) if attrs_of else None
                spans[index] = (kind, parent, start, end, attrs)

        wrapper.__wrapped__ = fn
        setattr(wrapper, MARK, True)
        return wrapper

    def write(self, path: str, job_label: str) -> None:
        """Write the spans as JSON lines; every span carries the job label."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, (kind, parent, start, end, attrs) in enumerate(self.spans):
                record = {"job": job_label, "id": index, "parent": parent, "kind": kind,
                          "start_s": start, "end_s": end}
                if attrs:
                    record.update(attrs)
                fh.write(json.dumps(record) + "\n")


def span_totals(spans) -> Dict[str, float]:
    """Additive per-layer totals of one child's spans.

    Times are inclusive except ``mm_self_s`` (sweep span minus its direct
    children).  ``connectivity`` counts only calls entered from another
    layer, so nested connectivity calls are not counted twice.
    """
    totals = dict.fromkeys(
        ("decisions", "refuted", "decide_s", "pmc_calls", "pmc_s", "mm_calls", "mm_self_s",
         "mm_scenarios", "mm_decisions", "bounds_calls", "bounds_s", "conn_calls", "conn_s",
         "recognize_calls", "recognize_s", "generate_s", "decode_calls", "decode_s",
         "decode_sets", "decode_unique"),
        0,
    )
    in_sweep = [False] * len(spans)
    child_s = [0.0] * len(spans)
    for index, (kind, parent, start, end, attrs) in enumerate(spans):
        if parent >= 0:
            in_sweep[index] = in_sweep[parent] or spans[parent][0] == "sweep"
            child_s[parent] += end - start
    for index, (kind, parent, start, end, attrs) in enumerate(spans):
        seconds = end - start
        if kind == "decide":
            totals["decisions"] += 1
            totals["refuted"] += attrs["refuted"]
            totals["decide_s"] += seconds
            totals["mm_decisions"] += in_sweep[index]
        elif kind == "pmc":
            totals["pmc_calls"] += 1
            totals["pmc_s"] += seconds
        elif kind == "sweep":
            totals["mm_calls"] += 1
            totals["mm_self_s"] += seconds - child_s[index]
            totals["mm_scenarios"] += attrs["scenarios"]
        elif kind == "bounds":
            totals["bounds_calls"] += 1
            totals["bounds_s"] += seconds
        elif kind == "connectivity":
            if parent < 0 or spans[parent][0] != "connectivity":
                totals["conn_calls"] += 1
                totals["conn_s"] += seconds
        elif kind == "recognize":
            totals["recognize_calls"] += 1
            totals["recognize_s"] += seconds
        elif kind == "generate":
            totals["generate_s"] += seconds
        elif kind == "decode":
            totals["decode_calls"] += 1
            totals["decode_s"] += seconds
            totals["decode_sets"] += attrs["sets"]
            totals["decode_unique"] += attrs["unique"]
    return totals


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics from totals summed over one iteration's children.

    Besides the span totals, ``t`` holds the lru_cache statistics and the
    verify verdict counts that every child reports.
    """
    return {
        "diagnosis.decisions": t["decisions"],
        "diagnosis.decide_s": t["decide_s"],
        "diagnosis.refuted_ratio": _ratio(t["refuted"], t["decisions"]),
        "diagnosis.cache_hits": t["diagnosability_hits"],
        "diagnosis.cache_misses": t["diagnosability_misses"],
        "tolerance.pmc.calls": t["pmc_calls"],
        "tolerance.pmc.s": t["pmc_s"],
        "tolerance.pmc.table_hits": t["pmc_table_hits"],
        "tolerance.mm.calls": t["mm_calls"],
        "tolerance.mm.self_s": t["mm_self_s"],
        "tolerance.mm.scenarios": t["mm_scenarios"],
        "tolerance.mm.decisions": t["mm_decisions"],
        "tolerance.mm.decisions_per_scenario": _ratio(t["mm_decisions"], t["mm_scenarios"]),
        "tolerance.bounds.calls": t["bounds_calls"],
        "tolerance.bounds.s": t["bounds_s"],
        "tolerance.cache_hits": t["tolerance_hits"],
        "connectivity.calls": t["conn_calls"],
        "connectivity.s": t["conn_s"],
        "families.recognize.calls": t["recognize_calls"],
        "families.recognize.s": t["recognize_s"],
        "syndrome.generate.s": t["generate_s"],
        "syndrome.decode.calls": t["decode_calls"],
        "syndrome.decode.s": t["decode_s"],
        "syndrome.decode.sets_checked": t["decode_sets"],
        "syndrome.decode.unique_ratio": _ratio(t["decode_unique"], t["decode_calls"]),
        "verification.rows": t["rows"],
        "verification.pass": t["pass"],
        "verification.fail": t["fail"],
        "verification.not_met": t["hypothesis_not_met"],
        "verification.budget_exceeded": t["budget_exceeded"],
    }
