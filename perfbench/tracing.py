"""Spans around algdyn's public functions, installed from outside the package.

``install(tracer)`` replaces each traced function by a wrapper that records
a span (name, start, end, parent span, request id, counts) in the tracer's
in-memory list.  The wrapper is bound under every name that refers to the
original: the defining module, each algdyn module that imported it by name
(``independence.group_element``, ``entropy.fundamental_homoclinic``, the
package namespace) and the CLI's handler table, so calls across modules are
caught.  Per-element helpers called in inner loops (``mul_words``,
``reduce_word``, ``frac_center``, ``evaluate`` and the like) are left alone:
a span per call would cost more than the work it times.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

# module -> traced attributes; "Class.method" patches the class.
TARGETS = {
    "groupring": ["GroupRingMatrix.det", "GroupRingMatrix.adjugate", "parse_element", "ball"],
    "_kernels": ["grid_abs_values", "greedy_separated"],
    "torus": ["certify_invertible", "certify_matrix_invertible", "l1_inverse", "matrix_l1_inverse",
              "conv_with_element", "conv_frac"],
    "expansive": ["is_expansive_principal", "is_expansive_square", "has_finite_entropy", "exact_divide",
                  "entropy_finiteness_equals_one_expansiveness_note"],
    "entropy": ["mahler_measure", "duality_check", "peters_entropy", "packing_lower_bound"],
    "homoclinic": ["_star_inverse", "fundamental_homoclinic", "group_element", "annihilation_residual",
                   "delta1_membership", "membership_tolerance"],
    "independence": ["independence_witnesses", "shadow", "greedy_separated_subset", "interaction_radius",
                     "inverse_tail_radius"],
    "freegroup": ["verify_annihilator", "annihilator_series", "sphere", "mul_truncated"],
    "cli": ["main", "run_expansive", "run_entropy", "run_homoclinic", "run_ie", "run_shadow",
            "run_duality", "run_freegroup_check", "run_pipeline"],
}


def _grid_ops(args, kw, res):
    n, d = np.shape(args[0])
    return {"ops": n * int(args[2]) ** d}


# span name -> counts read from the call's arguments and its result
COUNTERS = {
    "kernels.grid_abs_values": _grid_ops,
    "kernels.greedy_separated": lambda a, k, r: {"rows": int(np.shape(a[0])[0])},
    "torus.certify_invertible": lambda a, k, r: {
        "grid_points": r.grid_size ** a[0].d, "unknown": int(r.verdict == "Unknown")},
    "entropy.mahler_measure": lambda a, k, r: {"excluded_points": r.parameters["excluded_points"]},
    "groupring.det": lambda a, k, r: {"terms": r.num_terms()},
    "torus.l1_inverse": lambda a, k, r: {"terms": len(r.terms)},
    "independence.independence_witnesses": lambda a, k, r: {"witnesses_checked": r.witnesses_checked},
    "entropy.packing_lower_bound": lambda a, k, r: {
        "family_size": r.parameters["family_size"], "separated_count": r.parameters["separated_count"]},
    "entropy.peters_entropy": lambda a, k, r: {"rows": sum(row["count"] for row in r.series)},
    "freegroup.verify_annihilator": lambda a, k, r: {"checked_words": r.checked_words},
}


def span_name(module: str, attr: str) -> str:
    return f"{module.lstrip('_')}.{attr.split('.')[-1].lstrip('_')}"


class Tracer:
    """Spans of one worker pass, kept in memory until the pass ends."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, request, counts]
        self.stack: list[int] = []
        self.request: int | None = None

    def wrap(self, name: str, fn):
        spans, stack, counter = self.spans, self.stack, COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every target under all of its names."""
    mods = {m: importlib.import_module(f"algdyn.{m}") for m in TARGETS}
    namespaces = list(mods.values()) + [importlib.import_module("algdyn")]
    for m, attrs in TARGETS.items():
        for attr in attrs:
            name = span_name(m, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mods[m], cls_name)
                setattr(cls, meth, tracer.wrap(name, getattr(cls, meth)))
            else:
                orig = getattr(mods[m], attr)
                wrapped = tracer.wrap(name, orig)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is orig:
                            setattr(ns, key, wrapped)
                handlers = mods["cli"]._HANDLERS
                for key, val in list(handlers.items()):
                    if val is orig:
                        handlers[key] = wrapped


def layer_totals(spans: list) -> dict[str, dict]:
    """Per span name: calls, self time (duration minus direct children), counts."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    out: dict[str, dict] = {}
    for i, (name, t0, t1, _, _, counts) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += (t1 - t0) - child[i]
        for key, v in (counts or {}).items():
            agg[key] = agg.get(key, 0) + v
    return out
