"""Span tracing of clpa's layers from outside the program.

``Tracer.install`` replaces each layer's public entry points, wherever a
clpa module has bound them, with wrappers that record a span (id, name,
start, end, parent, op) per call.  The hot element methods get no span:
``AlgebraContext.from_raw``, ``AlgebraElement.__mul__`` and
``GradedMatrix.__mul__`` only add to a call count and a running time, and
the Laurent polynomial operations only to a count.  ``uninstall`` puts the
originals back.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, function) -> span name
SPANS = {
    ("clpa.classify", "classify"): "classify.classify",
    ("clpa.classify", "build_generator_map"): "classify.build_generator_map",
    ("clpa.classify", "classify_system"): "classify.classify_system",
    ("clpa.algebra", "check_generator_map"): "algebra.check_generator_map",
    ("clpa.algebra", "evaluate_element"): "algebra.evaluate_element",
    ("clpa.gradedmat", "decide_graded_iso"): "gradedmat.decide_graded_iso",
    ("clpa._linalg", "rank_of_sparse"): "linalg.rank_of_sparse",
    ("clpa.graphs", "paths_into"): "graphs.paths_into",
    ("clpa.graphs", "subobject_system"): "graphs.subobject_system",
    ("clpa.graphs", "system_to_dot"): "graphs.system_to_dot",
    ("clpa.monoid", "atomic_cancellative_verdict"): "monoid.atomic_cancellative_verdict",
    ("clpa.monoid", "equal"): "monoid.equal",
    ("clpa.reports", "report"): "reports.report",
    ("clpa.reports", "noetherian_chain_witness"): "reports.noetherian_chain_witness",
    ("clpa.reports", "artinian_failure_witness"): "reports.artinian_failure_witness",
    ("clpa.reports", "relgraph_verify"): "reports.relgraph_verify",
}

# (module, class, method) -> timed counter name (no span)
TIMED = {
    ("clpa.algebra", "AlgebraContext", "from_raw"): "algebra.from_raw",
    ("clpa.algebra", "AlgebraElement", "__mul__"): "algebra.elem_mul",
    ("clpa.gradedmat", "GradedMatrix", "__mul__"): "gradedmat.mul",
}

LAURENT_OPS = ("__add__", "__sub__", "__mul__", "__neg__", "scale", "star")

# per-layer metric -> unit; times are seconds per pass, counts per pass
LAYER_METRICS = {
    "scalars.laurent_ops": "count",
    "gradedmat.mul_calls": "count",
    "gradedmat.mul_s": "s",
    "gradedmat.entry_ops": "count",
    "gradedmat.iso_calls": "count",
    "gradedmat.iso_s": "s",
    "algebra.from_raw_calls": "count",
    "algebra.from_raw_s": "s",
    "algebra.terms_out": "count",
    "algebra.elem_mul_calls": "count",
    "algebra.elem_mul_s": "s",
    "algebra.check_map_s": "s",
    "algebra.axiom_instances": "count",
    "algebra.evaluate_s": "s",
    "classify.build_map_s": "s",
    "classify.surjectivity_s": "s",
    "classify.units_verified": "count",
    "classify.system_s": "s",
    "linalg.rank_s": "s",
    "linalg.rank_cells": "count",
    "graphs.paths_into_s": "s",
    "graphs.paths_enumerated": "count",
    "graphs.subobject_system_s": "s",
    "graphs.subobject_nodes": "count",
    "graphs.dot_s": "s",
    "monoid.verdict_s": "s",
    "monoid.equal_calls": "count",
    "monoid.equal_s": "s",
    "monoid.equal_unknown": "count",
    "reports.report_s": "s",
    "reports.noetherian_witness_s": "s",
    "reports.artinian_witness_s": "s",
    "reports.relgraph_s": "s",
}

CLI_SUBCOMMANDS = ("classify", "analyze", "relgraph", "complete", "monoid",
                   "witness", "iso", "eval")
CLI_METRICS = ["cli.start_s", "cli.import_s"] + [f"cli.{c}_s" for c in CLI_SUBCOMMANDS]

# span name -> metric holding the outermost calls' total time
SPAN_TIME = {
    "gradedmat.decide_graded_iso": "gradedmat.iso_s",
    "algebra.check_generator_map": "algebra.check_map_s",
    "algebra.evaluate_element": "algebra.evaluate_s",
    "classify.build_generator_map": "classify.build_map_s",
    "classify.classify_system": "classify.system_s",
    "linalg.rank_of_sparse": "linalg.rank_s",
    "graphs.paths_into": "graphs.paths_into_s",
    "graphs.subobject_system": "graphs.subobject_system_s",
    "graphs.system_to_dot": "graphs.dot_s",
    "monoid.atomic_cancellative_verdict": "monoid.verdict_s",
    "monoid.equal": "monoid.equal_s",
    "reports.report": "reports.report_s",
    "reports.noetherian_chain_witness": "reports.noetherian_witness_s",
    "reports.artinian_failure_witness": "reports.artinian_witness_s",
    "reports.relgraph_verify": "reports.relgraph_s",
}


def _axiom_instances(obj) -> int:
    """Axiom instances check_generator_map evaluates: vertex products, four
    per edge, edge-ghost products, one per S-vertex, plus the degree checks."""
    nv, ne = len(obj.graph.vertices), len(obj.graph.edges)
    return nv * nv + 4 * ne + ne * ne + len(obj.s_set) + nv + ne


class Tracer:
    def __init__(self):
        self.spans = []             # (id, name, start, end, parent, op)
        self.counts = defaultdict(int)
        self.times = defaultdict(float)
        self._stack = []
        self._op = None
        self._next = 0
        self._patches = []          # (owner, attribute, original)

    # -- recording ----------------------------------------------------------------

    def _enter(self):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def _leave(self, sid, name, parent, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, name, start, end, parent, self._op))

    def op(self, label, fn):
        """Run one benchmark op as a root span."""
        self._op = label
        sid, parent, start = self._enter()
        try:
            return fn()
        finally:
            self._leave(sid, "op." + label.split("/")[0], parent, start)
            self._op = None

    def _span_wrapper(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            sid, parent, start = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(sid, name, parent, start)
            tracer._count(name, args, result)
            return result

        return wrapper

    def _count(self, name, args, result):
        c = self.counts
        if name == "graphs.paths_into":
            c["graphs.paths_enumerated"] += len(result)
        elif name == "graphs.subobject_system":
            c["graphs.subobject_nodes"] += len(result.nodes)
        elif name == "algebra.check_generator_map":
            c["algebra.axiom_instances"] += _axiom_instances(args[0])
        elif name == "classify.build_generator_map":
            c["classify.units_verified"] += sum(
                b.size * b.size * (3 if b.kind == "cycle" else 1) for b in result.blocks)
        elif name == "linalg.rank_of_sparse":
            vectors = args[0]
            c["linalg.rank_cells"] += len(vectors) * len({k for v in vectors for k in v})
        elif name == "monoid.equal":
            c["monoid.equal_calls"] += 1
            c["monoid.equal_unknown"] += result.verdict == "unknown"
        elif name == "gradedmat.decide_graded_iso":
            c["gradedmat.iso_calls"] += 1

    def _timed_wrapper(self, fn, name):
        counts, times, clock = self.counts, self.times, time.perf_counter
        calls = name + "_calls"
        if name == "gradedmat.mul":
            def wrapper(self_, other):
                start = clock()
                try:
                    return fn(self_, other)
                finally:
                    times[name] += clock() - start
                    counts[calls] += 1
                    counts["gradedmat.entry_ops"] += self_.algebra.size ** 3
        elif name == "algebra.from_raw":
            def wrapper(self_, terms):
                start = clock()
                try:
                    result = fn(self_, terms)
                finally:
                    times[name] += clock() - start
                    counts[calls] += 1
                counts["algebra.terms_out"] += len(result.terms)
                return result
        else:
            def wrapper(self_, other):
                start = clock()
                try:
                    return fn(self_, other)
                finally:
                    times[name] += clock() - start
                    counts[calls] += 1
        return wrapper

    def _counted_wrapper(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts["scalars.laurent_ops"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -------------------------------------------------------------------

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "clpa" or n.startswith("clpa.")) and m is not None]
        for (mod, fname), name in SPANS.items():
            original = getattr(sys.modules[mod], fname)
            wrapped = self._span_wrapper(original, name)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, attr, wrapped)
        for (mod, cls, meth), name in TIMED.items():
            owner = getattr(sys.modules[mod], cls)
            self._patch(owner, meth, self._timed_wrapper(vars(owner)[meth], name))
        laurent = sys.modules["clpa.scalars"].LaurentPoly
        for meth in LAURENT_OPS:
            self._patch(laurent, meth, self._counted_wrapper(vars(laurent)[meth]))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr) if isinstance(owner, type)
                              else vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reduction ------------------------------------------------------------------

    def totals(self) -> dict:
        """Layer totals: counts, timed counters and outermost span times."""
        by_id = {s[0]: s for s in self.spans}

        def inside(span, name):
            parent = span[4]
            while parent is not None:
                p = by_id[parent]
                if p[1] == name:
                    return p
                parent = p[4]
            return None

        out = {k: 0.0 if LAYER_METRICS[k] == "s" else 0 for k in LAYER_METRICS}
        for k, v in self.counts.items():
            out[k] += v
        for name in ("algebra.from_raw", "algebra.elem_mul", "gradedmat.mul"):
            out[name + "_s"] += self.times[name]
        check_in_build = 0.0
        for span in self.spans:
            name, dur = span[1], span[3] - span[2]
            metric = SPAN_TIME.get(name)
            if metric and inside(span, name) is None:
                out[metric] += dur
            if name == "algebra.check_generator_map" and inside(span, name) is None:
                if inside(span, "classify.build_generator_map") is not None:
                    check_in_build += dur
        out["classify.surjectivity_s"] = out["classify.build_map_s"] - check_in_build
        return out

    def self_times(self) -> dict:
        """Span name -> total self time (duration minus child spans)."""
        child = defaultdict(float)
        for s in self.spans:
            if s[4] is not None:
                child[s[4]] += s[3] - s[2]
        out = defaultdict(float)
        for s in self.spans:
            out[s[1]] += s[3] - s[2] - child[s[0]]
        return dict(out)

    def dump(self, path: str, extra: dict):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "self_times": self.self_times(),
                       "totals": self.totals(), **extra}, fh)


def add_totals(into: dict, more: dict):
    for k, v in more.items():
        into[k] = into.get(k, 0) + v
