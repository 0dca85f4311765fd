"""Spans around calls into kscolor's layers, recorded from outside the package.

``Tracer.installed()`` replaces each entry point listed in ``ENTRY_POINTS``
with a wrapper, wherever a kscolor module holds a reference to it, and
puts the originals back on exit.  Per-element helpers (``canonicalize``,
``mat_mul``, ``project_mod_p`` ...) are left alone: a wrapper there would
cost more than the work it measures.  Spans are kept in memory as
``[name, start_ns, end_ns, parent, op, counts]`` and written by the caller
once, at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from contextlib import contextmanager

ENTRY_POINTS = {
    "vectors": ("build_Q", "build_Qn", "enumerate_S", "parse_vector_set",
                "format_vector_set", "load_vector_set", "save_vector_set",
                "VectorSet.is_symmetry_invariant", "VectorSet.union"),
    "orthograph": ("build_graph", "graph_stats", "to_dot", "OrthoGraph.stats",
                   "OrthoGraph.contexts_of"),
    "solver": ("solve", "solve_bruteforce", "solve_set", "verify_coloring", "export_cnf",
               "to_dimacs", "cnf_bruteforce_satisfiable", "solve_cnf", "format_coloring",
               "parse_coloring"),
    "certificate": ("verify_certificate", "parse_certificate", "load_certificate",
                    "load_bundled_certificate"),
    "ffproj": ("enumerate_projections", "search_ba_coloring", "reduce_set_mod_p",
               "restricted_ks_search", "format_projections", "parse_projections",
               "ProjAlgebra.rank_counts"),
}
LAYERS = ("cli", *ENTRY_POINTS)


def _solver_counts(prefix):
    def counts(result):
        st = result.stats
        return {f"{prefix}.nodes": st.nodes, f"{prefix}.propagations": st.propagations,
                f"{prefix}.max_depth": st.max_depth}
    return counts


def _graph_counts(g):
    n = len(g)
    return {"orthograph.vertices": n, "orthograph.edges": len(g.edges),
            "orthograph.triples": len(g.triples), "orthograph.pairs": n * (n - 1) // 2}


#: Counts read off the return value of an entry point.
COUNTERS = {
    "orthograph.build_graph": _graph_counts,
    "solver.solve": _solver_counts("solver"),
    "ffproj.restricted_ks_search": _solver_counts("ffproj"),
    "ffproj.enumerate_projections": lambda a: {"ffproj.projections": len(a)},
    "ffproj.reduce_set_mod_p": lambda r: {"ffproj.reduced_projections": len(r.projections)},
}
#: Timed entry points reported as per-layer metrics, in seconds.
TIMED = ("vectors.enumerate_S", "orthograph.build_graph", "solver.solve",
         "solver.verify_coloring", "ffproj.enumerate_projections",
         "ffproj.search_ba_coloring", "ffproj.reduce_set_mod_p",
         "ffproj.restricted_ks_search")
COUNT_NAMES = ("orthograph.vertices", "orthograph.edges", "orthograph.triples",
               "orthograph.pairs", "solver.nodes", "solver.propagations", "solver.max_depth",
               "ffproj.projections", "ffproj.reduced_projections", "ffproj.nodes",
               "ffproj.propagations", "ffproj.max_depth")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None

    def _wrap(self, name, fn):
        spans, stack, counter = self.spans, self._stack, COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, time.perf_counter_ns(), 0, stack[-1] if stack else None, self.op, None]
            spans.append(span)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if counter is not None:
                span[5] = counter(result)
            return result

        return traced

    @contextmanager
    def op_span(self, name, op):
        """Root span of one operation; entry-point spans nest under it."""
        self.op = op
        span = [name, time.perf_counter_ns(), 0, None, op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()

    @contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        undo = []
        modules = [importlib.import_module(f"kscolor.{m}") for m in ENTRY_POINTS]
        holders = [m for key, m in list(sys.modules.items())
                   if key == "kscolor" or key.startswith("kscolor.")]
        try:
            for mod, names in zip(modules, ENTRY_POINTS.values()):
                layer = mod.__name__.rsplit(".", 1)[1]
                for attr in names:
                    if "." in attr:
                        cls_name, meth = attr.split(".")
                        cls = getattr(mod, cls_name)
                        orig = cls.__dict__[meth]
                        setattr(cls, meth, self._wrap(f"{layer}.{attr}", orig))
                        undo.append((cls, meth, orig))
                        continue
                    orig = getattr(mod, attr)
                    wrapped = self._wrap(f"{layer}.{attr}", orig)
                    for holder in holders:
                        for key, val in list(vars(holder).items()):
                            if val is orig:
                                setattr(holder, key, wrapped)
                                undo.append((holder, key, orig))
            yield self
        finally:
            for obj, key, orig in reversed(undo):
                setattr(obj, key, orig)


def summarize(spans, first: int = 0) -> dict:
    """Per-op totals: inclusive seconds per timed entry point, self ms per layer, counts.

    ``spans`` are one operation's spans; span ids (and parents) start at ``first``.
    """
    out: dict = {f"{n}_s": 0.0 for n in TIMED}
    out.update({f"{layer}.self_ms": 0.0 for layer in LAYERS})
    out.update({c: 0 for c in COUNT_NAMES})
    child_ns = [0] * len(spans)
    for name, start, end, parent, _op, _c in spans:
        if parent is not None:
            child_ns[parent - first] += end - start
    for sid, (name, start, end, _parent, _op, counts) in enumerate(spans):
        dur = end - start
        if name in TIMED:
            out[f"{name}_s"] += dur / 1e9
        layer = name.split(".", 1)[0]
        if layer in LAYERS:
            out[f"{layer}.self_ms"] += (dur - child_ns[sid]) / 1e6
        for key, val in (counts or {}).items():
            out[key] = max(out[key], val) if key.endswith("max_depth") else out[key] + val
    return out


def _same_count(key, vals, where):
    if len(set(vals)) != 1:
        raise ValueError(f"count {key} of {where} did not repeat: {vals}")
    return vals[0]


def mean_summary(summaries, where="a batch") -> dict:
    """Mean of the figures of a batch of calls to one op; counts must agree."""
    return {key: _same_count(key, [s[key] for s in summaries], where) if key in COUNT_NAMES
            else statistics.fmean(s[key] for s in summaries) for key in summaries[0]}


def combine(per_op_rounds: dict) -> dict:
    """Sum over ops of the per-op median of each figure; counts must repeat exactly."""
    total: dict = {}
    for op, rounds in per_op_rounds.items():
        for key in rounds[0]:
            vals = [r[key] for r in rounds]
            if key in COUNT_NAMES:
                val = _same_count(key, vals, op)
                total[key] = max(total.get(key, 0), val) if key.endswith("max_depth") \
                    else total.get(key, 0) + val
            else:
                total[key] = total.get(key, 0.0) + statistics.median(vals)
    return total
