"""Per-layer tracing for the traced benchmark run, from outside the program.

The tracer replaces, for the length of one traced pass, the names
that ``nctopo.cli`` and ``nctopo.classify`` import from the other modules,
the two kernel entry points in ``nctopo._kernels`` and two methods of
``SimplicialComplex`` with wrappers that record a span per call.  A span's
self time is its duration minus the durations of the wrapped calls made
inside it, so the self times of all spans add up to the time spent in the
outermost wrapped call.  Counts are read from arguments and results (the
maximal simplices of a complex, the shape of a boundary matrix) in hooks
that run outside every timed window: hook time is charged to no span and
is taken out of the wall time that coverage is measured against.  Hooks
never call methods that fill the program's lazy caches, such as
``faces()`` or ``f_vector()``.

A wrapped name that no longer exists, or a layer that a workload must
reach and did not, raises ``TraceError`` instead of reporting zeros.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

# Program functions defined in these modules are wrapped as the program's
# entry points; everything else in their namespaces is wrapped when it is
# an nctopo function they import.
ENTRY_POINTS = {
    "nctopo.cli": ("main",),
    "nctopo.classify": ("verify", "analyze_graph"),
}

# Names whose absence means a per-layer metric has lost its source.
REQUIRED_NAMES = {
    "nctopo.cli": ("main", "verify"),
    "nctopo.classify": (
        "verify",
        "analyze_graph",
        "circulant",
        "find_fold",
        "fold_reduce",
        "neighborhood_complex",
        "collapse_core",
        "homology",
        "classify_surface",
        "tetrahedron_boundary_pieces",
        "wedge_shelling_orders",
        "verify_shelling",
    ),
    "nctopo._kernels": ("snf_diagonal", "gf2_rank"),
}

_CORE_SPANS = (
    "complexes.neighborhood_complex",
    "complexes.init",
    "complexes.components",
    "collapse.collapse_core",
    "homology.homology",
    "kernels.snf_diagonal",
    "kernels.gf2_rank",
    "surfaces.classify_surface",
)

# Spans that must receive calls on each workload.
REQUIRED_CALLS = {
    "sweep": _CORE_SPANS
    + (
        "cli.main",
        "classify.verify",
        "graphs.circulant",
        "graphs.find_fold",
        "graphs.fold_reduce",
        "surfaces.tetrahedron_boundary_pieces",
        "shelling.wedge_shelling_orders",
        "shelling.verify_shelling",
    ),
    "torus": _CORE_SPANS + ("classify.verify", "graphs.circulant", "graphs.find_fold"),
    "graphs": _CORE_SPANS + ("classify.analyze_graph", "graphs.fold_reduce"),
}


MIN_COVERAGE = 0.95


class TraceError(RuntimeError):
    """The traced run lost a layer: a wrapped name is gone or got no calls."""


def span_name(fn):
    """Layer-qualified span name: the defining module, then the function."""
    layer = fn.__module__.rsplit(".", 1)[-1].lstrip("_")
    name = "init" if fn.__name__ == "__init__" else fn.__name__
    return f"{layer}.{name}"


class Tracer:
    """Span and count recorder; ``installed()`` wraps the program."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.snf_max_side = 0
        self.verify_case_s = defaultdict(float)
        self.hook_s = 0.0
        self._stack = []
        self._wrappers = self._build_wrappers()

    # -- recording -------------------------------------------------------

    def _hook(self, hook, *args):
        h0 = time.perf_counter()
        hook(*args)
        dt = time.perf_counter() - h0
        self.hook_s += dt
        if self._stack:
            self._stack[-1] += dt

    def _span(self, fn, before=None, after=None):
        name = span_name(fn)
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                self._hook(before, args, kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[name] += dt - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += dt
            if after is not None:
                self._hook(after, args, kwargs, result, dt)
            return result

        return wrapper

    def _count(self, fn, key):
        # Counts calls without a span, so the time stays with the caller.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks -----------------------------------------------------------

    def _before_snf(self, args, kwargs):
        mat = args[0]
        rows = len(mat)
        cols = len(mat[0]) if rows else 0
        self.counts["snf_cells"] += rows * cols
        self.counts["snf_nnz"] += sum(len(r) - r.count(0) for r in mat)
        self.snf_max_side = max(self.snf_max_side, rows, cols)

    def _after_init(self, args, kwargs, result, dt):
        self.counts["constructions"] += 1
        self.counts["facets"] += len(args[0].maximal_simplices)

    def _after_collapse(self, args, kwargs, trace, dt):
        strategy = kwargs.get("strategy", args[1] if len(args) > 1 else "generic")
        self.counts["pairs"] += len(trace.pairs)
        self.counts["core_facets"] += len(trace.core.maximal_simplices)
        if strategy == "circulant":
            self.counts["circulant_calls"] += 1
            if trace.schedule is not None:
                self.counts["schedule_hits"] += 1

    def _after_fold_reduce(self, args, kwargs, reduced, dt):
        self.counts["folds"] += args[0].num_vertices - reduced.num_vertices

    def _after_verify(self, args, kwargs, report, dt):
        self.verify_case_s[report.case.tag] += dt

    _HOOKS = {
        "kernels.snf_diagonal": ("_before_snf", None),
        "complexes.init": (None, "_after_init"),
        "collapse.collapse_core": (None, "_after_collapse"),
        "graphs.fold_reduce": (None, "_after_fold_reduce"),
        "classify.verify": (None, "_after_verify"),
    }

    # -- installation ----------------------------------------------------

    def _wrap(self, fn):
        before, after = self._HOOKS.get(span_name(fn), (None, None))
        return self._span(
            fn,
            before=getattr(self, before) if before else None,
            after=getattr(self, after) if after else None,
        )

    def _build_wrappers(self):
        """(owner, attribute, wrapper) for every name the trace replaces."""
        from nctopo import _kernels
        from nctopo.complexes import SimplicialComplex

        missing = []
        for modname, names in REQUIRED_NAMES.items():
            mod = importlib.import_module(modname)
            missing.extend(f"{modname}.{n}" for n in names if not hasattr(mod, n))
        for method in ("__init__", "components"):
            if method not in vars(SimplicialComplex):
                missing.append(f"SimplicialComplex.{method}")
        if missing:
            raise TraceError("traced names no longer exist: " + ", ".join(missing))

        out = []
        for modname, entries in ENTRY_POINTS.items():
            mod = importlib.import_module(modname)
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__.startswith("nctopo.")
                    and (obj.__module__ != modname or attr in entries)
                ):
                    out.append((mod, attr, self._wrap(obj)))
        for attr in REQUIRED_NAMES["nctopo._kernels"]:
            out.append((_kernels, attr, self._wrap(getattr(_kernels, attr))))
        for method in ("__init__", "components"):
            out.append((SimplicialComplex, method, self._wrap(vars(SimplicialComplex)[method])))
        if _kernels.BACKEND != "pure":
            # On the compiled backend every call of the pure Smith kernel is
            # an overflow fallback from the dispatch wrapper.
            out.append(
                (_kernels.pure, "snf_diagonal", self._count(_kernels.pure.snf_diagonal, "snf_overflow_fallbacks"))
            )
        return out

    def installed(self):
        """Context manager that wraps the program and restores it on exit."""
        return _Installed(self._wrappers)

    # -- results ---------------------------------------------------------

    def layer_self_s(self, layer):
        return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer)

    def metrics(self, workload, traced_wall_s, overhead):
        """Per-layer metrics as {name: (value, unit)}.

        traced_wall_s is the wall time of the traced calls into the program
        as the benchmark clocked them.  Raises TraceError when a layer the
        workload must reach got no calls, or when the spans account for
        less than MIN_COVERAGE of that time.
        """
        silent = [name for name in REQUIRED_CALLS[workload] if not self.calls[name]]
        if silent:
            raise TraceError(f"{workload}: traced layers received no calls: " + ", ".join(silent))
        s = self.self_s
        c = self.counts
        coverage = sum(s.values()) / (traced_wall_s - self.hook_s)
        if coverage < MIN_COVERAGE:
            raise TraceError(f"{workload}: spans cover {coverage:.3f} of the traced wall time")
        verify_total = sum(self.verify_case_s.values())
        return {
            "cli.sweep_s": (s["cli.main"], "s"),
            "cli.self_s": (self.layer_self_s("cli"), "s"),
            "classify.verify_s": (s["classify.verify"], "s"),
            "classify.analyze_graph_s": (s["classify.analyze_graph"], "s"),
            "classify.self_s": (self.layer_self_s("classify"), "s"),
            "classify.verify_i4c_share": (
                self.verify_case_s["I4C"] / verify_total if verify_total else 0.0,
                "ratio",
            ),
            "graphs.circulant_s": (s["graphs.circulant"], "s"),
            "graphs.find_fold_s": (s["graphs.find_fold"], "s"),
            "graphs.fold_reduce_s": (s["graphs.fold_reduce"], "s"),
            "graphs.self_s": (self.layer_self_s("graphs"), "s"),
            "graphs.folds": (c["folds"], "count"),
            "complexes.neighborhood_complex_s": (s["complexes.neighborhood_complex"], "s"),
            "complexes.init_s": (s["complexes.init"], "s"),
            "complexes.components_s": (s["complexes.components"], "s"),
            "complexes.constructions": (c["constructions"], "count"),
            "complexes.facets": (c["facets"], "count"),
            "complexes.core_facets": (c["core_facets"], "count"),
            "collapse.collapse_core_s": (s["collapse.collapse_core"], "s"),
            "collapse.pairs": (c["pairs"], "count"),
            "collapse.schedule_hit_ratio": (
                c["schedule_hits"] / c["circulant_calls"] if c["circulant_calls"] else 0.0,
                "ratio",
            ),
            "homology.homology_s": (s["homology.homology"], "s"),
            "homology.self_s": (self.layer_self_s("homology"), "s"),
            "kernels.snf_s": (s["kernels.snf_diagonal"], "s"),
            "kernels.snf_calls": (self.calls["kernels.snf_diagonal"], "count"),
            "kernels.snf_cells": (c["snf_cells"], "count"),
            "kernels.snf_nnz": (c["snf_nnz"], "count"),
            "kernels.snf_max_side": (self.snf_max_side, "count"),
            "kernels.snf_overflow_fallbacks": (c["snf_overflow_fallbacks"], "count"),
            "kernels.gf2_s": (s["kernels.gf2_rank"], "s"),
            "kernels.gf2_calls": (self.calls["kernels.gf2_rank"], "count"),
            "surfaces.classify_surface_s": (s["surfaces.classify_surface"], "s"),
            "surfaces.tetrahedron_boundary_pieces_s": (s["surfaces.tetrahedron_boundary_pieces"], "s"),
            "shelling.wedge_shelling_orders_s": (s["shelling.wedge_shelling_orders"], "s"),
            "shelling.verify_shelling_s": (s["shelling.verify_shelling"], "s"),
            "trace.coverage": (coverage, "ratio"),
            "trace.overhead": (overhead, "ratio"),
        }


class _Installed:
    def __init__(self, wrappers):
        self._wrappers = wrappers
        self._saved = []

    def __enter__(self):
        for owner, attr, wrapper in self._wrappers:
            self._saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False
