"""Time the pipeline's stages on the inputs the pipeline hands them.

``record(run)`` wraps the stage entries while ``run()`` runs and returns
what each was given; the test fixture ``pipeline_inputs`` records with it
too.  Recorded here: the torus case I4C at n = 80, 160 and 320
(``verify(n, 1, 4)``), all 571 instances of the n = 5..25 sweep, and
``analyze_graph`` on the benchmark's graph pool at seed 0 (generated by
``perfbench/run.py``, imported and not modified).

Each stage in ``STAGES`` is timed as one pass over its recorded inputs,
best of three.  ``collapse_core`` and ``fold_reduce`` get their recorded
arguments; ``snf`` (``_kernels.snf_diagonal``) gets a fresh copy of each
recorded boundary, made outside the clock, since a boundary builds its
rows on first read and keeps them, and the pipeline hands each one to
the Smith entry once; ``construct``
replays every recorded ``SimplicialComplex(...)`` call, so each checkout
times the calls its own pipeline makes.  The other three run as the
pipeline runs them: each pass first rebuilds every collapsed core outside
the clock, then times ``components`` on the fresh cores and ``homology``
and ``classify_surface`` on the components the pipeline measured, in that
order: the first component of each ``verify`` core, whose rotations share
its report, and every component of each ``analyze_graph`` core.  So no
pass reads a cache an earlier pass filled: ``homology`` pays for
enumerating faces, and ``classify_surface`` reads the faces ``homology``
enumerated, as in ``classify._measure``.  A core arrives from
``collapse_core`` with the ``cofaces(d)`` indices its free-face screen
built, so each rebuilt core gets those indices again, outside the clock,
and ``homology`` is not charged for them twice.

Each run is appended under ``--label`` in ``BENCH_stages.json``, next to
the entries of other checkouts, with machine and Python metadata, and the
label's ``stages`` become the per-stage medians over all its runs.  Give
each checkout a label of its own, and time it with its own copy of this
script, which knows the matrices its pipeline hands the Smith entry.
Machine drift moves every run of one stretch alike, so alternate the
checkouts run by run rather than timing one after the other:

    for i in 1 2 3 4 5; do
        (cd ../parent && PYTHONPATH=src python3 benchmarks/bench_stages.py \
            --label parent-abc1234 --out ../change/BENCH_stages.json)
        PYTHONPATH=src python3 benchmarks/bench_stages.py --label change-def5678
    done
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import nctopo
from nctopo import SimplicialComplex, _kernels, classify, homology
from nctopo.cli import admissible_triples

ROOT = Path(__file__).resolve().parent.parent

STAGES = (
    "collapse_core",
    "construct",
    "components",
    "classify_surface",
    "fold_reduce",
    "snf",
    "homology",
)
ABOUT = (
    "benchmarks/bench_stages.py: seconds for one pass over each workload's "
    "recorded inputs, best of three, per checkout (runs). A label keeps "
    "every run made under it in its runs list, and its stages are the "
    "per-stage medians over them; each checkout gets a label of its own, "
    "and checkouts are alternated run by run so that machine drift falls "
    "on both alike. Labels up to 5306d6c-warm-caches timed homology and "
    "classify_surface on cores whose face caches an earlier pass had filled "
    "and had a normalize stage, so their homology figures are not comparable "
    "with later labels. Older labels hold one run each; those ending in "
    "/pure or /compiled name the kernel backend of the time. The gate "
    "entries are end-to-end sweep and torus seconds, pure against the "
    "compiled kernel backend that has since been removed, best of the "
    "alternating rounds, with every round's sweep seconds; the script no "
    "longer writes them. Labels up to faces-once timed homology on bare "
    "copies of the cores, so it paid again for the cofaces(d) indices that "
    "the collapse screen had built; later labels rebuild those indices on "
    "each copy outside the clock. Labels up to trim-reach timed homology and "
    "classify_surface on every component of every core, and counted every "
    "component; later labels time and count only the components the pipeline "
    "measures, the first of each verify core and every component of each "
    "analyze_graph core. Labels from parent-8a1e290 on were made under the "
    "rule that each checkout runs its own copy of this script; from "
    "change-boundary on, snf is timed on fresh copies of the recorded "
    "boundary matrices, whose rows no earlier call has built (parent-8a1e290 "
    "handed the kernel plain row lists, which keep no cache)"
)


def record(run):
    """Call run() and return what the pipeline handed its stages meanwhile.

    The dict holds, in call order: ``builds``, the ``(args, kwargs)`` of
    every ``SimplicialComplex(...)`` call, with the generating family
    materialised as a list; ``collapses``, the ``((complex, strategy,
    circulant), trace, built)`` of every ``collapse_core`` call, built
    being the dimensions d, top first, whose ``cofaces(d)`` the core had
    built when the call returned; ``folds``, the
    graphs handed to ``fold_reduce``; ``snf``, the matrices handed to
    ``_kernels.snf_diagonal``; and ``surfaces``, the complexes handed to
    ``classify_surface``.  Every wrapped name is restored when run returns
    or raises.
    """
    rec = {key: [] for key in ("builds", "collapses", "folds", "snf", "surfaces")}
    init, collapse = SimplicialComplex.__init__, classify.collapse_core

    def record_init(self, simplices, *args, **kwargs):
        simplices = list(simplices)
        rec["builds"].append(((simplices, *args), kwargs))
        init(self, simplices, *args, **kwargs)

    def record_collapse(k, strategy="generic", circulant=None):
        trace = collapse(k, strategy=strategy, circulant=circulant)
        built = tuple(sorted(trace.core._cofaces, reverse=True))
        rec["collapses"].append(((k, strategy, circulant), trace, built))
        return trace

    def record_argument(fn, key):
        def wrapper(arg):
            rec[key].append(arg)
            return fn(arg)

        return wrapper

    patches = [
        (SimplicialComplex, "__init__", record_init),
        (classify, "collapse_core", record_collapse),
        (classify, "fold_reduce", record_argument(classify.fold_reduce, "folds")),
        (_kernels, "snf_diagonal", record_argument(_kernels.snf_diagonal, "snf")),
        (classify, "classify_surface", record_argument(classify.classify_surface, "surfaces")),
    ]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, wrapper in patches:
            setattr(owner, name, wrapper)
        run()
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)
    return rec


def _best_of(fn, items, fresh=None):
    """Best of three passes over items; None when there is nothing to time.
    With ``fresh``, each pass calls fn on ``fresh(item)`` for every item,
    all made before the clock starts."""
    if not items:
        return None
    best = None
    for _ in range(3):
        batch = items if fresh is None else list(map(fresh, items))
        t0 = time.perf_counter()
        for item in batch:
            fn(item)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def fresh_boundary(mat):
    """A copy of a recorded boundary with no rows built."""
    return _kernels.Boundary(mat.nrows, mat.ncols, mat.positions)


def fresh_core(core, built):
    """A copy of core with no caches but the ``cofaces(d)`` for d in built,
    built top dimension first, as the collapse screen builds them."""
    fresh = SimplicialComplex(core.maximal_simplices, antichain=True)
    for d in built:
        fresh.cofaces(d)
    return fresh


def _core_stages(collapses, surfaces):
    """Best of three passes of components, homology and classify_surface,
    in pipeline order: components on fresh copies of the recorded cores,
    the other two on fresh copies of the components the pipeline measured.

    A measured component that is a whole core, because the core is
    connected, is that core's fresh copy, as ``components()`` returns a
    connected core itself; any other is a bare copy, as ``components()``
    builds it.
    """
    best = dict.fromkeys(("components", "homology", "classify_surface"))
    for _ in range(3):
        fresh = {id(trace.core): fresh_core(trace.core, built) for _, trace, built in collapses}
        comps = [fresh[id(k)] if id(k) in fresh else fresh_core(k, ()) for k in surfaces]
        t0 = time.perf_counter()
        for core in fresh.values():
            core.components()
        t1 = time.perf_counter()
        for comp in comps:
            homology(comp)
        t2 = time.perf_counter()
        for comp in comps:
            nctopo.classify_surface(comp)
        t3 = time.perf_counter()
        for stage, dt in zip(best, (t1 - t0, t2 - t1, t3 - t2)):
            best[stage] = dt if best[stage] is None else min(best[stage], dt)
        del fresh, comps  # freed here, not on the next pass's clock
    return best


def workloads():
    """Recorded inputs per workload; perfbench/ must be on the path."""
    from run import FULL, graph_pool

    out = {}
    for n in FULL.torus_sizes:
        out[f"torus n={n}"] = record(lambda n=n: classify.verify(n, 1, 4))
    triples = admissible_triples(*FULL.sweep_range)
    out[f"sweep n=5..25 ({len(triples)} instances)"] = record(
        lambda: [classify.verify(*t) for t in triples]
    )
    pool = graph_pool(FULL, 0)
    out[f"graphs seed 0 ({len(pool)} graphs)"] = record(
        lambda: [classify.analyze_graph(g) for g in pool]
    )
    return out


def measure():
    rows = {}
    for name, rec in workloads().items():
        cores = [trace.core for _, trace, _ in rec["collapses"]]
        rows[name] = {
            "cores": len(cores),
            "core_facets": sum(len(c.maximal_simplices) for c in cores),
            "components": len(rec["surfaces"]),
            "graphs": len(rec["folds"]),
            "snf_matrices": len(rec["snf"]),
            "constructions": len(rec["builds"]),
            "collapse_core_s": _best_of(lambda c: nctopo.collapse_core(*c[0]), rec["collapses"]),
            "construct_s": _best_of(lambda b: SimplicialComplex(*b[0], **b[1]), rec["builds"]),
            "fold_reduce_s": _best_of(nctopo.fold_reduce, rec["folds"]),
            "snf_s": _best_of(_kernels.snf_diagonal, rec["snf"], fresh_boundary),
        }
        for stage, dt in _core_stages(rec["collapses"], rec["surfaces"]).items():
            rows[name][stage + "_s"] = dt
    return rows


def medians(runs):
    """Per workload, each stage's median seconds over runs (None when the
    stage had nothing to time); the input counts of the last run."""
    out = {}
    for name, row in runs[-1].items():
        out[name] = dict(row)
        for stage in STAGES:
            key = stage + "_s"
            values = [run[name][key] for run in runs if run[name][key] is not None]
            out[name][key] = statistics.median(values) if values else None
    return out


def _seconds(value):
    return "-" if value is None else f"{value:.4f}s"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="entry name, e.g. parent")
    ap.add_argument("--out", default=str(ROOT / "BENCH_stages.json"))
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import cpu_model

    meta = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
    }
    path = Path(args.out)
    doc = json.loads(path.read_text()) if path.exists() else {"runs": {}}
    doc["about"] = ABOUT
    prior = doc["runs"].get(args.label, {})
    runs = prior.get("runs", []) + [measure()]
    doc["runs"][args.label] = {"meta": meta, "runs": runs, "stages": medians(runs)}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for name, row in runs[-1].items():
        cells = " ".join(f"{s}={_seconds(row[s + '_s'])}" for s in STAGES)
        print(f"{args.label:16s} {name:32s} {cells}")
    print(f"{args.label:16s} {len(runs)} runs; medians in {path.name}")


if __name__ == "__main__":
    main()
