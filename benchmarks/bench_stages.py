"""Time the collapse, complex, surface, fold, Smith and homology stages on
the inputs the pipeline sees.

Inputs are recorded by wrapping ``collapse_core`` and ``fold_reduce`` in
``nctopo.classify``, ``nctopo._kernels.snf_diagonal`` and
``SimplicialComplex.__init__`` while the pipeline runs: the
``(complex, strategy, circulant)`` arguments of every collapse, the
collapsed cores, the graphs handed to fold reduction, the core boundary
matrices handed to the Smith kernel and the positional and keyword
arguments of every complex built, for the torus case
I4C at n = 80, 160 and 320 (``verify(n, 1, 4)``), for all 571 instances
of the n = 5..25 sweep, and for ``analyze_graph`` on the benchmark's
graph pool at seed 0 (generated by ``perfbench/run.py``, imported and not
modified).  For each workload the script times one pass, best of three,
of

- ``collapse_core`` on every recorded argument triple;
- construction: every recorded ``SimplicialComplex(...)`` call replayed
  with its own arguments, so each checkout times the calls its own
  pipeline makes;
- normalization: ``SimplicialComplex(core.maximal_simplices)``;
- ``core.components()``, on a fresh copy of each core per pass, since a
  complex keeps its component map once it is built;
- ``classify_surface`` on every component of every core;
- ``fold_reduce`` on every recorded graph;
- ``_kernels.snf_diagonal`` on every recorded matrix;
- ``homology`` on every core: boundary build, Smith kernel and GF(2)
  ranks together.

Each run is appended under ``--label`` in ``BENCH_stages.json``, next to
the entries of other checkouts, with machine and Python metadata, and the
label's ``stages`` become the per-stage medians over all its runs.  Give
each checkout a label of its own.  Machine drift moves every run of one
stretch alike, so alternate the checkouts run by run rather than timing
one after the other:

    for i in 1 2 3 4 5; do
        PYTHONPATH=../parent/src python3 benchmarks/bench_stages.py --label parent-abc1234
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
sys.path.insert(0, str(ROOT / "perfbench"))
from run import FULL, graph_pool  # noqa: E402

STAGES = (
    "collapse_core",
    "construct",
    "normalize",
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
    "on both alike. Older labels hold one run each; those ending in /pure "
    "or /compiled name the kernel backend of the time. The gate entries "
    "are end-to-end sweep and torus seconds, pure against the compiled "
    "kernel backend that has since been removed, best of the alternating "
    "rounds, with every round's sweep seconds; the script no longer "
    "writes them"
)


def _record(run):
    """Collapse arguments, cores, fold inputs, Smith inputs and complex
    constructor arguments that the pipeline produces while run() runs."""
    calls, cores, graphs, mats, builds = [], [], [], [], []
    collapse, fold, snf = classify.collapse_core, classify.fold_reduce, _kernels.snf_diagonal
    init = SimplicialComplex.__init__

    def record_collapse(k, strategy="generic", circulant=None):
        calls.append((k, strategy, circulant))
        trace = collapse(k, strategy=strategy, circulant=circulant)
        cores.append(trace.core)
        return trace

    def record_fold(g):
        graphs.append(g)
        return fold(g)

    def record_snf(mat):
        mats.append(mat)
        return snf(mat)

    def record_init(self, simplices, *args, **kwargs):
        simplices = list(simplices)
        builds.append(((simplices, *args), kwargs))
        init(self, simplices, *args, **kwargs)

    classify.collapse_core, classify.fold_reduce = record_collapse, record_fold
    _kernels.snf_diagonal = record_snf
    SimplicialComplex.__init__ = record_init
    try:
        run()
    finally:
        classify.collapse_core, classify.fold_reduce = collapse, fold
        _kernels.snf_diagonal = snf
        SimplicialComplex.__init__ = init
    return calls, cores, graphs, mats, builds


def _best_of(fn, items, repeats=3, fresh=None):
    """Best of three passes over items; None when there is nothing to time.

    With fresh, each pass runs on fresh(item) for every item, made before
    the clock starts.
    """
    if not items:
        return None
    best = None
    for _ in range(repeats):
        batch = items if fresh is None else [fresh(item) for item in items]
        t0 = time.perf_counter()
        for item in batch:
            fn(item)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def workloads():
    out = {}
    for n in FULL.torus_sizes:
        out[f"torus n={n}"] = _record(lambda n=n: classify.verify(n, 1, 4))
    triples = admissible_triples(*FULL.sweep_range)
    out[f"sweep n=5..25 ({len(triples)} instances)"] = _record(
        lambda: [classify.verify(*t) for t in triples]
    )
    pool = graph_pool(FULL, 0)
    out[f"graphs seed 0 ({len(pool)} graphs)"] = _record(
        lambda: [classify.analyze_graph(g) for g in pool]
    )
    return out


def measure():
    rows = {}
    for name, (calls, cores, graphs, mats, builds) in workloads().items():
        comps = [c for core in cores for c in core.components()]
        rows[name] = {
            "cores": len(cores),
            "core_facets": sum(len(c.maximal_simplices) for c in cores),
            "components": len(comps),
            "graphs": len(graphs),
            "snf_matrices": len(mats),
            "constructions": len(builds),
            "collapse_core_s": _best_of(lambda call: nctopo.collapse_core(*call), calls),
            "construct_s": _best_of(lambda b: SimplicialComplex(*b[0], **b[1]), builds),
            "normalize_s": _best_of(lambda c: SimplicialComplex(c.maximal_simplices), cores),
            "components_s": _best_of(
                SimplicialComplex.components,
                cores,
                fresh=lambda c: SimplicialComplex(c.maximal_simplices, antichain=True),
            ),
            "classify_surface_s": _best_of(nctopo.classify_surface, comps),
            "fold_reduce_s": _best_of(nctopo.fold_reduce, graphs),
            "snf_s": _best_of(_kernels.snf_diagonal, mats),
            "homology_s": _best_of(homology, cores),
        }
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


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="entry name, e.g. parent")
    ap.add_argument("--out", default=str(ROOT / "BENCH_stages.json"))
    args = ap.parse_args(argv)
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
