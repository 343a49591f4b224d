"""Time the collapse, complex, surface, fold, Smith and homology stages on
the inputs the pipeline sees.

Inputs are recorded by wrapping ``collapse_core`` and ``fold_reduce`` in
``nctopo.classify`` and ``nctopo._kernels.snf_diagonal`` while the
pipeline runs: the ``(complex, strategy, circulant)`` arguments of every
collapse, the collapsed cores, the graphs handed to fold reduction and
the core boundary matrices handed to the Smith kernel, for the torus case
I4C at n = 80, 160 and 320 (``verify(n, 1, 4)``), for all 571 instances
of the n = 5..25 sweep, and for ``analyze_graph`` on the benchmark's
graph pool at seed 0 (generated by ``perfbench/run.py``, imported and not
modified).  For each workload the script times one pass, best of three,
of

- ``collapse_core`` on every recorded argument triple;
- normalization: ``SimplicialComplex(core.maximal_simplices)``;
- ``core.components()``;
- ``classify_surface`` on every component of every core;
- ``fold_reduce`` on every recorded graph;
- ``_kernels.snf_diagonal`` on every recorded matrix;
- ``homology`` on every core: boundary build, Smith kernel and GF(2)
  ranks together.

The result is stored under ``--label`` in ``BENCH_stages.json``, next to
the entries of other checkouts, with machine and Python metadata.  Run it
against any checkout's ``src``:

    PYTHONPATH=src python3 benchmarks/bench_stages.py --label change
"""

from __future__ import annotations

import argparse
import json
import os
import platform
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
    "normalize",
    "components",
    "classify_surface",
    "fold_reduce",
    "snf",
    "homology",
)
ABOUT = (
    "benchmarks/bench_stages.py: seconds for one pass over each workload's "
    "recorded inputs, best of three, per checkout (runs; labels ending in "
    "/pure or /compiled name the kernel backend of the time). The gate "
    "entries are end-to-end sweep and torus seconds, pure against the "
    "compiled kernel backend that has since been removed, best of the "
    "alternating rounds, with every round's sweep seconds; the script no "
    "longer writes them"
)


def _record(run):
    """Collapse arguments, cores, fold inputs and Smith inputs that the
    pipeline produces while run() runs."""
    calls, cores, graphs, mats = [], [], [], []
    collapse, fold, snf = classify.collapse_core, classify.fold_reduce, _kernels.snf_diagonal

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

    classify.collapse_core, classify.fold_reduce = record_collapse, record_fold
    _kernels.snf_diagonal = record_snf
    try:
        run()
    finally:
        classify.collapse_core, classify.fold_reduce = collapse, fold
        _kernels.snf_diagonal = snf
    return calls, cores, graphs, mats


def _best_of(fn, items, repeats=3):
    """Best of three passes over items; None when there is nothing to time."""
    if not items:
        return None
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        for item in items:
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
    for name, (calls, cores, graphs, mats) in workloads().items():
        comps = [c for core in cores for c in core.components()]
        rows[name] = {
            "cores": len(cores),
            "core_facets": sum(len(c.maximal_simplices) for c in cores),
            "components": len(comps),
            "graphs": len(graphs),
            "snf_matrices": len(mats),
            "collapse_core_s": _best_of(lambda call: nctopo.collapse_core(*call), calls),
            "normalize_s": _best_of(lambda c: SimplicialComplex(c.maximal_simplices), cores),
            "components_s": _best_of(SimplicialComplex.components, cores),
            "classify_surface_s": _best_of(nctopo.classify_surface, comps),
            "fold_reduce_s": _best_of(nctopo.fold_reduce, graphs),
            "snf_s": _best_of(_kernels.snf_diagonal, mats),
            "homology_s": _best_of(homology, cores),
        }
    return rows


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
    entry = {"meta": meta, "stages": measure()}
    doc["runs"][args.label] = entry
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for name, row in entry["stages"].items():
        cells = " ".join(f"{s}={_seconds(row[s + '_s'])}" for s in STAGES)
        print(f"{args.label:16s} {name:32s} {cells}")


if __name__ == "__main__":
    main()
