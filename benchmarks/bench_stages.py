"""Time the collapse, complex, surface, fold, Smith and homology stages on
the inputs the pipeline sees, and the kernel-backend gate end to end.

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
- ``_kernels.snf_diagonal`` on every recorded matrix, on the backend the
  checkout provides;
- ``homology`` on every core: boundary build, Smith kernel and GF(2)
  ranks together.

The result is stored under ``--label`` in ``BENCH_stages.json``, next to
the entries of other checkouts and backends, with machine, Python and
backend metadata.  Run it against any checkout's ``src``:

    PYTHONPATH=src python3 benchmarks/bench_stages.py --label change/pure

With ``--gate`` the script instead times the kernel-backend question end
to end, in fresh interpreters on the ``src`` it imports, which must hold a
built compiled extension: the wall time of ``nctopo sweep --n 5..40
--workers 1 --format csv`` and of ``verify(n, 1, 4)`` for n = 80, 160 and
320, pure (``NCTOPO_PURE=1``) against compiled, in ten rounds that
alternate the backends, pure first in every other round.  It records the best time per backend, every
round's sweep times, the number of rounds whose pure sweep was the
faster, and the SHA-256 of each backend's sweep CSV.  The figures go
under ``gate`` in the same file:

    PYTHONPATH=src python3 benchmarks/bench_stages.py --gate --label change
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
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
GATE_SWEEP = "5..40"
GATE_TORUS = (80, 160, 320)
GATE_ROUNDS = 10
ABOUT = (
    "benchmarks/bench_stages.py: seconds for one pass over each workload's "
    "recorded inputs, best of three, per checkout and kernel backend (runs); "
    "end-to-end sweep and torus seconds, pure against compiled, best of "
    "the alternating rounds, with every round's sweep seconds (gate)"
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


_TORUS_CHILD = """
import sys, time
from nctopo import BACKEND, verify
verify(80, 1, 4)
out = [BACKEND]
for n in map(int, sys.argv[1:]):
    t0 = time.perf_counter()
    verify(n, 1, 4)
    out.append(repr(time.perf_counter() - t0))
print(" ".join(out))
"""


def _child(args, pure):
    """Run a fresh interpreter on this checkout's src; (seconds, stdout)."""
    src = str(Path(nctopo.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "NCTOPO_PURE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if pure:
        env["NCTOPO_PURE"] = "1"
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, *args], env=env, capture_output=True, check=True).stdout
    return time.perf_counter() - t0, out


def gate():
    """Sweep and torus wall times per backend, alternating rounds, best of all."""
    backends = {"pure": True, "compiled": False}
    sweep_runs = {b: [] for b in backends}
    digest = {b: set() for b in backends}
    torus_s = {f"n={n}": dict.fromkeys(backends, math.inf) for n in GATE_TORUS}
    sweep = ["-m", "nctopo", "sweep", "--n", GATE_SWEEP, "--workers", "1", "--format", "csv"]
    for rnd in range(GATE_ROUNDS):
        # Every other round runs compiled first, so an order effect does
        # not land on one backend.
        for backend, pure in sorted(backends.items(), reverse=rnd % 2 == 1):
            dt, out = _child(sweep, pure)
            sweep_runs[backend].append(dt)
            digest[backend].add(hashlib.sha256(out).hexdigest())
            _, out = _child(["-c", _TORUS_CHILD, *map(str, GATE_TORUS)], pure)
            got, *times = out.decode().split()
            if got != backend:
                raise SystemExit(f"bench_stages: wanted the {backend} backend, the child ran {got}")
            for n, dt in zip(GATE_TORUS, map(float, times)):
                cell = torus_s[f"n={n}"]
                cell[backend] = min(cell[backend], dt)
    return {
        "sweep": f"nctopo sweep --n {GATE_SWEEP} --workers 1 --format csv",
        "rounds": GATE_ROUNDS,
        "sweep_s": {b: min(runs) for b, runs in sweep_runs.items()},
        "sweep_runs_s": sweep_runs,
        "sweep_pure_faster_rounds": sum(
            p < c for p, c in zip(sweep_runs["pure"], sweep_runs["compiled"])
        ),
        "sweep_csv_sha256": {b: sorted(d) for b, d in digest.items()},
        "torus_verify_s": torus_s,
    }


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
    ap.add_argument("--label", required=True, help="entry name, e.g. parent/pure")
    ap.add_argument("--out", default=str(ROOT / "BENCH_stages.json"))
    ap.add_argument("--gate", action="store_true", help="time the backend gate instead")
    args = ap.parse_args(argv)
    meta = {
        "backend": nctopo.BACKEND,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
    }
    path = Path(args.out)
    doc = json.loads(path.read_text()) if path.exists() else {"runs": {}}
    doc["about"] = ABOUT
    if args.gate:
        del meta["backend"]
        entry = {"meta": meta, **gate()}
        doc.setdefault("gate", {})[args.label] = entry
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(json.dumps(entry, indent=2, sort_keys=True))
        return
    entry = {"meta": meta, "stages": measure()}
    doc["runs"][args.label] = entry
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for name, row in entry["stages"].items():
        cells = " ".join(f"{s}={_seconds(row[s + '_s'])}" for s in STAGES)
        print(f"{args.label:16s} {name:32s} {cells}")


if __name__ == "__main__":
    main()
