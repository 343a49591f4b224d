"""The repository benchmark: three closed-loop workloads over the nctopo pipeline.

    python3 perfbench/run.py --workload {sweep,torus,graphs} --seed N \
        --seconds S --trace {0,1}

Run it from anywhere; it imports the package from ``src/`` next to this
directory and refuses to run (exit 2, no result) when that is missing.
One process runs one workload with one caller: the next instance starts
when the previous one returns.  A workload is a fixed list of instances,
and a pass runs all of them once; passes repeat while another one fits
into ``--seconds``.

- ``sweep``: ``nctopo.cli.main(["sweep", "--n", "5..25", "--workers",
  "1", "--format", "csv", ...])``, 571 instances of mostly small cores,
  so per-instance overhead dominates.  The CSV must be byte-identical to
  ``reference/sweep.csv``, recorded at the seed commit.
- ``torus``: ``verify(n, 1, 4)`` for n = 80, 160, 320, run 4, 2 and 1
  times per pass.  Each is one I4C torus core with f = (n, 3n, 2n) whose
  homology is dense Smith normal form on matrices of up to 960 x 640.
- ``graphs``: ``analyze_graph`` on 41 seeded random sparse connected
  graphs, one for each n = 40, 43, ..., 160 (a spanning tree plus about
  n/4 edges, degree cap alternating 3 and 4).  They are not regular, so
  they take the general fold path and generic collapse.

The seed only shapes the random graphs; sweep and torus inputs are fixed.

With ``--trace 0`` the last stdout line reports the end-to-end metrics.
Each instance's latency is the best of its timings over the passes: on a
shared machine whose speed swings by half for seconds at a time, the best
of several timings spread over the run is what repeats from run to run.

- ``setup_s``: fresh interpreter to ``import nctopo`` done, median over
  several interpreters;
- ``instances_per_s``: instances divided by the best-case pass time, the
  sum of the best per-instance latencies plus the smallest time a pass
  spent outside them (for the sweep, the CLI's own work);
- ``instance_ms_p50``, ``instance_ms_p95``: percentiles of the best
  per-instance latencies;
- ``peak_rss_mb``: peak resident memory of the process.

With ``--trace 1`` passes alternate between plain and traced, and the last
line reports the per-layer metrics of ``tracer.py``.  Every output is
checked; an instance that raises, differs from its reference or breaks an
invariant counts as failed.  The lines before the last give the run's
metadata and a breakdown of where time went.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracer import Tracer, TraceError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"
DEFAULT_SEED = 0
SETUP_INTERPRETERS = 15


@dataclass(frozen=True)
class Plan:
    """Input sizes of the three workloads."""

    sweep_range: tuple = (5, 25)
    torus_sizes: tuple = (80, 160, 320)
    graph_sizes: range = range(40, 161, 3)


FULL = Plan()


class ProgramMissing(RuntimeError):
    """The checkout holds no importable nctopo source tree."""


def import_program():
    """Import nctopo from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "nctopo" / "__init__.py").is_file():
        raise ProgramMissing(f"no nctopo package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import nctopo

    if not Path(nctopo.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"imported nctopo from {nctopo.__file__}, not from {SRC}")
    return nctopo


# -- inputs ------------------------------------------------------------------


def random_sparse_graph(rng, n, cap):
    """Connected graph: a random spanning tree plus about n/4 extra edges,
    every degree at most cap."""
    from nctopo import Graph

    order = list(range(n))
    rng.shuffle(order)
    degree = [0] * n
    edges = set()
    for i in range(1, n):
        v = order[i]
        u = rng.choice([w for w in order[:i] if degree[w] < cap])
        edges.add((min(u, v), max(u, v)))
        degree[u] += 1
        degree[v] += 1
    extra = n // 4
    for _ in range(50 * n):
        if not extra:
            break
        u, v = rng.sample(range(n), 2)
        e = (min(u, v), max(u, v))
        if e in edges or degree[u] >= cap or degree[v] >= cap:
            continue
        edges.add(e)
        degree[u] += 1
        degree[v] += 1
        extra -= 1
    return Graph(n, sorted(edges))


def graph_pool(plan, seed):
    """The seed's graphs, one per size; a shorter size list gives a prefix."""
    rng = random.Random(f"graphs/{seed}")
    return [random_sparse_graph(rng, n, 3 + i % 2) for i, n in enumerate(plan.graph_sizes)]


def graph_digest(result):
    """Short hash of the canonical JSON of an analyze_graph result."""
    obj = {
        "num_vertices": result["num_vertices"],
        "max_degree": result["max_degree"],
        "case": result["case"],
        "prediction": result["prediction"],
        "verdict": result["verdict"],
        "components": [
            {
                "f_vector": list(c.f_vector),
                "betti_z": list(c.betti_z),
                "torsion": [list(x) for x in c.torsion],
                "betti_z2": list(c.betti_z2),
                "euler": c.euler,
                "surface": c.surface,
                "core_dim": c.core_dim,
                "verdict": c.verdict,
            }
            for c in result["components"]
        ],
    }
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- output checks -----------------------------------------------------------


def _instance_groups(lines):
    groups = {}
    for line in lines:
        groups.setdefault(tuple(line.split(",", 3)[:3]), []).append(line)
    return groups


def expected_sweep_csv(lo, hi):
    """Reference CSV text for the range lo..hi, cut from reference/sweep.csv."""
    lines = (REFERENCE / "sweep.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    header, body = lines[0], lines[1:]
    return header + "".join(line for line in body if lo <= int(line.split(",", 1)[0]) <= hi)


def sweep_failures(got, expected):
    """Instances whose CSV rows are missing, extra or differ from the reference."""
    if got == expected:
        return 0
    got_lines = got.splitlines(keepends=True)
    exp_lines = expected.splitlines(keepends=True)
    exp_groups = _instance_groups(exp_lines[1:])
    if not got_lines or got_lines[0] != exp_lines[0]:
        return len(exp_groups)
    got_groups = _instance_groups(got_lines[1:])
    keys = exp_groups.keys() | got_groups.keys()
    return sum(1 for k in keys if exp_groups.get(k) != got_groups.get(k))


def torus_ok(report, n):
    if report.verdict != "pass" or len(report.components) != 1:
        return False
    c = report.components[0]
    return (
        c.f_vector == (n, 3 * n, 2 * n)
        and c.betti_z == (1, 2, 1)
        and c.surface == "orientable-genus-1"
    )


def graph_invariants_hold(result):
    """No graded graph fails; UCT over GF(2) and both Euler sums agree."""
    if result["verdict"] == "fail":
        return False
    for c in result["components"]:
        even = [sum(1 for v in t if v % 2 == 0) for t in c.torsion]
        for i, b2 in enumerate(c.betti_z2):
            if b2 != c.betti_z[i] + even[i] + (even[i - 1] if i else 0):
                return False
        if c.euler != sum((-1) ** d * b for d, b in enumerate(c.betti_z)):
            return False
        if c.euler != sum((-1) ** d * f for d, f in enumerate(c.f_vector)):
            return False
    return True


def load_graph_reference():
    obj = json.loads((REFERENCE / "graphs.json").read_text(encoding="utf-8"))
    return obj["seed"], obj["digests"]


# -- workloads ---------------------------------------------------------------


@dataclass
class Pass:
    """One pass over a workload's instances."""

    wall_s: float  # calls into the program, as the benchmark clocked them
    attempted: int
    failed: int
    latencies: dict = field(default_factory=dict)  # instance -> best seconds; empty when traced
    outside_s: float = 0.0  # part of wall_s spent outside the timed instance calls


class Sweep:
    def __init__(self, plan, seed, workdir):
        from nctopo import cli

        self.cli = cli
        lo, hi = plan.sweep_range
        self.out = os.path.join(workdir, "sweep.csv")
        self.argv = ["sweep", "--n", f"{lo}..{hi}", "--workers", "1", "--format", "csv",
                     "--out", self.out]
        self.expected = expected_sweep_csv(lo, hi)
        self.instances = len(cli.admissible_triples(lo, hi))

    def run_pass(self, traced):
        cli = self.cli
        latencies = {}
        verify = cli.verify

        def timed_verify(*args):
            # One clock read around each verify call the CLI makes, about a
            # microsecond per instance.
            t0 = time.perf_counter()
            try:
                return verify(*args)
            finally:
                latencies[args] = time.perf_counter() - t0

        if not traced:
            cli.verify = timed_verify
        try:
            t0 = time.perf_counter()
            code = cli.main(self.argv)
            wall = time.perf_counter() - t0
        except Exception:
            traceback.print_exc()
            return Pass(0.0, self.instances, self.instances)
        finally:
            cli.verify = verify
        with open(self.out, encoding="utf-8", newline="") as fh:
            failed = sweep_failures(fh.read(), self.expected)
        if code != 0:
            failed = max(failed, 1)
        return Pass(wall, self.instances, failed, latencies, wall - sum(latencies.values()))


class Torus:
    def __init__(self, plan, seed, workdir):
        from nctopo import classify

        self.classify = classify
        self.sizes = plan.torus_sizes

    def run_pass(self, traced):
        # Size n runs max(sizes) // n times per pass, so that the smaller
        # sizes get their best time from as many machine states as the
        # largest one spans.
        largest = max(self.sizes)
        calls = [n for r in range(largest // min(self.sizes)) for n in self.sizes
                 if r < largest // n]
        latencies = {}
        failed = 0
        wall = 0.0
        for n in calls:
            t0 = time.perf_counter()
            try:
                report = self.classify.verify(n, 1, 4)
            except Exception:
                traceback.print_exc()
                report = None
            dt = time.perf_counter() - t0
            wall += dt
            latencies[f"n{n}"] = min(dt, latencies.get(f"n{n}", math.inf))
            if report is None or not torus_ok(report, n):
                failed += 1
        return Pass(wall, len(calls), failed, {} if traced else latencies)


class Graphs:
    def __init__(self, plan, seed, workdir):
        from nctopo import classify

        self.classify = classify
        self.graphs = graph_pool(plan, seed)
        ref_seed, digests = load_graph_reference()
        self.reference = digests if seed == ref_seed else None

    def run_pass(self, traced):
        analyze = self.classify.analyze_graph
        results = []
        latencies = {}
        t_loop = time.perf_counter()
        for i, g in enumerate(self.graphs):
            t0 = time.perf_counter()
            try:
                results.append(analyze(g))
            except Exception:
                traceback.print_exc()
                results.append(None)
            latencies[i] = time.perf_counter() - t0
        wall = time.perf_counter() - t_loop
        outside = wall - sum(latencies.values())
        failed = 0
        for i, result in enumerate(results):
            if result is None or not graph_invariants_hold(result):
                failed += 1
            elif self.reference is not None and graph_digest(result) != self.reference[i]:
                failed += 1
        if traced:
            return Pass(wall, len(self.graphs), failed)
        return Pass(wall, len(self.graphs), failed, latencies, outside)


WORKLOADS = {"sweep": Sweep, "torus": Torus, "graphs": Graphs}


# -- measurement -------------------------------------------------------------


def measure_setup(count=SETUP_INTERPRETERS):
    """Median wall time from starting a fresh interpreter to ``import nctopo``
    done, over count interpreters after one warm-up that fills the
    byte-code cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", "import sys, nctopo; sys.stdout.write(nctopo.__file__)"]
    times = []
    for i in range(count + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
        dt = time.perf_counter() - t0
        if proc.returncode != 0 or not Path(proc.stdout).resolve().is_relative_to(SRC):
            raise ProgramMissing(f"fresh interpreter could not import nctopo: {proc.stderr.strip()}")
        if i:
            times.append(dt)
    return statistics.median(times)


def percentile(values, q):
    """Linearly interpolated q-th percentile (0 < q < 100)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def drive(workload, seconds, tracer):
    """Run passes while the next one is expected to end within seconds.

    A traced run alternates plain and traced passes, so that their times
    give the tracing overhead, and makes at least one of each.
    """
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if tracer is not None and len(traced) < len(plain):
            with tracer.installed():
                traced.append(workload.run_pass(traced=True))
        else:
            plain.append(workload.run_pass(traced=False))
        now = time.perf_counter()
        if (tracer is None or traced) and now - start + (now - t0) > seconds:
            return plain, traced


def best_latencies(passes):
    """Each instance's best latency over the passes that timed it."""
    best = {}
    for p in passes:
        for key, dt in p.latencies.items():
            best[key] = min(dt, best.get(key, math.inf))
    return best


def end_to_end(plain, setup_s):
    best = best_latencies(plain)
    if not best:
        raise RuntimeError("no pass over the workload completed")
    outside = min(p.outside_s for p in plain if p.latencies)
    values = list(best.values())
    return {
        "setup_s": (setup_s, "s"),
        "instances_per_s": (len(values) / (sum(values) + outside), "1/s"),
        "instance_ms_p50": (statistics.median(values) * 1e3, "ms"),
        "instance_ms_p95": (percentile(values, 95) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata(nctopo, args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": nctopo.BACKEND,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(),
    }


def breakdown(plain, traced, tracer):
    """Where time went, for the lines before the result."""
    out = {"plain_passes": len(plain), "traced_passes": len(traced)}
    best = best_latencies(plain)
    if len(best) <= 8:
        out["best_s_by_instance"] = {str(k): v for k, v in best.items()}
    if tracer is not None:
        out["verify_s_by_case"] = dict(sorted(tracer.verify_case_s.items()))
        out["self_s_by_span"] = dict(sorted(tracer.self_s.items()))
        out["calls_by_span"] = dict(sorted(tracer.calls.items()))
    return out


def run(args, plan=FULL):
    """Measure one workload; returns (metadata, breakdown, result object)."""
    nctopo = import_program()
    meta = metadata(nctopo, args)
    tracer = Tracer() if args.trace else None
    setup_s = None if args.trace else measure_setup()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        workload = WORKLOADS[args.workload](plan, args.seed, workdir)
        plain, traced = drive(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if tracer is None:
        metrics = end_to_end(plain, setup_s)
    else:
        overhead = min(p.wall_s for p in traced) / min(p.wall_s for p in plain) - 1
        metrics = tracer.metrics(args.workload, sum(p.wall_s for p in traced), overhead)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    return meta, breakdown(plain, traced, tracer), result


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        meta, detail, result = run(args)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except TraceError as exc:
        print(f"perfbench: trace lost a layer: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({"meta": meta}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
