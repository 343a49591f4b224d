"""Peak memory and wall time of ``nctopo sweep``, one child process per measurement.

Each measurement runs

    python -m nctopo sweep --n A..B --workers 1 --format F --out <temp file>

in a child process of its own, with this process's environment, so the
checkout measured is the one that ``PYTHONPATH`` names.  ``os.wait4``
returns the child's peak resident memory (``ru_maxrss``, which covers the
workers a child reaps); the wall time is clocked around the child and
includes interpreter start.  The ranges are 5..25, the benchmark's sweep
workload, and 5..40, the ROADMAP's end-to-end sweep, each in csv, json and
text.  A child that exits non-zero stops the script.

On Linux a spawned child's ``ru_maxrss`` is at least the spawning
process's own peak at the time, so this script keeps its own peak low: it
imports nothing large and hashes no output until every child has run.  It
records that peak as ``spawner_peak_rss_mb``; a child figure at or below
it is not the child's own.

Each run is appended under ``--label`` to ``BENCH_sweep_memory.json`` with
machine and Python metadata and each output's SHA-256, and the label's
``medians`` are taken over all its runs.  Give each checkout a label of
its own and alternate the checkouts run by run, so that machine drift
falls on both alike:

    for i in 1 2 3 4 5; do
        PYTHONPATH=../parent/src python3 benchmarks/sweep_memory.py --label parent-abc1234
        PYTHONPATH=src python3 benchmarks/sweep_memory.py --label change-def5678
    done
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "BENCH_sweep_memory.json"
RANGES = ("5..25", "5..40")
FORMATS = ("csv", "json", "text")
ABOUT = (
    "benchmarks/sweep_memory.py: peak RSS (MB) and wall seconds of one "
    "`python -m nctopo sweep --n A..B --workers 1 --format F --out <file>` "
    "child process per measurement, read with os.wait4, interpreter start "
    "included; one label per checkout, runs alternated between checkouts, "
    "medians over a label's runs. A child's peak reads at least the "
    "spawner's (spawner_peak_rss_mb)."
)


def run_sweep(lo_hi, fmt, workers, out):
    """Run one sweep in a child process; return its exit code, peak MB and seconds."""
    argv = [sys.executable, "-m", "nctopo", "sweep", "--n", lo_hi,
            "--workers", str(workers), "--format", fmt, "--out", out]
    quiet = [(os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=quiet)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024, wall


def measure(tmp):
    """Run every sweep once; return its peak MB, seconds and output file by name."""
    row = {}
    for lo_hi in RANGES:
        for fmt in FORMATS:
            out = os.path.join(tmp, f"{lo_hi}.{fmt}")
            code, peak_mb, wall = run_sweep(lo_hi, fmt, 1, out)
            if code != 0:
                sys.exit(f"sweep --n {lo_hi} --format {fmt} exited {code}")
            row[f"{lo_hi} {fmt}"] = {"peak_rss_mb": peak_mb, "wall_s": wall, "out": out}
    return row


def medians(runs):
    import statistics

    return {
        key: {m: statistics.median(r[key][m] for r in runs) for m in ("peak_rss_mb", "wall_s")}
        for key in runs[0]
        if key != "spawner_peak_rss_mb"
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="entry name, e.g. parent-abc1234")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        row = measure(tmp)
        spawner_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # Imported only now: hashlib alone adds about 4 MB to this process.
        import hashlib
        import platform

        sys.path.insert(0, str(ROOT / "perfbench"))
        from run import cpu_model

        for m in row.values():
            with open(m.pop("out"), "rb") as fh:
                m["sha256"] = hashlib.file_digest(fh, "sha256").hexdigest()
    row["spawner_peak_rss_mb"] = spawner_mb
    meta = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
    }
    doc = json.loads(RESULTS.read_text()) if RESULTS.exists() else {"runs": {}}
    doc["about"] = ABOUT
    runs = doc["runs"].get(args.label, {}).get("runs", []) + [row]
    doc["runs"][args.label] = {"meta": meta, "runs": runs, "medians": medians(runs)}
    RESULTS.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for key, m in medians(runs[-1:]).items():
        print(f"{args.label:24s} {key:10s} {m['peak_rss_mb']:7.1f} MB {m['wall_s']:6.2f} s")
    print(f"{args.label:24s} this process peaked at {spawner_mb:.1f} MB")
    print(f"{args.label:24s} {len(runs)} runs; medians in {RESULTS.name}")


if __name__ == "__main__":
    main()
