"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py

Run it on the commit whose outputs are the reference (the files in
``reference/`` were recorded at the seed commit).  It writes

- ``reference/sweep.csv``: the CSV of ``nctopo sweep`` over the full sweep
  range, which every sweep must reproduce byte for byte;
- ``reference/graphs.json``: a short hash of the canonical JSON of the
  ``analyze_graph`` result for every graph of the default seed.
"""

from __future__ import annotations

import json
import sys

import run


def main():
    run.import_program()
    from nctopo import cli
    from nctopo.classify import analyze_graph

    lo, hi = run.FULL.sweep_range
    out = run.REFERENCE / "sweep.csv"
    code = cli.main(["sweep", "--n", f"{lo}..{hi}", "--workers", "1", "--format", "csv", "--out", str(out)])
    if code != 0:
        sys.exit(f"sweep exited with {code}")

    digests = []
    for g in run.graph_pool(run.FULL, run.DEFAULT_SEED):
        result = analyze_graph(g)
        if not run.graph_invariants_hold(result):
            sys.exit(f"result breaks an invariant: {result}")
        digests.append(run.graph_digest(result))
    text = json.dumps({"seed": run.DEFAULT_SEED, "digests": digests}, indent=0)
    (run.REFERENCE / "graphs.json").write_text(text + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
