"""The stable outputs match the references the benchmark checks them against.

perfbench/reference/ holds the sweep CSV for n = 5..25 and the digests of
analyze_graph on the benchmark's seed-0 graph pool.  perfbench/ is read
here, never written: the benchmark rejects a change whose output differs
from these references, and this check shows it in the test suite first.
"""

import pathlib

from nctopo.classify import analyze_graph
from nctopo.cli import main

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_sweep_csv_matches_the_reference(tmp_path):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--n", "5..25", "--workers", "1", "--format", "csv", "--out", str(out)]
    assert main(argv) == 0
    assert out.read_bytes() == (PERFBENCH / "reference" / "sweep.csv").read_bytes()


def test_graph_analyses_match_the_reference_digests(run):
    seed, digests = run.load_graph_reference()
    graphs = run.graph_pool(run.FULL, seed)
    assert len(graphs) == len(digests)
    assert [run.graph_digest(analyze_graph(g)) for g in graphs] == digests
