"""The stage benchmark's recorder must still wrap names the program has.

benchmarks/bench_stages.py records the pipeline's stage inputs by
wrapping SimplicialComplex.__init__ and names in nctopo.classify and
nctopo._kernels.  benchmarks/ is not on the test path, so without this
check a rename surfaces only when the benchmark runs.
"""

import pytest
from conftest import random_sparse_graph

from nctopo import SimplicialComplex, _kernels, classify
from nctopo.graphs import Graph

WRAPPED = [
    (SimplicialComplex, "__init__"),
    (classify, "collapse_core"),
    (classify, "fold_reduce"),
    (_kernels, "snf_diagonal"),
    (classify, "classify_surface"),
]


def current():
    return [getattr(owner, name) for owner, name in WRAPPED]


def run_pipeline():
    """One circulant instance and one graph that folds: a path."""
    return classify.verify(12, 1, 3), classify.analyze_graph(Graph(4, [(0, 1), (1, 2), (2, 3)]))


def test_record_fills_every_list(bench_stages):
    before = current()
    recorded = []
    rec = bench_stages.record(lambda: recorded.append(run_pipeline()))
    assert set(rec) == {"builds", "collapses", "folds", "snf", "surfaces"}
    assert all(rec.values())
    assert all(now is then for now, then in zip(current(), before))
    assert recorded == [run_pipeline()]


def test_names_restored_when_run_raises(bench_stages):
    before = current()

    def failing():
        run_pipeline()
        raise RuntimeError("stop")

    with pytest.raises(RuntimeError, match="stop"):
        bench_stages.record(failing)
    assert all(now is then for now, then in zip(current(), before))


def test_cores_arrive_with_the_screens_coface_index(bench_stages):
    """The torus core passes the free-face screen, which builds its
    cofaces(2); a generic core is built by the engine and carries none.
    fresh_core rebuilds exactly those indices."""
    rec = bench_stages.record(lambda: classify.verify(80, 1, 4))
    ((_, trace, built),) = rec["collapses"]
    assert trace.strategy == "circulant" and trace.schedule is not None
    assert built == (2,)
    assert sorted(bench_stages.fresh_core(trace.core, built)._cofaces) == [2]

    rec = bench_stages.record(lambda: classify.analyze_graph(random_sparse_graph(0)))
    ((_, trace, built),) = rec["collapses"]
    assert trace.strategy == "generic" and trace.pairs and built == ()
    assert bench_stages.fresh_core(trace.core, built)._cofaces == {}


def test_snf_times_boundaries_with_no_rows_built(bench_stages):
    """The S2vS2 core's d2 takes the general reduction, which builds the
    boundary's rows; the snf stage times a copy that has none."""
    rec = bench_stages.record(lambda: classify.verify(12, 1, 3))
    built = [m for m in rec["snf"] if m._rows is not None]
    assert built
    for mat in built:
        fresh = bench_stages.fresh_boundary(mat)
        assert fresh._rows is None
        assert (fresh.nrows, fresh.ncols, fresh.positions) == (mat.nrows, mat.ncols, mat.positions)
        assert _kernels.snf_diagonal(fresh) == _kernels.snf_diagonal(mat)
