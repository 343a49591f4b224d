"""The names the traced benchmark run wraps must exist in the program.

perfbench/tracer.py wraps functions by name in nctopo.cli,
nctopo.classify and nctopo._kernels, and its constructor raises
TraceError when one of them is gone.  perfbench/ is not on the test
path, so without this check a rename surfaces only when the benchmark
runs.
"""

import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    return tracer


def test_every_wrapped_name_exists(tracer):
    tracer.Tracer()


def test_a_missing_name_is_reported(tracer, monkeypatch):
    from nctopo import classify

    monkeypatch.delattr(classify, "find_fold")
    with pytest.raises(tracer.TraceError, match="nctopo.classify.find_fold"):
        tracer.Tracer()


@pytest.mark.parametrize("n, s, t", [(80, 1, 4), (12, 1, 3)])
def test_snf_counts_see_sparse_rows_as_dense(tracer, n, s, t):
    """The Smith hook counts the same cells, nonzeros and sides for the
    sparse boundary rows as for their dense copy: torus I4C and I2B cores."""
    from nctopo import chain_complex, circulant
    from nctopo._kernels import SparseRow
    from nctopo.classify import reduce_to_core

    core = reduce_to_core(circulant(n, (s, t)), (n, s, t))[2].core
    mats = chain_complex(core).boundaries[1:]
    assert len(mats) == 2 and all(isinstance(r, SparseRow) for m in mats for r in m)
    for mat in mats:
        counts = []
        for m in (mat, [list(r) for r in mat]):
            tr = tracer.Tracer()
            tr._before_snf((m,), {})
            counts.append((tr.counts["snf_cells"], tr.counts["snf_nnz"], tr.snf_max_side))
        assert counts[0] == counts[1]
        assert counts[0][1] == sum(len(r.entries) for r in mat) > 0
