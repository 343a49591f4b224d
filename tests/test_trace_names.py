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
