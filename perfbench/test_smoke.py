"""Smoke test of the benchmark on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload plain and traced on a small sweep range, one small
torus and a few graphs, and checks that every metric BENCHMARK.json names
is emitted and that every layer a workload must reach receives calls.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from argparse import Namespace

import pytest

import run
from tracer import REQUIRED_CALLS, Tracer, TraceError

# The sweep range and the graph sizes start like the full plan's, so the
# references apply to them.
SMOKE = run.Plan(sweep_range=(5, 12), torus_sizes=(40,), graph_sizes=range(40, 58, 3))
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload, trace):
    args = Namespace(workload=workload, seed=run.DEFAULT_SEED, seconds=0, trace=trace)
    meta, detail, result = run.run(args, plan=SMOKE)
    assert meta["backend"] in ("pure", "compiled")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return detail, result["metrics"]


def test_workloads_match_benchmark_json():
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_plain_run_emits_every_end_to_end_metric(workload):
    _, metrics = _run(workload, trace=0)
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_run_reaches_every_layer(workload):
    detail, metrics = _run(workload, trace=1)
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    calls = detail["calls_by_span"]
    assert [s for s in REQUIRED_CALLS[workload] if not calls.get(s)] == []
    assert metrics["trace.coverage"]["value"] >= 0.95


def test_lost_name_is_an_error(monkeypatch):
    run.import_program()
    import nctopo.classify

    monkeypatch.delattr(nctopo.classify, "find_fold")
    with pytest.raises(TraceError, match="find_fold"):
        Tracer()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
