"""CLI behavior: formats, exit codes, determinism, golden outputs."""

import csv
import io
import json
import time

import pytest

from nctopo.cli import _CSV_FIELDS, _parse_triple, admissible_triples, main
from nctopo.graphs import MAX_VERTEX_LABEL


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestAnalyzeCirculant:
    def test_text_output(self, capsys):
        rc, out, err = run(capsys, "analyze", "--circulant", "10,1,3")
        assert rc == 0
        assert "C_10(1,3)" in out
        assert "case I2A" in out
        assert out.strip().endswith("verdict: pass")

    def test_json_schema(self, capsys):
        rc, out, err = run(capsys, "analyze", "--circulant", "10,1,3", "--format", "json")
        assert rc == 0
        obj = json.loads(out)
        assert sorted(obj) == ["case", "components", "n", "prediction", "s", "t", "verdict"]
        assert obj["n"] == 10 and obj["case"] == "I2A" and obj["verdict"] == "pass"
        assert len(obj["components"]) == 2
        for comp in obj["components"]:
            assert sorted(comp) == [
                "betti_z",
                "betti_z2",
                "core_dim",
                "euler",
                "f_vector",
                "surface",
                "torsion",
            ]

    def test_csv_header_and_rows(self, capsys):
        rc, out, err = run(capsys, "analyze", "--circulant", "10,1,3", "--format", "csv")
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert out.splitlines()[0] == ",".join(_CSV_FIELDS)
        assert len(rows) == 2
        assert rows[0]["betti_z"] == "1 0 0 1"
        assert rows[0]["component"] == "0" and rows[1]["component"] == "1"

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        rc, out, err = run(
            capsys, "analyze", "--circulant", "12,1,3", "--format", "json", "--out", str(path)
        )
        assert rc == 0
        assert out == ""
        assert json.loads(path.read_text())["case"] == "I2B"

    def test_normalized_parameters_in_output(self, capsys):
        rc, out, err = run(capsys, "analyze", "--circulant", "10,9,3", "--format", "json")
        obj = json.loads(out)
        assert (obj["s"], obj["t"]) == (1, 3)

    def test_requires_exactly_one_source(self, capsys, tmp_path):
        rc, _, err = run(capsys, "analyze")
        assert rc == 2 and "exactly one" in err
        path = tmp_path / "g.edges"
        path.write_text("0 1\n")
        rc, _, err = run(capsys, "analyze", "--circulant", "8,1,3", "--graph", str(path))
        assert rc == 2

    def test_malformed_triple(self, capsys):
        rc, _, err = run(capsys, "analyze", "--circulant", "10,1")
        assert rc == 2 and "nctopo:" in err

    def test_out_of_range_parameters(self, capsys):
        rc, _, err = run(capsys, "analyze", "--circulant", "4,1,2")
        assert rc == 2

    def test_unwritable_out(self, capsys, tmp_path):
        rc, _, err = run(
            capsys,
            "analyze",
            "--circulant",
            "8,1,3",
            "--out",
            str(tmp_path / "missing" / "x.txt"),
        )
        assert rc == 3


class TestAnalyzeGraphFile:
    def write_edges(self, tmp_path, name, edges):
        path = tmp_path / name
        path.write_text("".join(f"{u} {v}\n" for u, v in edges))
        return str(path)

    def test_complete_graph_has_no_verdict(self, capsys, tmp_path):
        path = self.write_edges(
            tmp_path, "k4.edges", [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        )
        rc, out, err = run(capsys, "analyze", "--graph", path, "--format", "json")
        assert rc == 0
        obj = json.loads(out)
        assert obj["case"] is None and obj["verdict"] is None
        assert obj["components"][0]["surface"] == "sphere"

    def test_path_graph_text(self, capsys, tmp_path):
        path = self.write_edges(tmp_path, "p4.edges", [(0, 1), (1, 2), (2, 3)])
        rc, out, err = run(capsys, "analyze", "--graph", path)
        assert rc == 0
        assert "p4.edges" in out
        assert "verdict: pass" in out

    def test_csv_blank_parameter_columns(self, capsys, tmp_path):
        path = self.write_edges(tmp_path, "p4.edges", [(0, 1), (1, 2), (2, 3)])
        rc, out, err = run(capsys, "analyze", "--graph", path, "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["s"] == "" and rows[0]["t"] == ""
        assert rows[0]["case"] == "degenerate-3-regular"

    def test_missing_file(self, capsys, tmp_path):
        rc, _, err = run(capsys, "analyze", "--graph", str(tmp_path / "absent.edges"))
        assert rc == 3

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 1\nnot numbers\n")
        rc, _, err = run(capsys, "analyze", "--graph", str(path))
        assert rc == 2
        assert "bad.edges:2" in err

    def test_huge_label_rejected_before_allocation(self, capsys, tmp_path):
        # The vertex count is the largest label plus one: this file would
        # ask for four billion adjacency sets.
        path = tmp_path / "huge.edges"
        path.write_text("0 4000000000\n")
        t0 = time.perf_counter()
        rc, _, err = run(capsys, "analyze", "--graph", str(path))
        assert time.perf_counter() - t0 < 1.0
        assert rc == 2
        assert "huge.edges:1: vertex label above" in err


class TestSweep:
    def test_admissible_triples_counts(self):
        assert len(admissible_triples(5, 8)) == 13
        assert admissible_triples(5, 5) == [(5, 1, 2)]

    def test_text_summary_line(self, capsys):
        rc, out, err = run(capsys, "sweep", "--n", "5..8", "--workers", "1")
        assert rc == 0
        assert out.strip().splitlines()[-1] == "instances=13 pass=13 fail=0 notable=0"

    def test_json_structure(self, capsys):
        rc, out, err = run(capsys, "sweep", "--n", "5..7", "--format", "json", "--workers", "1")
        assert rc == 0
        obj = json.loads(out)
        assert obj["range"] == [5, 7]
        assert obj["summary"]["pass"] == len(obj["instances"]) == 7
        assert err.strip() == "instances=7 pass=7 fail=0 notable=0"

    def test_csv_summary_goes_to_stderr(self, capsys):
        rc, out, err = run(capsys, "sweep", "--n", "5..6", "--format", "csv", "--workers", "1")
        assert rc == 0
        assert "instances=" not in out
        assert "instances=4" in err
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all(r["verdict"] == "pass" for r in rows)

    def test_rows_sorted_by_parameters(self, capsys):
        rc, out, err = run(capsys, "sweep", "--n", "5..9", "--format", "csv", "--workers", "1")
        rows = list(csv.DictReader(io.StringIO(out)))
        keys = [(int(r["n"]), int(r["s"]), int(r["t"]), int(r["component"])) for r in rows]
        assert keys == sorted(keys)

    def test_worker_count_does_not_change_bytes(self, capsys, tmp_path):
        one = tmp_path / "w1.csv"
        many = tmp_path / "w3.csv"
        rc1, _, _ = run(
            capsys, "sweep", "--n", "5..10", "--format", "csv",
            "--workers", "1", "--out", str(one),
        )
        rc3, _, _ = run(
            capsys, "sweep", "--n", "5..10", "--format", "csv",
            "--workers", "3", "--out", str(many),
        )
        assert rc1 == rc3 == 0
        assert one.read_bytes() == many.read_bytes()

    @pytest.mark.parametrize("bad", ["9..5", "abc", "4..6", "5"])
    def test_bad_ranges(self, capsys, bad):
        rc, _, err = run(capsys, "sweep", "--n", bad)
        assert rc == 2


class TestExportComplex:
    def test_bare_complex(self, capsys):
        rc, out, err = run(capsys, "export-complex", "--circulant", "8,1,3")
        assert rc == 0
        obj = json.loads(out)
        assert obj["vertices"] == list(range(8))
        assert obj["maximal_simplices"] == [[0, 2, 4, 6], [1, 3, 5, 7]]

    def test_core_included(self, capsys):
        rc, out, err = run(capsys, "export-complex", "--circulant", "15,1,4", "--core")
        obj = json.loads(out)
        assert sorted(obj) == ["complex", "core"]
        assert len(obj["core"]["maximal_simplices"]) == 30

    def test_trace_included(self, capsys):
        rc, out, err = run(capsys, "export-complex", "--circulant", "15,1,4", "--trace")
        obj = json.loads(out)
        assert sorted(obj) == ["complex", "core", "trace"]
        assert obj["trace"]["strategy"] == "circulant"
        assert obj["trace"]["schedule"] == "edges(s)"
        assert len(obj["trace"]["pairs"]) == 15
        for sigma, tau in obj["trace"]["pairs"]:
            assert len(sigma) == 2 and len(tau) == 4

    def test_malformed_triple(self, capsys):
        rc, _, err = run(capsys, "export-complex", "--circulant", "8;1;3")
        assert rc == 2


class TestCirculantSizeBound:
    @pytest.mark.parametrize("command", ["analyze", "export-complex"])
    def test_huge_n_rejected_before_allocation(self, capsys, command):
        # circulant(n, ...) allocates n adjacency sets.
        t0 = time.perf_counter()
        rc, out, err = run(capsys, command, "--circulant", "4000000000,1,2")
        assert time.perf_counter() - t0 < 1.0
        assert rc == 2
        assert out == ""
        assert f"n must be at most {MAX_VERTEX_LABEL + 1}" in err

    def test_bound_is_inclusive(self):
        assert _parse_triple(f"{MAX_VERTEX_LABEL + 1},1,2") == (MAX_VERTEX_LABEL + 1, 1, 2)
        with pytest.raises(ValueError):
            _parse_triple(f"{MAX_VERTEX_LABEL + 2},1,2")


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        import importlib
        import os
        import subprocess
        import sys
        from pathlib import Path

        import nctopo.cli

        tomllib = pytest.importorskip("tomllib")

        # The installed `nctopo` script runs exactly the function that
        # [project.scripts] names; check that declaration resolves to cli.main.
        root = Path(__file__).resolve().parent.parent
        with open(root / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"nctopo": "nctopo.cli:main"}
        module, _, attr = scripts["nctopo"].partition(":")
        assert getattr(importlib.import_module(module), attr) is nctopo.cli.main

        # Run it as `python -m nctopo` in a fresh interpreter that imports the
        # same nctopo this process tested, installed or not.
        src = str(Path(nctopo.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "nctopo", "analyze", "--circulant", "5,1,2", "--format", "json"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"] == "pass"
