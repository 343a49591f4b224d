"""CLI behavior: formats, exit codes, determinism, golden outputs."""

import csv
import io
import json
import time

import pytest

from nctopo import classify, cli
from nctopo.cli import _CSV_FIELDS, _parse_range, _parse_triple, admissible_triples, main
from nctopo.collapse import CollapseTrace
from nctopo.complexes import SimplicialComplex, neighborhood_complex
from nctopo.graphs import MAX_VERTEX_LABEL, circulant, fold_reduce


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _cells(xs):
    return " ".join(str(x) for x in xs)


def expected_component_line(i, comp):
    """Text line of one JSON component, built without the CLI's renderer."""
    torsion = "|".join(",".join(str(f) for f in dim) for dim in comp["torsion"])
    line = (
        f"  component {i}: f=({_cells(comp['f_vector'])}) betti_z=({_cells(comp['betti_z'])})"
        f" torsion=[{torsion}] betti_z2=({_cells(comp['betti_z2'])})"
        f" euler={comp['euler']} surface={comp['surface']} dim={comp['core_dim']}"
    )
    return line + (f" {comp['verdict']}" if comp.get("verdict") else "")


class TestAnalyzeCirculant:
    def test_text_output(self, capsys):
        rc, out, err = run(capsys, "analyze", "--circulant", "10,1,3")
        assert rc == 0
        assert "C_10(1,3)" in out
        assert "case I2A" in out
        assert out.strip().endswith("verdict: pass")

    @pytest.mark.parametrize("triple", ["10,1,3", "8,1,3", "12,1,3"])
    def test_text_component_lines(self, capsys, triple):
        rc, text, _ = run(capsys, "analyze", "--circulant", triple)
        assert rc == 0
        _, js, _ = run(capsys, "analyze", "--circulant", triple, "--format", "json")
        _, table, _ = run(capsys, "analyze", "--circulant", triple, "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(table)))
        comps = json.loads(js)["components"]
        lines = [x for x in text.splitlines() if x.startswith("  component ")]
        assert lines == [
            expected_component_line(i, {**c, "verdict": row["component_verdict"]})
            for i, (c, row) in enumerate(zip(comps, rows))
        ]
        assert all(row["component_verdict"] for row in rows)

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

    GRAPHS = {
        "p4": ([(0, 1), (1, 2), (2, 3)], "pass"),
        "petersen": (
            sorted(
                tuple(sorted(e))
                for i in range(5)
                for e in ((i, (i + 1) % 5), (5 + i, 5 + (i + 2) % 5), (i, i + 5))
            ),
            "pass",
        ),
        "k4": ([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], None),
    }

    def outputs(self, capsys, tmp_path, name):
        edges, verdict = self.GRAPHS[name]
        path = self.write_edges(tmp_path, f"{name}.edges", edges)
        out = {}
        for fmt in ("json", "csv", "text"):
            rc, out[fmt], _ = run(capsys, "analyze", "--graph", path, "--format", fmt)
            assert rc == 0
        obj = json.loads(out["json"])
        assert obj["verdict"] == verdict
        return obj, out

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_csv_rows_match_json_components(self, capsys, tmp_path, name):
        obj, out = self.outputs(capsys, tmp_path, name)
        rows = list(csv.DictReader(io.StringIO(out["csv"])))
        assert len(rows) == len(obj["components"]) >= 1
        for i, (row, comp) in enumerate(zip(rows, obj["components"])):
            torsion = "|".join(",".join(str(f) for f in dim) for dim in comp["torsion"])
            assert row == {
                "n": str(obj["num_vertices"]),
                "s": "",
                "t": "",
                "case": obj["case"] or "",
                "prediction": obj["prediction"] or "",
                "component": str(i),
                "f_vector": _cells(comp["f_vector"]),
                "betti_z": _cells(comp["betti_z"]),
                "torsion": torsion,
                "betti_z2": _cells(comp["betti_z2"]),
                "euler": str(comp["euler"]),
                "surface": comp["surface"],
                "core_dim": str(comp["core_dim"]),
                "component_verdict": comp["verdict"] or "",
                "verdict": obj["verdict"] or "",
            }
            assert (row["component_verdict"] == "") == (comp["verdict"] is None)

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_text_lines_share_the_circulant_format(self, capsys, tmp_path, name):
        obj, out = self.outputs(capsys, tmp_path, name)
        lines = [x for x in out["text"].splitlines() if x.startswith("  component ")]
        assert lines == [expected_component_line(i, c) for i, c in enumerate(obj["components"])]
        graded = obj["verdict"] is not None
        assert all(line.endswith(f" {obj['verdict']}") == graded for line in lines)

    def test_missing_file(self, capsys, tmp_path):
        rc, _, err = run(capsys, "analyze", "--graph", str(tmp_path / "absent.edges"))
        assert rc == 3

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 1\nnot numbers\n")
        rc, _, err = run(capsys, "analyze", "--graph", str(path))
        assert rc == 2
        assert "bad.edges:2" in err

    def test_undecodable_file(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"0 1\n\xff\xfe 2\n")
        rc, _, err = run(capsys, "analyze", "--graph", str(path))
        assert rc == 2
        assert "bad.txt:2:" in err

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

    def test_admissible_triples_come_sorted(self):
        triples = admissible_triples(5, 12)
        assert triples == sorted(triples)

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

    @pytest.mark.parametrize("workers, asked", [("3000", 2), ("0", 2), ("2", 2), ("1", None)])
    def test_workers_bounded_by_cpu_count(self, capsys, monkeypatch, workers, asked):
        """A fake pool records the count it is asked for and runs the
        tasks in this process, so no worker is ever started."""
        pools = []

        class FakePool:
            def __init__(self, processes):
                pools.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def starmap(self, fn, tasks, chunksize=1):
                return [fn(*task) for task in tasks]

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(cli, "multiprocessing", type("mp", (), {"Pool": FakePool}))
        rc, out, _ = run(capsys, "sweep", "--n", "5..8", "--workers", workers)
        assert rc == 0
        assert out.strip().splitlines()[-1] == "instances=13 pass=13 fail=0 notable=0"
        assert pools == ([] if asked is None else [asked])

    @pytest.mark.parametrize("workers", ["-3", "-1"])
    def test_negative_workers_rejected(self, capsys, workers):
        rc, out, err = run(capsys, "sweep", "--n", "5..6", "--workers", workers)
        assert rc == 2
        assert out == ""
        assert err == f"nctopo: --workers must be 0 (one per CPU) or positive, got {workers}\n"

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

    @pytest.mark.parametrize("nst", [(8, 1, 3), (30, 5, 10)])
    def test_trace_on_fold_instance(self, capsys, monkeypatch, nst):
        n, s, t = nst
        expected = neighborhood_complex(fold_reduce(circulant(n, (s, t))))
        builds = []

        def counting(g, **kwargs):
            builds.append(g)
            return neighborhood_complex(g, **kwargs)

        monkeypatch.setattr(classify, "neighborhood_complex", counting)
        monkeypatch.setattr(cli, "neighborhood_complex", counting)
        rc, out, err = run(capsys, "export-complex", "--circulant", f"{n},{s},{t}", "--trace")
        assert rc == 0
        assert len(builds) == 1
        obj = json.loads(out)
        assert obj["trace"]["strategy"] == "generic"
        assert obj["trace"]["schedule"] is None
        assert obj["complex"] == expected.to_json_obj()
        k = SimplicialComplex.from_json_obj(obj["complex"])
        core = SimplicialComplex.from_json_obj(obj["core"])
        pairs = [(tuple(sigma), tuple(tau)) for sigma, tau in obj["trace"]["pairs"]]
        assert CollapseTrace(pairs, core, "generic").replay(k) == core

    def test_malformed_triple(self, capsys):
        rc, _, err = run(capsys, "export-complex", "--circulant", "8;1;3")
        assert rc == 2

    @pytest.mark.parametrize(
        "triple, flag, message",
        [
            ("7,3,3", "--trace", "generators coincide mod the dihedral symmetry: s = t = 3"),
            ("4,1,2", "--core", "n = 4 is out of range"),
        ],
    )
    def test_invalid_triple_rejected_like_analyze(self, capsys, triple, flag, message):
        rc, out, err = run(capsys, "export-complex", "--circulant", triple, flag)
        assert (rc, out) == (2, "")
        assert message in err
        assert run(capsys, "analyze", "--circulant", triple) == (rc, out, err)

    def test_triple_is_normalized(self, capsys, monkeypatch):
        seen = []
        collapse = classify.collapse_core

        def spy(k, strategy="generic", circulant=None):
            seen.append(circulant)
            return collapse(k, strategy=strategy, circulant=circulant)

        monkeypatch.setattr(classify, "collapse_core", spy)
        rc, raw, _ = run(capsys, "export-complex", "--circulant", "13,11,3", "--trace")
        assert rc == 0
        assert run(capsys, "export-complex", "--circulant", "13,2,3", "--trace") == (0, raw, "")
        assert seen == [(13, 2, 3), (13, 2, 3)]


class TestCirculantSizeBound:
    @pytest.mark.parametrize("command", ["analyze", "export-complex", "sweep"])
    def test_huge_n_rejected_before_allocation(self, capsys, command):
        # circulant(n, ...) allocates n adjacency sets; a sweep would first
        # list every triple up to n.
        huge = ["--n", "5..4000000000"] if command == "sweep" else ["--circulant", "4000000000,1,2"]
        t0 = time.perf_counter()
        rc, out, err = run(capsys, command, *huge)
        assert time.perf_counter() - t0 < 1.0
        assert rc == 2
        assert out == ""
        assert f"n must be at most {MAX_VERTEX_LABEL + 1}" in err

    def test_sweep_instance_cap(self, capsys, monkeypatch):
        # 5..100001 has 41666666649999 instances; none is listed.  5..185,
        # with 259531, is the largest range from 5 under the cap.
        listed = []

        def fake_triples(lo, hi):
            if hi > 185:
                raise AssertionError("admissible_triples called above the cap")
            listed.append((lo, hi))
            return []

        monkeypatch.setattr(cli, "admissible_triples", fake_triples)
        for hi, count in ((100001, 41666666649999), (186, 263809)):
            rc, out, err = run(capsys, "sweep", "--n", f"5..{hi}", "--format", "csv")
            assert (rc, out) == (2, "")
            assert err == (
                f"nctopo: 5..{hi} has {count} instances,"
                f" above the cap of {cli.MAX_SWEEP_INSTANCES}\n"
            )
        rc, _, err = run(capsys, "sweep", "--n", "5..185", "--format", "csv", "--workers", "1")
        assert rc == 0 and listed == [(5, 185)]
        assert cli.MAX_SWEEP_INSTANCES == 2**18

    def test_bound_is_inclusive(self):
        assert _parse_triple(f"{MAX_VERTEX_LABEL + 1},1,2") == (MAX_VERTEX_LABEL + 1, 1, 2)
        with pytest.raises(ValueError):
            _parse_triple(f"{MAX_VERTEX_LABEL + 2},1,2")
        assert _parse_range(f"5..{MAX_VERTEX_LABEL + 1}") == (5, MAX_VERTEX_LABEL + 1)
        with pytest.raises(ValueError, match=f"n must be at most {MAX_VERTEX_LABEL + 1}"):
            _parse_range(f"5..{MAX_VERTEX_LABEL + 2}")


class TestFaceBound:
    def test_complete_graph_above_the_cap_rejected(self, capsys, tmp_path):
        path = tmp_path / "k18.edges"
        path.write_text("".join(f"{u} {v}\n" for u in range(18) for v in range(u + 1, 18)))
        t0 = time.perf_counter()
        rc, out, err = run(capsys, "analyze", "--graph", str(path))
        assert time.perf_counter() - t0 < 1.0
        assert rc == 2
        assert out == ""
        assert f"above the cap of {classify.MAX_COMPLEX_FACES}" in err


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
