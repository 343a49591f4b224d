"""CLI behavior: formats, exit codes, determinism, golden outputs."""

import ast
import csv
import io
import json
import multiprocessing
import pathlib
import time
import tracemalloc

import pytest

from nctopo import _kernels, classify, cli
from nctopo.classify import verify
from nctopo.cli import _CSV_FIELDS, _parse_range, _parse_triple, admissible_triples, main
from nctopo.collapse import apply_pairs
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

    def test_measured_note_printed_once(self, capsys, monkeypatch):
        """verify measures one component for all; its note is one line."""
        monkeypatch.setattr(classify, "_check_component", lambda *args: ("notable", "measured"))
        assert verify(20, 3, 5).notes == ("measured",)
        rc, out, _ = run(capsys, "analyze", "--circulant", "20,3,5")
        assert rc == 0
        assert out.count("  component ") == 2 and out.count("note: measured") == 1

    def test_grading_shape_named_once(self, capsys):
        """Both I4A instances pass under the one prediction S1-or-S3; the
        text names the shape each was graded against, once."""
        texts = {}
        for triple in ("7,1,2", "5,1,2"):
            rc, out, _ = run(capsys, "analyze", "--circulant", triple)
            assert rc == 0
            assert "prediction S1-or-S3" in out and out.endswith("verdict: pass\n")
            texts[triple] = [x for x in out.splitlines() if x.startswith("  note: ")]
        assert texts == {
            "7,1,2": ["  note: graded as one circle, betti (1, 1)"],
            "5,1,2": [
                "  note: graded as S^3, the boundary of a 4-simplex: the graph components are K_5"
            ],
        }
        for fmt in ("json", "csv"):
            _, out, _ = run(capsys, "analyze", "--circulant", "5,1,2", "--format", fmt)
            assert "graded as" not in out

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

    @pytest.mark.parametrize("triple", ["１２,1,3", "12,1,٣"])
    def test_only_ascii_decimal_digits(self, capsys, triple):
        rc, out, err = run(capsys, "analyze", "--circulant", triple)
        assert (rc, out) == (2, "")
        assert err == f"nctopo: expected n,s,t integers, got {triple!r}\n"

    @pytest.mark.parametrize("triple", ["\u300012,1,3", "12,\u00a01,3", "12,1,3\u2003"])
    def test_only_ascii_whitespace(self, capsys, triple):
        rc, out, err = run(capsys, "analyze", "--circulant", triple)
        assert (rc, out) == (2, "")
        assert err == f"nctopo: expected n,s,t integers, got {triple!r}\n"

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
        # The 3-cube is K_{4,4} minus a perfect matching, the other excluded graph.
        "cube": ([(u, u ^ bit) for u in range(8) for bit in (1, 2, 4) if u < u ^ bit], None),
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

    @pytest.mark.parametrize("label", ["1_0", "+2", "０", "²", "-"])
    def test_only_ascii_decimal_labels(self, capsys, tmp_path, label):
        path = tmp_path / "bad.edges"
        path.write_text(f"0 1\n{label} 3\n", encoding="utf-8")
        rc, out, err = run(capsys, "analyze", "--graph", str(path))
        assert (rc, out) == (2, "")
        assert err == f"nctopo: {path}:2: non-integer vertex label in {label + ' 3'!r}\n"

    @pytest.mark.parametrize(
        "line,message",
        [
            ("0\u30001", "expected two vertex labels, got"),
            ("0\u00a01", "expected two vertex labels, got"),
            ("\u30000 1", "non-integer vertex label in"),
        ],
    )
    def test_only_ascii_whitespace(self, capsys, tmp_path, line, message):
        path = tmp_path / "bad.edges"
        path.write_text(f"1 2\n{line}\n", encoding="utf-8")
        rc, out, err = run(capsys, "analyze", "--graph", str(path))
        assert (rc, out) == (2, "")
        assert err == f"nctopo: {path}:2: {message} {line!r}\n"

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
        for fmt in ("csv", "json", "text"):
            one = tmp_path / f"w1.{fmt}"
            many = tmp_path / f"w3.{fmt}"
            rc1, _, err1 = run(
                capsys, "sweep", "--n", "5..10", "--format", fmt,
                "--workers", "1", "--out", str(one),
            )
            rc3, _, err3 = run(
                capsys, "sweep", "--n", "5..10", "--format", fmt,
                "--workers", "3", "--out", str(many),
            )
            assert rc1 == rc3 == 0
            assert err1 == err3
            assert one.read_bytes() == many.read_bytes()

    def test_streamed_json_is_one_dump(self, capsys):
        # The sweep writes its JSON instance by instance; the pieces must
        # join into the dump of the whole object.
        rc, out, _ = run(capsys, "sweep", "--n", "5..12", "--format", "json", "--workers", "1")
        assert rc == 0
        instances = [verify(*nst).to_json_obj() for nst in admissible_triples(5, 12)]
        assert any(len(obj["components"]) > 1 for obj in instances)
        summary = {"pass": len(instances), "fail": 0, "notable": 0}
        whole = {"range": [5, 12], "instances": instances, "summary": summary}
        assert out == json.dumps(whole, indent=2) + "\n"

    def test_unwritable_out_fails_before_any_instance(self, capsys, monkeypatch, tmp_path):
        calls = []
        monkeypatch.setattr(cli, "verify", lambda *nst: calls.append(nst))
        path = tmp_path / "missing" / "x.csv"
        rc, out, err = run(
            capsys, "sweep", "--n", "5..8", "--format", "csv", "--workers", "1", "--out", str(path)
        )
        assert (rc, out, calls) == (3, "", [])
        assert err.startswith("nctopo: ") and str(path) in err

    def test_memory_does_not_grow_with_the_range(self, tmp_path):
        # A streamed sweep holds one report at a time, so what it holds and
        # lets go by its end peaks no higher over the 505 instances of 5..24
        # than over the 221 of 21..24, whose cores are the largest of both.
        # Measured as the traced peak above what is still allocated when
        # the sweep returns: the interpreter's tuple free lists keep growing
        # from run to run until a full collection empties them, and that
        # growth outlives the sweep.
        out = str(tmp_path / "sweep.csv")

        def held(lo_hi):
            tracemalloc.start()
            try:
                rc = main(["sweep", "--n", lo_hi, "--workers", "1", "--format", "csv",
                           "--out", out])
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert rc == 0
            return peak - current

        held("5..8")  # warm-up: lazy imports and first-use caches
        assert held("5..24") <= 1.2 * held("21..24")

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

            def imap(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
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

    @pytest.mark.parametrize("bad", ["５..6", "5..６"])
    def test_only_ascii_decimal_digits(self, capsys, bad):
        rc, out, err = run(capsys, "sweep", "--n", bad, "--workers", "1")
        assert (rc, out) == (2, "")
        assert err == f"nctopo: expected a range A..B, got {bad!r}\n"

    @pytest.mark.parametrize("bad", ["\u30005..6", "5..6\u00a0"])
    def test_only_ascii_whitespace(self, capsys, bad):
        rc, out, err = run(capsys, "sweep", "--n", bad, "--workers", "1")
        assert (rc, out) == (2, "")
        assert err == f"nctopo: expected a range A..B, got {bad!r}\n"

    @pytest.mark.parametrize("bad", ["9..5", "abc", "4..6", "5"])
    def test_bad_ranges(self, capsys, bad):
        rc, _, err = run(capsys, "sweep", "--n", bad)
        assert rc == 2


def _is_lazy(node):
    """A generator expression or a map(...) call."""
    return isinstance(node, ast.GeneratorExp) or (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "map"
    )


def test_no_tuple_of_a_generator():
    # CPython allocates a generator's tuple at a guessed size and shrinks it;
    # freed, it parks in the free list of its final size.  Over 40 sweeps of
    # 5..25 in one process that raised peak RSS from 17.4 to 21.1 MB.  A
    # starred argument, f(*map(...)) or f(*(x for ...)), is packed into
    # such a tuple too.
    package = pathlib.Path(cli.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and (
            (
                isinstance(node.func, ast.Name)
                and node.func.id == "tuple"
                and node.args
                and isinstance(node.args[0], ast.GeneratorExp)
            )
            or any(isinstance(a, ast.Starred) and _is_lazy(a.value) for a in node.args)
        )
    ]
    assert found == []


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
        assert SimplicialComplex(apply_pairs(k, pairs), antichain=True) == core

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
        rc, out, err = run(capsys, "sweep", "--n", "5..185", "--format", "csv", "--workers", "1")
        assert (rc, out) == (0, ",".join(_CSV_FIELDS) + "\n") and listed == [(5, 185)]
        rc, out, err = run(capsys, "sweep", "--n", "5..185", "--format", "json", "--workers", "1")
        counts = {"pass": 0, "fail": 0, "notable": 0}
        empty = {"range": [5, 185], "instances": [], "summary": counts}
        assert (rc, out) == (0, json.dumps(empty, indent=2) + "\n")
        assert err == "instances=0 pass=0 fail=0 notable=0\n"
        assert listed == [(5, 185), (5, 185)]
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


class TestInternalFailures:
    """A failed cross-check and exhausted memory each end with an exit code
    of their own and one line on stderr, not a traceback."""

    @pytest.mark.parametrize("check", ["surface euler", "smith rank"])
    def test_cross_check_failure_exits_4(self, capsys, monkeypatch, check):
        if check == "surface euler":
            # The torus core's Euler characteristic reads 1: odd for an
            # orientable closed surface.
            monkeypatch.setattr(SimplicialComplex, "euler_characteristic", lambda self: 1)
            message = "orientable closed surface with Euler characteristic 1"
        else:
            # A Smith kernel that loses a pivot: the GF(2) rank exceeds it.
            dispatch = _kernels.snf_diagonal
            monkeypatch.setattr(_kernels, "snf_diagonal", lambda mat: dispatch(mat)[:-1])
            message = "rank mismatch in boundary 1"
        rc, out, err = run(capsys, "analyze", "--circulant", "15,1,4")
        assert rc == 4 and out == ""
        assert err.startswith(f"nctopo: internal cross-check failed: {message}")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_memory_error_exits_5(self, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "verify", exhausted)
        assert run(capsys, "analyze", "--circulant", "15,1,4") == (5, "", "nctopo: out of memory\n")


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
