"""Command-line front end: analyze, sweep, export-complex.

Circulant reports and graph analyses share one component renderer per
format; export-complex reduces through classify.reduce_to_core.

Exit codes: 0 when no component verdict is fail, 1 when one is, 2 for
invalid parameters, 3 for unreadable or unwritable files.  JSON and CSV
outputs are stable contracts and are byte-identical across runs and
worker counts; the text format is human-oriented and may change.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import multiprocessing
import os
import re
import sys

from .classify import analyze_graph, case_of, reduce_to_core, verify
from .complexes import neighborhood_complex
from .graphs import MAX_VERTEX_LABEL, circulant, read_edge_list

_CSV_FIELDS = (
    "n",
    "s",
    "t",
    "case",
    "prediction",
    "component",
    "f_vector",
    "betti_z",
    "torsion",
    "betti_z2",
    "euler",
    "surface",
    "core_dim",
    "component_verdict",
    "verdict",
)


def _parse_triple(text):
    m = re.fullmatch(r"\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*", text)
    if not m:
        raise ValueError(f"expected n,s,t integers, got {text!r}")
    n, s, t = (int(x) for x in m.groups())
    if n > MAX_VERTEX_LABEL + 1:
        raise ValueError(f"n must be at most {MAX_VERTEX_LABEL + 1}, got {n}")
    return n, s, t


def _parse_range(text):
    m = re.fullmatch(r"\s*(\d+)\.\.(\d+)\s*", text)
    if not m:
        raise ValueError(f"expected a range A..B, got {text!r}")
    lo, hi = int(m.group(1)), int(m.group(2))
    if not 5 <= lo <= hi:
        raise ValueError(f"need 5 <= A <= B, got {lo}..{hi}")
    if hi > MAX_VERTEX_LABEL + 1:
        raise ValueError(f"n must be at most {MAX_VERTEX_LABEL + 1}, got {hi}")
    return lo, hi


def admissible_triples(lo, hi):
    """All (n, s, t) with lo <= n <= hi and 1 <= s < t <= n//2."""
    out = []
    for n in range(lo, hi + 1):
        for t in range(2, n // 2 + 1):
            for s in range(1, t):
                out.append((n, s, t))
    return out


def _ints(xs):
    return " ".join(str(x) for x in xs)


def _torsion_cell(torsion):
    return "|".join(",".join(str(f) for f in dim) for dim in torsion)


def _component_rows(head, components, verdict):
    """CSV rows of components, each opening with the instance columns in head."""
    return [
        {
            **head,
            "component": i,
            "f_vector": _ints(c.f_vector),
            "betti_z": _ints(c.betti_z),
            "torsion": _torsion_cell(c.torsion),
            "betti_z2": _ints(c.betti_z2),
            "euler": c.euler,
            "surface": c.surface,
            "core_dim": c.core_dim,
            "component_verdict": c.verdict,
            "verdict": verdict,
        }
        for i, c in enumerate(components)
    ]


def _report_rows(r):
    head = dict(n=r.n, s=r.s, t=r.t, case=r.case.tag, prediction=r.prediction)
    return _component_rows(head, r.components, r.verdict)


def _render_csv(rows):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _component_lines(components):
    """Text lines of components; a component without a verdict gets no suffix."""
    return [
        f"  component {i}: f=({_ints(c.f_vector)}) betti_z=({_ints(c.betti_z)})"
        f" torsion=[{_torsion_cell(c.torsion)}] betti_z2=({_ints(c.betti_z2)})"
        f" euler={c.euler} surface={c.surface} dim={c.core_dim}"
        + (f" {c.verdict}" if c.verdict else "")
        for i, c in enumerate(components)
    ]


def _render_report_text(report):
    lines = [
        f"C_{report.n}({report.s},{report.t})  case {report.case.tag}"
        f"  [{report.case.witness}]  prediction {report.prediction}"
    ]
    lines.extend(_component_lines(report.components))
    lines.extend(f"  note: {note}" for note in report.notes)
    lines.append(f"verdict: {report.verdict}")
    return "\n".join(lines) + "\n"


def _render_graph_text(result):
    head = result["graph"] or "graph"
    lines = [
        f"{head}: {result['num_vertices']} vertices, max degree {result['max_degree']}"
    ]
    if result["case"]:
        lines.append(f"case {result['case']}  prediction {result['prediction']}")
    lines.extend(_component_lines(result["components"]))
    lines.append(f"verdict: {result['verdict'] if result['verdict'] else 'n/a'}")
    return "\n".join(lines) + "\n"


def _graph_json_obj(result):
    return {
        "graph": result["graph"],
        "num_vertices": result["num_vertices"],
        "max_degree": result["max_degree"],
        "case": result["case"],
        "prediction": result["prediction"],
        "components": [
            {**c.to_json_obj(), "verdict": c.verdict or None} for c in result["components"]
        ],
        "verdict": result["verdict"],
    }


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_analyze(args):
    if (args.circulant is None) == (args.graph is None):
        raise ValueError("exactly one of --circulant and --graph is required")

    if args.circulant is not None:
        n, s, t = _parse_triple(args.circulant)
        report = verify(n, s, t)
        if args.format == "json":
            text = json.dumps(report.to_json_obj(), indent=2) + "\n"
        elif args.format == "csv":
            text = _render_csv(_report_rows(report))
        else:
            text = _render_report_text(report)
        _emit(text, args.out)
        return 0 if report.verdict != "fail" else 1

    g = read_edge_list(args.graph)
    result = analyze_graph(g, name=os.path.basename(args.graph))
    if args.format == "json":
        text = json.dumps(_graph_json_obj(result), indent=2) + "\n"
    elif args.format == "csv":
        head = {
            "n": result["num_vertices"],
            "s": "",
            "t": "",
            "case": result["case"] or "",
            "prediction": result["prediction"] or "",
        }
        text = _render_csv(_component_rows(head, result["components"], result["verdict"] or ""))
    else:
        text = _render_graph_text(result)
    _emit(text, args.out)
    return 0 if result["verdict"] != "fail" else 1


def _cmd_sweep(args):
    if args.workers < 0:
        raise ValueError(f"--workers must be 0 (one per CPU) or positive, got {args.workers}")
    lo, hi = _parse_range(args.range)
    tasks = admissible_triples(lo, hi)
    workers = args.workers if args.workers else os.cpu_count() or 1
    workers = max(1, min(workers, len(tasks) or 1))

    if workers == 1:
        reports = [verify(*nst) for nst in tasks]
    else:
        with multiprocessing.Pool(workers) as pool:
            reports = pool.starmap(verify, tasks, chunksize=8)
    # admissible_triples runs t before s; the output is ordered by (n, s, t).
    reports.sort(key=lambda r: (r.n, r.s, r.t))

    counts = {"pass": 0, "fail": 0, "notable": 0}
    for r in reports:
        counts[r.verdict] += 1
    summary = (
        f"instances={len(reports)} pass={counts['pass']}"
        f" fail={counts['fail']} notable={counts['notable']}"
    )

    if args.format == "json":
        obj = {
            "range": [lo, hi],
            "instances": [r.to_json_obj() for r in reports],
            "summary": counts,
        }
        text = json.dumps(obj, indent=2) + "\n"
    elif args.format == "csv":
        text = _render_csv([row for r in reports for row in _report_rows(r)])
    else:
        lines = []
        for r in reports:
            worst = "" if r.verdict == "pass" else f"  <- {r.verdict}"
            comps = r.components
            lines.append(
                f"C_{r.n}({r.s},{r.t})  {r.case.tag:4s} {r.prediction:24s}"
                f" components={len(comps)} betti_z=({_ints(comps[0].betti_z)})"
                f" {r.verdict}{worst}"
            )
        lines.append(summary)
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    if args.format != "text":
        print(summary, file=sys.stderr)
    return 0 if counts["fail"] == 0 else 1


def _cmd_export_complex(args):
    case = case_of(*_parse_triple(args.circulant))
    n, s, t = case.n, case.s, case.t
    g = circulant(n, (s, t))
    if args.core or args.trace:
        _, k, trace = reduce_to_core(g, (n, s, t))
        obj = {"complex": k.to_json_obj(), "core": trace.core.to_json_obj()}
        if args.trace:
            obj["trace"] = {
                "strategy": trace.strategy,
                "schedule": trace.schedule,
                "pairs": [
                    [list(sigma), list(tau)] for sigma, tau in trace.pairs
                ],
            }
    else:
        obj = neighborhood_complex(g).to_json_obj()
    _emit(json.dumps(obj, indent=2) + "\n", args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nctopo",
        description="Neighborhood-complex topology of circulant graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="verify one circulant or analyze a graph file")
    p.add_argument("--circulant", metavar="n,s,t", help="circulant parameters")
    p.add_argument("--graph", metavar="PATH", help="edge-list file")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--out", metavar="PATH", help="write output to a file")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("sweep", help="verify every admissible instance in a range")
    p.add_argument("--n", dest="range", metavar="A..B", required=True)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--out", metavar="PATH", help="write output to a file")
    p.add_argument("--workers", type=int, metavar="K", default=0)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("export-complex", help="emit the complex as canonical JSON")
    p.add_argument("--circulant", metavar="n,s,t", required=True)
    p.add_argument("--core", action="store_true", help="include the collapsed core")
    p.add_argument("--trace", action="store_true", help="include the collapse trace")
    p.add_argument("--out", metavar="PATH", help="write output to a file")
    p.set_defaults(func=_cmd_export_complex)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"nctopo: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"nctopo: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
