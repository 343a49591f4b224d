"""Command-line front end: analyze, sweep, export-complex.

analyze turns a circulant report or a graph analysis into one CSV head,
title, JSON object, component list, note list and verdict, and renders
them through one format switch; export-complex reduces through
classify.reduce_to_core.

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
import math
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


# Cap on the instances one sweep lists and verifies, sum over n of
# C(n // 2, 2).  The 5..40 sweep peaks at about 2.7 KB per instance, so a
# capped sweep stays under 1 GB; the largest range from 5 it admits is
# 5..185, with 259531 instances.
MAX_SWEEP_INSTANCES = 1 << 18


def admissible_triples(lo, hi):
    """All (n, s, t) with lo <= n <= hi and 1 <= s < t <= n//2."""
    out = []
    for n in range(lo, hi + 1):
        for s in range(1, n // 2):
            for t in range(s + 1, n // 2 + 1):
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


def _circulant_head(r):
    """The instance columns of a VerificationReport's CSV rows."""
    return dict(n=r.n, s=r.s, t=r.t, case=r.case.tag, prediction=r.prediction)


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
        r = verify(*_parse_triple(args.circulant))
        head = _circulant_head(r)
        title = [
            f"C_{r.n}({r.s},{r.t})  case {r.case.tag}"
            f"  [{r.case.witness}]  prediction {r.prediction}"
        ]
        obj = r.to_json_obj()
        components, notes, verdict = r.components, r.notes, r.verdict
    else:
        res = analyze_graph(read_edge_list(args.graph), name=os.path.basename(args.graph))
        case, prediction = res["case"] or "", res["prediction"] or ""
        head = dict(n=res["num_vertices"], s="", t="", case=case, prediction=prediction)
        title = [
            f"{res['graph'] or 'graph'}: {res['num_vertices']} vertices,"
            f" max degree {res['max_degree']}"
        ]
        if case:
            title.append(f"case {case}  prediction {prediction}")
        components, notes, verdict = res["components"], (), res["verdict"]
        obj = {
            **res,
            "components": [{**c.to_json_obj(), "verdict": c.verdict or None} for c in components],
        }

    if args.format == "json":
        text = json.dumps(obj, indent=2) + "\n"
    elif args.format == "csv":
        text = _render_csv(_component_rows(head, components, verdict or ""))
    else:
        lines = title + _component_lines(components)
        lines += [f"  note: {note}" for note in notes]
        lines.append(f"verdict: {verdict or 'n/a'}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0 if verdict != "fail" else 1


def _cmd_sweep(args):
    if args.workers < 0:
        raise ValueError(f"--workers must be 0 (one per CPU) or positive, got {args.workers}")
    lo, hi = _parse_range(args.range)
    count = sum(math.comb(n // 2, 2) for n in range(lo, hi + 1))
    if count > MAX_SWEEP_INSTANCES:
        raise ValueError(
            f"{lo}..{hi} has {count} instances, above the cap of {MAX_SWEEP_INSTANCES}"
        )
    tasks = admissible_triples(lo, hi)
    cpus = os.cpu_count() or 1
    workers = max(1, min(args.workers or cpus, cpus, len(tasks)))

    if workers == 1:
        reports = [verify(*nst) for nst in tasks]
    else:
        with multiprocessing.Pool(workers) as pool:
            reports = pool.starmap(verify, tasks, chunksize=8)

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
        rows = [_component_rows(_circulant_head(r), r.components, r.verdict) for r in reports]
        text = _render_csv([row for instance in rows for row in instance])
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
