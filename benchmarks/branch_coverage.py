"""Line and branch coverage of ``src/nctopo`` under the test suite, stdlib only.

Runs ``pytest.main(["tests"])`` in this process with a ``sys.settrace``
and ``threading.settrace`` tracer that records, for every frame of a file
under ``src/nctopo``, the arcs between consecutive lines (and from the last
line to the frame's exit), and whether a ``cli.main`` frame was on the
stack when the frame started.  Then it prints

* every executable line (one that has byte code) that never ran,
* every ``if``/``while`` test whose body was never entered, or never
  skipped: an arc from the test's lines into any line of the body's span
  enters it, an arc to any other line or out of the frame skips it, and
* the reach section: every function defined under ``src/nctopo`` that was
  never called while a command ran, that is under ``cli.main``.  Those
  are reached only by direct test calls; the README lists the ones kept
  on purpose and why.

Tests that start a subprocess or a worker pool run code this tracer does
not see, so a line that only they reach is reported as never run.  The
suite runs several times slower under the tracer (about two minutes on a
2-vCPU VM with Python 3.11):

    python3 benchmarks/branch_coverage.py
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nctopo"
CLI = PACKAGE / "cli.py"
EXIT = 0  # arc target for leaving the frame


def _tracer(arcs, reached):
    """A global trace function recording arcs[resolved path] per traced
    frame, and in reached the (resolved path, first line) of each code
    object that started while a cli.main frame was live in its thread."""
    ours = {}  # co_filename -> resolved path under PACKAGE, or None
    in_main = defaultdict(int)  # thread id -> live cli.main frames

    def global_trace(frame, event, arg):
        code = frame.f_code
        filename = code.co_filename
        if filename not in ours:
            path = Path(filename).resolve()
            ours[filename] = path if path.is_relative_to(PACKAGE) else None
        if ours[filename] is None:
            return None
        seen = arcs[ours[filename]]
        last = None
        thread = threading.get_ident()
        is_main = ours[filename] == CLI and code.co_name == "main"
        in_main[thread] += is_main
        if in_main[thread]:
            reached.add((ours[filename], code.co_firstlineno))

        def local_trace(frame, event, arg):
            nonlocal last
            if event == "line":
                seen.add((EXIT if last is None else last, frame.f_lineno))
                last = frame.f_lineno
            elif event == "return":
                if last is not None:
                    seen.add((last, EXIT))
                in_main[thread] -= is_main
            elif event == "exception":
                # Raising is not a branch outcome: drop the arc it makes.
                last = None
            return local_trace

        return local_trace

    return global_trace


def _code_lines(code):
    lines = {line for _, _, line in code.co_lines() if line}  # None or 0: no source line
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _branches(tree):
    """(test first line, test last line, body first line, body last line, kind)."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.If, ast.While)) or isinstance(node.test, ast.Constant):
            continue
        start, end = node.body[0].lineno, node.body[-1].end_lineno
        if start > node.test.end_lineno:  # a body on the test's line has no arc of its own
            yield node.lineno, node.test.end_lineno, start, end, type(node).__name__.lower()


def _functions(tree, prefix=""):
    """(first line, qualified name) of every def, nested ones included; the
    first line is a decorator's when there is one, as in co_firstlineno."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield first, prefix + node.name
            yield from _functions(node, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}{node.name}.")


def unreached(reached):
    """The functions under src/nctopo that no command called."""
    out = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        rel = path.relative_to(ROOT)
        out += [
            f"{rel}:{line}: {name}"
            for line, name in sorted(_functions(tree))
            if (path, line) not in reached
        ]
    return out


def report(arcs):
    out = []
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        seen = arcs.get(path, set())
        ran = {b for _, b in seen}
        rel = path.relative_to(ROOT)
        code = compile(source, str(path), "exec")
        found = [(line, "never run") for line in _code_lines(code) - ran]
        for lo, hi, start, end, kind in _branches(ast.parse(source)):
            targets = {b for a, b in seen if lo <= a <= hi and not lo <= b <= hi}
            if not targets:
                continue  # the test never ran; reported above as a line
            if not any(start <= b <= end for b in targets):
                found.append((lo, f"{kind} body never entered"))
            if all(start <= b <= end for b in targets):
                found.append((lo, f"{kind} body never skipped"))
        out += [f"{rel}:{line}: {what}" for line, what in sorted(found)]
    return out


def main():
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    arcs = defaultdict(set)
    reached = set()
    trace = _tracer(arcs, reached)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main([str(ROOT / "tests"), "-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    lines = report(arcs)
    print("\n".join(lines))
    print(f"pytest exit status {int(status)}; {len(lines)} findings")
    missed = unreached(reached)
    print("\nfunctions never called under cli.main:")
    print("\n".join(missed))
    print(f"{len(missed)} functions reached only by direct test calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())
