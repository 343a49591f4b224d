"""Line and branch coverage of ``src/nctopo`` under the test suite, stdlib only.

Runs ``pytest.main(["tests"])`` in this process with a ``sys.settrace``
and ``threading.settrace`` tracer that records, for every frame of a file
under ``src/nctopo``, the arcs between consecutive lines (and from the last
line to the frame's exit).  Then it prints

* every executable line (one that has byte code) that never ran, and
* every ``if``/``while`` test whose body was never entered, or never
  skipped: an arc from the test's lines into any line of the body's span
  enters it, an arc to any other line or out of the frame skips it.

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
EXIT = 0  # arc target for leaving the frame


def _tracer(arcs):
    """A global trace function recording arcs[resolved path] per traced frame."""
    ours = {}  # co_filename -> resolved path under PACKAGE, or None

    def global_trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in ours:
            path = Path(filename).resolve()
            ours[filename] = path if path.is_relative_to(PACKAGE) else None
        if ours[filename] is None:
            return None
        seen = arcs[ours[filename]]
        last = None

        def local_trace(frame, event, arg):
            nonlocal last
            if event == "line":
                seen.add((EXIT if last is None else last, frame.f_lineno))
                last = frame.f_lineno
            elif event == "return" and last is not None:
                seen.add((last, EXIT))
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
    trace = _tracer(arcs)
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
