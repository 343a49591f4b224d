"""Time the Smith normal form kernels on the matrices the pipeline passes them.

The inputs are the boundary matrices of collapsed cores, recorded by
wrapping ``nctopo._kernels.snf_diagonal`` while ``verify`` runs: the torus
case I4C at n = 80, 160 and 320, and every admissible instance of the
n = 5..25 sweep.  Full neighborhood complexes never reach the kernel, so
they are not timed.  For each workload the script prints the time of one
pass over its matrices, best of three, for the pure two-stage kernel, for
its dense stage alone, and for the compiled kernel when it was built.

    PYTHONPATH=src python3 benchmarks/bench_kernels.py
"""

from __future__ import annotations

import time

from nctopo import _kernels, verify
from nctopo._kernels import pure
from nctopo.cli import admissible_triples

try:
    from nctopo._kernels import _fast
except ImportError:
    _fast = None


def _best_of(fn, mats, repeats=3):
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        for mat in mats:
            fn(mat)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def _core_matrices(triples):
    """Every matrix ``verify`` hands to the Smith kernel on these instances."""
    mats = []
    dispatch = _kernels.snf_diagonal

    def record(mat):
        mats.append(mat)
        return dispatch(mat)

    _kernels.snf_diagonal = record
    try:
        for n, s, t in triples:
            verify(n, s, t)
    finally:
        _kernels.snf_diagonal = dispatch
    return mats


def main():
    workloads = [(f"torus n={n}", _core_matrices([(n, 1, 4)])) for n in (80, 160, 320)]
    workloads.append(("sweep n=5..25", _core_matrices(admissible_triples(5, 25))))

    print(f"{'workload':16s} {'matrices':>8s} {'largest':>9s} "
          f"{'pure':>9s} {'dense':>9s} {'compiled':>9s}")
    for name, mats in workloads:
        expected = [pure._dense_snf(mat) for mat in mats]
        assert [pure.snf_diagonal(mat) for mat in mats] == expected, name
        big = max(mats, key=lambda m: len(m) * len(m[0]))
        cells = [
            f"{_best_of(pure.snf_diagonal, mats):8.3f}s",
            f"{_best_of(pure._dense_snf, mats):8.3f}s",
        ]
        if _fast is None:
            cells.append(f"{'not built':>9s}")
        else:
            try:
                assert [_fast.snf_diagonal(mat) for mat in mats] == expected, name
                cells.append(f"{_best_of(_fast.snf_diagonal, mats):8.3f}s")
            except OverflowError:
                # The dispatch wrapper would rerun the pure kernel here.
                cells.append(f"{'guarded':>9s}")
        print(f"{name:16s} {len(mats):8d} {len(big):>4d}x{len(big[0]):<4d} " + " ".join(cells))


if __name__ == "__main__":
    main()
