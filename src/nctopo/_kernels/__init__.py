"""Exact linear-algebra kernels with an optional compiled fast path.

``gf2_rank`` and ``snf_diagonal`` dispatch to the Cython extension when it
was built, and otherwise to the pure-Python twins.  Setting the NCTOPO_PURE
environment variable forces the pure path.  The compiled Smith kernel is a
dense reduction in guarded 64-bit integers; if an entry outgrows the guard
it raises OverflowError and the wrapper silently reruns the pure kernel,
which is exact at any size.  The pure Smith kernel works in two stages: a
sparse elimination of unit pivots, cheapest Markowitz cost first, then the
dense reduction on the block without unit entries that is left over.
"""

from __future__ import annotations

import os

from . import pure

if os.environ.get("NCTOPO_PURE"):
    _fast = None
else:
    try:
        from . import _fast
    except ImportError:
        _fast = None

BACKEND = "compiled" if _fast is not None else "pure"


def gf2_rank(rows, nbits=None):
    """Rank over GF(2) of the matrix whose rows are int bitmasks."""
    rows = list(rows)
    if _fast is not None:
        if nbits is None:
            nbits = max((r.bit_length() for r in rows), default=0)
        return _fast.gf2_rank(rows, nbits)
    return pure.gf2_rank(rows)


def snf_diagonal(mat):
    """Invariant factors d1 | d2 | ... of an integer matrix, ones included."""
    if _fast is not None:
        try:
            return _fast.snf_diagonal(mat)
        except OverflowError:
            pass
    return pure.snf_diagonal(mat)
