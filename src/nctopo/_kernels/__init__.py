"""Exact linear-algebra kernels with an optional compiled fast path.

``gf2_rank`` and ``snf_diagonal`` dispatch to the Cython extension when it
was built, and otherwise to the pure-Python twins.  Setting the NCTOPO_PURE
environment variable forces the pure path.

``snf_diagonal`` takes a sequence of equal-length integer rows: dense
lists, or the ``SparseRow`` rows that ``homology.chain_complex`` builds.
Before any backend runs, the entry recognizes a matrix of sparse rows in
which every column holds exactly one +1 and one -1.  That is the
incidence matrix of a multigraph, so it is totally unimodular (Schrijver,
*Theory of Linear and Integer Programming*, 1986, ch. 19): every invariant
factor is 1, and the rank is rows minus connected components, found by
union-find.  Any other matrix goes to a backend unchanged.

The compiled Smith kernel is a dense reduction in guarded 64-bit integers,
so the entry densifies sparse rows before calling it; if an entry outgrows
the guard it raises OverflowError and the entry silently reruns the pure
kernel, which is exact at any size.  The pure Smith kernel reads sparse
rows directly and works in two stages: a sparse elimination of unit
pivots, cheapest Markowitz cost first, then the dense reduction on the
block without unit entries that is left over.

The GF(2) route shares none of this: ``gf2_rank`` eliminates bitmasks on
its own, so the Smith and GF(2) ranks stay independent cross-checks.
"""

from __future__ import annotations

import os

from . import pure
from .pure import SparseRow

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
    rank = _incidence_rank(mat)
    if rank is not None:
        return [1] * rank
    if _fast is not None:
        try:
            return _fast.snf_diagonal([r.to_list() if isinstance(r, SparseRow) else r for r in mat])
        except OverflowError:
            pass
    return pure.snf_diagonal(mat)


def _incidence_rank(rows):
    """Rank of a multigraph incidence matrix of sparse rows, else None.

    The matrix qualifies when all its rows are ``SparseRow`` and every
    column holds exactly one +1 and one -1 and nothing else.  Its rank is
    then the number of union-find merges over the rows, that is rows minus
    connected components.  Rows of unequal width raise ValueError.
    """
    if not rows or not isinstance(rows[0], SparseRow):
        return None
    ncols = rows[0].ncols
    head = [-1] * ncols
    tail = [-1] * ncols
    for i, row in enumerate(rows):
        if not isinstance(row, SparseRow):
            return None
        if row.ncols != ncols:
            raise ValueError("ragged matrix")
        for j, v in row.entries.items():
            if v == 1:
                if head[j] >= 0:
                    return None
                head[j] = i
            elif v == -1:
                if tail[j] >= 0:
                    return None
                tail[j] = i
            else:
                return None
    if -1 in head or -1 in tail:
        return None

    parent = list(range(len(rows)))
    rank = 0
    for a, b in zip(head, tail):
        # Find both roots, halving the paths on the way.
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b
            rank += 1
    return rank
