"""Exact linear-algebra kernels with an optional compiled fast path.

``gf2_rank`` and ``snf_diagonal`` dispatch to the Cython extension when it
was built, and otherwise to the pure-Python twins.  Setting the NCTOPO_PURE
environment variable forces the pure path.

``snf_diagonal`` takes a sequence of equal-length integer rows: dense
lists, or the ``SparseRow`` rows that ``homology.chain_complex`` builds.
Before any backend runs, the entry recognizes a matrix of sparse rows
with entries +1 and -1 only, in which every row, or every column, holds
exactly two of them.  That is the incidence matrix of a signed graph
(Zaslavsky, "Signed graphs", Discrete Appl. Math. 4, 1982): the other
index is its nodes.  A connected component is balanced when some choice
of node signs makes every edge a difference of two nodes, as in an
ordinary graph incidence matrix, which is totally unimodular (Schrijver,
*Theory of Linear and Integer Programming*, 1986, ch. 19).  An
unbalanced component has full rank, and each of its nonzero maximal
minors is +-2**c with c >= 1 (a spanning tree plus one edge closing an
unbalanced cycle gives +-2), while its smaller tree minors are +-1.  So
the rank is nodes minus components plus unbalanced components, and the
invariant factors are all 1, then one 2 per unbalanced component;
parity union-find finds both.  Every edge boundary is such a matrix, and so is
the top boundary of a closed pseudomanifold, where each ridge lies in
two facets: the dual graph of a non-orientable surface is unbalanced.
Any other matrix goes to a backend unchanged.

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
from math import prod

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
    factors = _signed_graph_factors(mat)
    if factors is not None:
        return factors
    if _fast is not None:
        try:
            return _fast.snf_diagonal([r.to_list() if isinstance(r, SparseRow) else r for r in mat])
        except OverflowError:
            pass
    return pure.snf_diagonal(mat)


def _signed_graph_factors(rows):
    """Invariant factors of a signed-graph incidence matrix of sparse rows, else None.

    The matrix qualifies when all its rows are ``SparseRow``, all its
    entries are +1 or -1, and every row, or else every column, holds
    exactly two of them.  Each such row (column) is an edge between the
    two columns (rows) it touches, which are the nodes.  An edge whose two
    entries have equal signs, a product of +1, is negative; a component is
    balanced when no cycle in it has an odd number of negative edges.
    Parity union-find merges nodes and finds the unbalanced components;
    the factors are one 1 per merge and one 2 per unbalanced component.
    Rows of unequal width raise ValueError.
    """
    if not rows or not isinstance(rows[0], SparseRow):
        return None
    ncols = rows[0].ncols
    for row in rows:
        if not isinstance(row, SparseRow):
            return None
        if row.ncols != ncols:
            raise ValueError("ragged matrix")
    if all(len(row.entries) == 2 for row in rows):
        nodes = ncols
        heads, tails = zip(*[row.entries for row in rows])
        signs = [prod(row.entries.values()) for row in rows]
    else:
        nodes = len(rows)
        heads = [-1] * ncols
        tails = [-1] * ncols
        signs = [0] * ncols
        for i, row in enumerate(rows):
            for j, v in row.entries.items():
                if heads[j] < 0:
                    heads[j] = i
                    signs[j] = v
                elif tails[j] < 0:
                    tails[j] = i
                    signs[j] *= v
                else:
                    return None
        if -1 in tails:
            return None
    # A product of two integers is +-1 exactly when both are.
    if not {1, -1}.issuperset(signs):
        return None

    # parity[x] is the sign flip from x to parent[x]; a root's is 0.
    parent = list(range(nodes))
    parity = [0] * nodes
    odd = [False] * nodes
    merges = unbalanced = 0
    for a, b, sign in zip(heads, tails, signs):
        # Find both roots, halving the paths on the way; flip gathers the
        # parity the edge demands between the two roots.
        flip = sign == 1
        while parent[a] != a:
            up = parent[a]
            parity[a] ^= parity[up]
            parent[a] = parent[up]
            flip ^= parity[a]
            a = parent[a]
        while parent[b] != b:
            up = parent[b]
            parity[b] ^= parity[up]
            parent[b] = parent[up]
            flip ^= parity[b]
            b = parent[b]
        if a != b:
            parent[a] = b
            parity[a] = flip
            if odd[a]:
                if odd[b]:
                    unbalanced -= 1
                odd[b] = True
            merges += 1
        elif flip and not odd[a]:
            odd[a] = True
            unbalanced += 1
    return [1] * merges + [2] * unbalanced
