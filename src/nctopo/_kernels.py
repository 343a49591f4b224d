"""Exact linear-algebra kernels: integer Smith normal form and GF(2) rank.

Both kernels run in pure Python, whose integers keep every Smith
reduction exact however large its intermediate entries grow.
``BACKEND`` is the constant ``"pure"``; it names the kernel set in
benchmark and trace metadata.

``snf_diagonal`` takes the ``SparseRow`` rows that
``homology.chain_complex`` builds; ``homology.smith_normal_form`` converts
any other rows first.  The entry checks once that all rows have one
width, then recognizes a matrix with entries +1 and -1 only, in which
every row, or every column, holds exactly two of them.  That is the
incidence matrix of a signed graph (Zaslavsky, "Signed graphs", Discrete
Appl. Math. 4, 1982): the other index is its nodes.  A connected
component is balanced when some choice of node signs makes every edge a
difference of two nodes, as in an ordinary graph incidence matrix, which
is totally unimodular (Schrijver, *Theory of Linear and Integer
Programming*, 1986, ch. 19).  An unbalanced component has full rank, and
each of its nonzero maximal minors is +-2**c with c >= 1 (a spanning tree
plus one edge closing an unbalanced cycle gives +-2), while its smaller
tree minors are +-1.  So the rank is nodes minus components plus
unbalanced components, and the invariant factors are all 1, then one 2
per unbalanced component; parity union-find finds both.  Every edge
boundary is such a matrix, and so is the top boundary of a closed
pseudomanifold, where each ridge lies in two facets: the dual graph of a
non-orientable surface is unbalanced.

Any other matrix takes the general reduction, in two stages.  A sparse
stage eliminates unit pivots (entries of absolute value 1), cheapest
Markowitz cost first; each contributes one invariant factor 1 and removes
its row and column.  The rows left over hold no unit entry, and a dense
stage, the classic minimal-pivot reduction, takes that residual block.
Boundary matrices of collapsed cores are very sparse and nearly all of
their pivots are units, so the dense stage usually sees an empty or tiny
block.  See Dumas, Saunders and Villard, "On efficient sparse integer
matrix Smith normal form computations", J. Symb. Comput. 32 (2001).

The GF(2) route shares none of this: ``gf2_rank`` eliminates bitmasks on
its own, so the Smith and GF(2) ranks stay independent cross-checks.
"""

from __future__ import annotations

from collections.abc import Sequence
from heapq import heapify, heappop, heappush
from math import prod

BACKEND = "pure"


class SparseRow(Sequence):
    """Read-only integer row of length ``ncols`` stored as ``{column: value}``.

    It behaves as the dense list it stands for: ``len``, indexing,
    iteration and ``count`` see the zeros, and it compares equal to that
    list.  ``entries`` holds the nonzeros only and must not be mutated.
    """

    __slots__ = ("ncols", "entries")

    def __init__(self, ncols, entries):
        self.ncols = ncols
        self.entries = entries

    def __len__(self):
        return self.ncols

    def __getitem__(self, j):
        if j < 0:
            j += self.ncols
        if not 0 <= j < self.ncols:
            raise IndexError("row index out of range")
        return self.entries.get(j, 0)

    def __iter__(self):
        # Filling a zero list costs per nonzero, not a lookup per cell.
        dense = [0] * self.ncols
        for j, v in self.entries.items():
            dense[j] = v
        return iter(dense)

    def count(self, value):
        if value == 0:
            return self.ncols - len(self.entries)
        return sum(1 for v in self.entries.values() if v == value)

    def __eq__(self, other):
        if isinstance(other, SparseRow):
            return self.ncols == other.ncols and self.entries == other.entries
        if isinstance(other, list):
            return len(other) == self.ncols and list(self) == other
        return NotImplemented

    def __repr__(self):
        return f"SparseRow({list(self)!r})"


def gf2_rank(rows):
    """Rank over GF(2) of the matrix whose rows are the given bitmasks.

    Each row is a nonnegative int; bit j set means entry 1 in column j.
    The rows are eliminated in descending order of top bit, rows with the
    same top bit in the order given.  That keeps the chains of reductions
    short on boundary matrices: the edge boundary of the torus core at
    n = 320 takes 1903 reduction steps, against 25159 in the order the
    edges come in.
    """
    pivots = {}
    rank = 0
    for row in sorted(rows, key=int.bit_length, reverse=True):
        while row:
            b = row.bit_length() - 1
            p = pivots.get(b)
            if p is None:
                pivots[b] = row
                rank += 1
                break
            row ^= p
    return rank


def snf_diagonal(rows):
    """Invariant factors d1 | d2 | ... | dr of an integer matrix.

    ``rows`` is a sequence of ``SparseRow``.  Returns the full positive
    diagonal of the Smith normal form as a list, ones included, so the
    rank is its length.  Rows of unequal width raise ValueError.
    """
    if not rows:
        return []
    if len({row.ncols for row in rows}) > 1:
        raise ValueError("ragged matrix")
    factors = _signed_graph_factors(rows)
    if factors is None:
        factors = _general_snf(rows)
    return factors


def _signed_graph_factors(rows):
    """Invariant factors of a signed-graph incidence matrix, else None.

    ``rows`` is a nonempty sequence of ``SparseRow`` of one width.  The
    matrix qualifies when all its entries are +1 or -1, and every row, or
    else every column, holds exactly two of them.  Each such row (column)
    is an edge between the two columns (rows) it touches, which are the
    nodes.  An edge whose two entries have equal signs, a product of +1,
    is negative; a component is balanced when no cycle in it has an odd
    number of negative edges.  Parity union-find merges nodes and finds
    the unbalanced components; the factors are one 1 per merge and one 2
    per unbalanced component.
    """
    ncols = rows[0].ncols
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


def _general_snf(rows):
    """Smith diagonal of any nonempty sequence of ``SparseRow`` of one width.

    The sparse stage eliminates unit pivots on a copy of the entries;
    ``_dense_snf`` reduces the block without unit entries that is left.
    """
    cols = [set() for _ in range(rows[0].ncols)]
    rows = [dict(row.entries) for row in rows]
    heap = []
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    for i, row in enumerate(rows):
        for j, v in row.items():
            if v == 1 or v == -1:
                heap.append(((len(row) - 1) * (len(cols[j]) - 1), i, j))
    heapify(heap)

    units = 0
    while heap:
        cost, i, j = heappop(heap)
        row = rows[i]
        p = row.get(j)
        if p != 1 and p != -1:
            continue
        col = cols[j]
        now = (len(row) - 1) * (len(col) - 1)
        if now > cost:
            # Fill-in made this pivot dearer since it was queued.
            heappush(heap, (now, i, j))
            continue
        # Clear column j with row operations.  Row i then meets no other
        # row in column j, so column operations clear the rest of row i
        # without touching the remaining block: drop row i and column j.
        for k in [k for k in col if k != i]:
            other = rows[k]
            f = other[j] * p
            for c, v in row.items():
                w = other.get(c, 0) - f * v
                if w:
                    if c not in other:
                        cols[c].add(k)
                    other[c] = w
                    if w == 1 or w == -1:
                        heappush(heap, ((len(other) - 1) * (len(cols[c]) - 1), k, c))
                else:
                    del other[c]
                    cols[c].discard(k)
        for c in row:
            cols[c].discard(i)
        row.clear()
        units += 1

    left = [row for row in rows if row]
    keep = sorted({c for row in left for c in row})
    return [1] * units + _dense_snf([[row.get(c, 0) for c in keep] for row in left])


def _dense_snf(mat):
    """Smith diagonal of a rectangular dense integer matrix.

    Pivoting picks a nonzero entry of minimal absolute value, which keeps
    the intermediate entries small in practice.
    """
    A = [list(row) for row in mat]
    nr = len(A)
    nc = len(A[0]) if nr else 0
    out = []
    t = 0
    while True:
        # Find a pivot of minimal |value| in the trailing block.
        bi = bj = -1
        bv = 0
        for i in range(t, nr):
            Ai = A[i]
            for j in range(t, nc):
                v = Ai[j]
                if v and (bv == 0 or abs(v) < bv):
                    bv = abs(v)
                    bi, bj = i, j
                    if bv == 1:
                        break
            if bv == 1:
                break
        if bi < 0:
            break
        if bi != t:
            A[t], A[bi] = A[bi], A[t]
        if bj != t:
            for row in A:
                row[t], row[bj] = row[bj], row[t]
        if A[t][t] < 0:
            A[t] = [-v for v in A[t]]

        p = A[t][t]
        dirty = False
        for i in range(t + 1, nr):
            v = A[i][t]
            if v:
                q = v // p
                if q:
                    Ai = A[i]
                    At = A[t]
                    for j in range(t, nc):
                        Ai[j] -= q * At[j]
                if A[i][t]:
                    dirty = True
        for j in range(t + 1, nc):
            v = A[t][j]
            if v:
                q = v // p
                if q:
                    for row in A:
                        row[j] -= q * row[t]
                if A[t][j]:
                    dirty = True
        if dirty:
            # Residues smaller than |p| remain; repeat with a better pivot.
            continue

        # Row and column are clear.  Enforce divisibility of the rest.
        offender = None
        for i in range(t + 1, nr):
            Ai = A[i]
            for j in range(t + 1, nc):
                if Ai[j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            At = A[t]
            Ao = A[offender]
            for j in range(t, nc):
                At[j] += Ao[j]
            continue
        out.append(p)
        t += 1
    return out
