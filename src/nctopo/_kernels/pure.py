"""Integer Smith normal form in pure Python, and the sparse row type.

Python integers make the reduction exact no matter how big the
intermediate entries grow.

The Smith reduction runs in two stages.  A sparse stage eliminates unit
pivots (entries of absolute value 1), cheapest Markowitz cost first; each
contributes one invariant factor 1 and removes its row and column.  The
rows left over hold no unit entry, and a dense stage, the classic
minimal-pivot reduction, takes that residual block.  Boundary matrices of
collapsed cores are very sparse and nearly all of their pivots are units,
so the dense stage usually sees an empty or tiny block.  See Dumas,
Saunders and Villard, "On efficient sparse integer matrix Smith normal
form computations", J. Symb. Comput. 32 (2001).

``snf_diagonal`` takes a sequence of equal-length integer rows.  Rows of
type ``SparseRow``, which ``homology.chain_complex`` builds, hand their
``{column: value}`` entries straight to the sparse stage; any other row is
read densely and its nonzeros are picked out with ``itertools.compress``.
This kernel handles every matrix it is given, signed-graph incidence
matrices included; the union-find shortcut for those sits in the entry
``nctopo._kernels.snf_diagonal``, which calls this kernel for every other
matrix.
"""

from __future__ import annotations

from collections.abc import Sequence
from heapq import heapify, heappop, heappush
from itertools import compress


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


def snf_diagonal(mat):
    """Invariant factors d1 | d2 | ... | dr of an integer matrix.

    Returns the full positive diagonal of the Smith normal form as a list,
    ones included, so the rank is its length.  ``mat`` is a sequence of
    equal length rows, ``SparseRow`` or dense; a ragged matrix raises
    ValueError.
    """
    rows = []
    nc = None
    for r in mat:
        if nc is None:
            nc = len(r)
        elif len(r) != nc:
            raise ValueError("ragged matrix")
        if isinstance(r, SparseRow):
            rows.append(dict(r.entries))
        else:
            rows.append(dict(zip(compress(range(nc), r), filter(None, r))))
    cols = [set() for _ in range(nc or 0)]
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
    """Smith diagonal of a dense integer matrix, the residual stage.

    Pivoting picks a nonzero entry of minimal absolute value, which keeps
    the intermediate entries small in practice.
    """
    A = [list(row) for row in mat]
    nr = len(A)
    nc = len(A[0]) if nr else 0
    for row in A:
        if len(row) != nc:
            raise ValueError("ragged matrix")
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
