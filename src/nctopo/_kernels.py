"""Exact linear-algebra kernels: integer Smith normal form and GF(2) rank.

Both kernels run in pure Python, whose integers keep every Smith
reduction exact however large its intermediate entries grow.
``BACKEND`` is the constant ``"pure"``; it names the kernel set in
benchmark and trace metadata.

``snf_diagonal`` reads some of the ``Boundary`` matrices that
``homology.chain_complex`` builds straight off their face positions, as
the incidence matrix of a signed graph (Zaslavsky, "Signed graphs",
Discrete Appl. Math. 4, 1982): entries +1 and -1 only, two in every
column (the rows are its nodes) or in every row.  A connected component
is balanced when some choice of node signs makes every edge a difference
of two nodes, as in an ordinary graph incidence matrix, which is totally
unimodular (Schrijver, *Theory of Linear and Integer Programming*, 1986,
ch. 19).  An unbalanced component has full rank, and each of its nonzero
maximal minors is +-2**c with c >= 1 (a spanning tree plus one edge
closing an unbalanced cycle gives +-2), while its smaller tree minors
are +-1.  So the rank is nodes minus components plus unbalanced
components, and the invariant factors are all 1, then one 2 per
unbalanced component; parity union-find finds both.  Every edge boundary
is such a matrix, and so is the top boundary of a closed pseudomanifold,
where each ridge lies in two facets: the dual graph of a non-orientable
surface is unbalanced.  The second kind is recognised in one pass over
the face positions, which stops at the first row with a third entry.

Any other boundary takes the general reduction, one sparse elimination
over its ``SparseRow`` rows.  It takes unit pivots (entries of absolute
value 1), cheapest Markowitz cost first, and an entry of least absolute
value when no unit is left.  Boundary matrices of collapsed cores reduce
by unit pivots alone.  See Dumas, Saunders and Villard, "On efficient
sparse integer matrix Smith normal form computations", J. Symb. Comput.
32 (2001).

The GF(2) route shares none of this: ``gf2_rank`` eliminates bitmasks on
its own, so the Smith and GF(2) ranks stay independent cross-checks.
``homology`` clears the GF(2) columns that the next boundary makes
redundant before handing them over, which takes the edge boundary of the
torus core at n = 320 from 1903 XOR steps of ``gf2_rank`` to 333; the
Smith route is not cleared.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import repeat
from math import gcd

BACKEND = "pure"


class SparseRow:
    """Read-only integer row of length ``ncols`` stored as ``{column: value}``.

    ``entries`` holds the nonzeros only and must not be mutated.  ``len``
    and ``count`` see the zeros, as the dense row's would; the benchmark
    tracer's Smith hook reads the matrix through them.
    """

    __slots__ = ("ncols", "entries")

    def __init__(self, ncols, entries):
        self.ncols = ncols
        self.entries = entries

    def __len__(self):
        return self.ncols

    def count(self, value):
        if value == 0:
            return self.ncols - len(self.entries)
        return sum(1 for v in self.entries.values() if v == value)

    def __repr__(self):
        return f"SparseRow({self.ncols}, {self.entries!r})"


class Boundary:
    """Matrix of ``nrows`` by ``ncols`` whose column j holds (-1)**i at row
    ``positions[i][j]`` and no other entry.  It reads as its ``SparseRow``
    rows (``len`` and indexing, so iteration too), built on first read."""

    __slots__ = ("nrows", "ncols", "positions", "_rows")

    def __init__(self, nrows, ncols, positions):
        self.nrows = nrows
        self.ncols = ncols
        self.positions = positions
        self._rows = None

    def __len__(self):
        return self.nrows

    def __getitem__(self, i):
        if self._rows is None:
            rows = [{} for _ in range(self.nrows)]
            for k, faces in enumerate(self.positions):
                sign = -1 if k % 2 else 1
                for col, row in enumerate(faces):
                    rows[row][col] = sign
            self._rows = list(map(SparseRow, repeat(self.ncols), rows))
        return self._rows[i]


def gf2_rank(rows):
    """Rank over GF(2) of the matrix whose rows are the given bitmasks.

    Each row is a nonnegative int; bit j set means entry 1 in column j.
    The rows are eliminated in descending order of top bit, rows with the
    same top bit in the order given.  That keeps the chains of reductions
    short on boundary matrices: the full edge boundary of the torus core
    at n = 320 takes 1903 reduction steps, against 25159 in the order the
    edges come in, and the 331 masks left after ``homology`` clears it
    take 333.
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


def snf_diagonal(mat):
    """Invariant factors d1 | d2 | ... | dr of the ``Boundary`` mat.

    Returns the full positive diagonal of the Smith normal form, ones
    included, so the rank is its length: read off the signed graph when
    mat is one's incidence matrix, else by the general reduction.
    """
    factors = _incidence_factors(mat)
    return _general_snf(mat) if factors is None else factors


def _incidence_factors(b):
    """Invariant factors of a signed-graph incidence ``Boundary``, else None.

    An edge boundary's columns are edges, never negative, between its rows.
    Any other boundary qualifies when every row holds two entries: an edge
    between their columns, negative when their signs agree.  One pass over
    the positions records each row's first column (its head), its second
    (its tail) and whether the two signs agree; it gives up at a third
    entry in a row, and when some row is left with fewer than two.
    """
    if len(b.positions) == 2:
        return _parity_union_find(b.nrows, *b.positions, repeat(False))
    heads = [-1] * b.nrows
    tails = [-1] * b.nrows
    negative = [False] * b.nrows
    for i, faces in enumerate(b.positions):
        odd = i % 2 == 1  # the entries here are (-1)**i
        for col, row in enumerate(faces):
            if heads[row] < 0:
                heads[row] = col
                negative[row] = odd
            elif tails[row] < 0:
                tails[row] = col
                negative[row] = negative[row] == odd
            else:
                return None
    if -1 in tails:
        return None
    return _parity_union_find(b.ncols, heads, tails, negative)


def _parity_union_find(nodes, heads, tails, negative):
    """Invariant factors of the incidence matrix of the signed graph on
    nodes 0 .. nodes - 1 whose edge e joins heads[e] and tails[e], negative
    when negative[e] is true.  A component is unbalanced when some cycle in
    it has an odd number of negative edges.  The factors are one 1 per
    union-find merge and one 2 per unbalanced component.
    """
    # parity[x] is the sign flip from x to parent[x]; a root's is 0.
    parent = list(range(nodes))
    parity = [0] * nodes
    odd = [False] * nodes
    merges = unbalanced = 0
    for a, b, flip in zip(heads, tails, negative):
        # Find both roots, halving the paths on the way; flip gathers the
        # parity the edge demands between the two roots.
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
    """Smith diagonal of a nonempty sequence of ``SparseRow`` of one width.

    One sparse elimination on a copy of the entries.  Unit pivots come from
    a heap, cheapest Markowitz cost first; every unit that fill-in or a
    remainder creates is pushed on it.  When it runs dry, the pivot p is an
    entry of least absolute value, ties broken by (row, column).  Row
    operations replace every other entry of the pivot column by its
    remainder modulo p; once the column holds only p, column operations do
    the same to the pivot row, touching no other row.  If the row is then
    clear too, |p| is a diagonal entry and its row and column are dropped.
    Otherwise a remainder smaller than |p| is left, so the least absolute
    value in the matrix strictly falls before the next drop, and the loop
    ends.  A last pass replaces pairs of diagonal entries above 1 by their
    gcd and lcm, so that each divides the next; the ones go first.
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

    diagonal = []
    while True:
        if heap:
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
        elif any(rows):
            _, i, j = min((abs(v), i, j) for i, row in enumerate(rows) for j, v in row.items())
            row = rows[i]
            p = row[j]
            col = cols[j]
        else:
            break
        # Column step: row i meets no other row in column j afterwards,
        # unless a remainder is left.
        for k in [k for k in col if k != i]:
            other = rows[k]
            q = other[j] // p
            for c, v in row.items():
                w = other.get(c, 0) - q * v
                if w:
                    if c not in other:
                        cols[c].add(k)
                    other[c] = w
                    if w == 1 or w == -1:
                        heappush(heap, ((len(other) - 1) * (len(cols[c]) - 1), k, c))
                else:
                    del other[c]
                    cols[c].discard(k)
        if len(col) > 1:
            continue
        # Row step: column j holds p alone, so column operations change
        # row i only.  A unit divides every entry, which leaves none.
        if p != 1 and p != -1:
            for c in [c for c in row if c != j]:
                w = row[c] % p
                if w:
                    row[c] = w
                    if w == 1 or w == -1:
                        heappush(heap, ((len(row) - 1) * (len(cols[c]) - 1), i, c))
                else:
                    del row[c]
                    cols[c].discard(i)
            if len(row) > 1:
                continue
        for c in row:
            cols[c].discard(i)
        row.clear()
        diagonal.append(abs(p))

    big = [d for d in diagonal if d > 1]
    for a in range(len(big)):
        for b in range(a + 1, len(big)):
            g = gcd(big[a], big[b])
            big[a], big[b] = g, big[a] * big[b] // g
    return [1] * (len(diagonal) - len(big)) + big
