"""Exact linear-algebra kernels: integer Smith normal form and GF(2) rank.

Both kernels run in pure Python, whose integers keep every Smith
reduction exact however large its intermediate entries grow.
``BACKEND`` is the constant ``"pure"``; it names the kernel set in
benchmark and trace metadata.

``snf_diagonal`` takes the ``SparseRow`` rows that
``homology.chain_complex`` builds.  The entry checks once that all rows
have one width, then recognizes a matrix with entries +1 and -1 only, in
which every row, or every column, holds exactly two of them.  That is the
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

Any other matrix takes the general reduction, one sparse elimination.
It takes unit pivots (entries of absolute value 1), cheapest Markowitz
cost first, and an entry of least absolute value when no unit is left.
Boundary matrices of collapsed cores reduce by unit pivots alone.  See
Dumas, Saunders and Villard, "On efficient sparse integer matrix Smith
normal form computations", J. Symb. Comput. 32 (2001).

The GF(2) route shares none of this: ``gf2_rank`` eliminates bitmasks on
its own, so the Smith and GF(2) ranks stay independent cross-checks.
"""

from __future__ import annotations

from collections.abc import Sequence
from heapq import heapify, heappop, heappush
from math import gcd, prod

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
