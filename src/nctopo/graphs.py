"""Finite simple graphs, circulant constructions, and fold reduction.

Vertices are always 0..num_vertices-1.  A fold deletes a vertex whose
neighborhood is contained in the neighborhood of another vertex; this
never changes the homotopy type of the neighborhood complex, so
``fold_reduce`` is the cheap first pass before any simplicial work.
"""

from __future__ import annotations

import math
from itertools import combinations


class Graph:
    """Immutable undirected simple graph on vertices 0..num_vertices-1."""

    __slots__ = ("_adj",)

    def __init__(self, num_vertices, edges=()):
        if num_vertices < 0:
            raise ValueError("negative vertex count")
        nbrs = [set() for _ in range(num_vertices)]
        for u, v in edges:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValueError(f"edge ({u}, {v}) out of range for {num_vertices} vertices")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            nbrs[u].add(v)
            nbrs[v].add(u)
        self._adj = tuple(tuple(sorted(ns)) for ns in nbrs)

    @property
    def num_vertices(self):
        return len(self._adj)

    def vertices(self):
        return range(len(self._adj))

    def neighborhood(self, v):
        """Open neighborhood N(v) as a sorted tuple."""
        return self._adj[v]

    def degree(self, v):
        return len(self._adj[v])

    def max_degree(self):
        return max((len(ns) for ns in self._adj), default=0)

    def edges(self):
        """Sorted list of edges as (u, v) with u < v."""
        return [(u, v) for u in self.vertices() for v in self._adj[u] if u < v]

    def num_edges(self):
        return sum(len(ns) for ns in self._adj) // 2

    def has_edge(self, u, v):
        return v in self._adj[u]

    def __eq__(self, other):
        return isinstance(other, Graph) and self._adj == other._adj

    def __hash__(self):
        return hash(self._adj)

    def __repr__(self):
        return f"Graph({self.num_vertices}, {self.edges()!r})"


def circulant(n, generators):
    """Circulant graph on Z_n: i ~ j iff (i - j) mod n lies in S or -S.

    Generators must lie in 1..n-1; the set is closed under negation
    automatically, so circulant(7, {2}) == circulant(7, {5}).
    """
    if n < 2:
        raise ValueError("circulant graph needs at least 2 vertices")
    gens = set()
    for a in generators:
        a = int(a)
        if not 1 <= a <= n - 1:
            raise ValueError(f"generator {a} out of range for n={n}")
        gens.add(a)
        gens.add(n - a)
    edges = []
    for i in range(n):
        for a in gens:
            j = (i + a) % n
            if i < j:
                edges.append((i, j))
    return Graph(n, edges)


def normalize_circulant_pair(n, s, t):
    """Canonical form of a two-generator circulant parameter pair.

    Uses the symmetries C_n(s, t) = C_n(n-s, t) = C_n(s, n-t) to bring both
    generators into 1..floor(n/2), then orders them.  Raises ValueError when
    the parameters degenerate (generator 0 mod n, or equal generators after
    reduction, which would not give a 4-regular-style two-orbit graph).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    s %= n
    t %= n
    if s == 0 or t == 0:
        raise ValueError("generators must be nonzero mod n")
    s = min(s, n - s)
    t = min(t, n - t)
    if s == t:
        raise ValueError(f"generators coincide mod the dihedral symmetry: s = t = {s}")
    if s > t:
        s, t = t, s
    return s, t


def connected_components(g):
    """Vertex sets of the connected components, each sorted, ordered by minimum."""
    seen = [False] * g.num_vertices
    comps = []
    for root in g.vertices():
        if seen[root]:
            continue
        seen[root] = True
        comp = [root]
        stack = [root]
        while stack:
            u = stack.pop()
            for w in g.neighborhood(u):
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def is_connected(g):
    return g.num_vertices <= 1 or len(connected_components(g)) == 1


def _next_fold(adj, start):
    """Smallest fold pair (u, v) with u >= start, or None.

    adj[x] is the neighbor set of x, or None once x is deleted.  Every v
    with a nonempty N(u) contained in N(v) is adjacent to each vertex of
    N(u), so only the neighbors of one of them are tested.
    """
    for u in range(start, len(adj)):
        nu = adj[u]
        if nu is None:
            continue
        if nu:
            w = next(iter(nu))
            v = min((v for v in adj[w] if v != u and adj[v] >= nu), default=None)
        else:
            v = next((v for v, nv in enumerate(adj) if v != u and nv is not None), None)
        if v is not None:
            return (u, v)
    return None


def find_fold(g):
    """Smallest pair (u, v), u != v, with N(u) contained in N(v), or None.

    Pairs are compared lexicographically, so the result is deterministic.
    When N(u) == N(v) the smaller vertex is the one reported for deletion.
    An isolated u folds onto the smallest other vertex.
    """
    return _next_fold([set(ns) for ns in g._adj], 0)


def induced_subgraph(g, vertices):
    """Induced subgraph on the given vertices, relabeled in sorted order."""
    keep = sorted(set(vertices))
    index = {v: i for i, v in enumerate(keep)}
    edges = [
        (index[u], index[v])
        for u, v in g.edges()
        if u in index and v in index
    ]
    return Graph(len(keep), edges)


def fold_reduce(g):
    """Apply folds until none remains; returns the reduced graph.

    The neighborhood complex of the result is homotopy equivalent to the
    neighborhood complex of the input.  Deterministic: each round deletes
    the u of the lexicographically smallest fold pair.  Vertices keep
    their labels until the end, so after deleting u the scan resumes at
    the smallest of u and its neighbors: only a neighbor of u can gain a
    fold, and no smaller vertex had one.
    """
    adj = [set(ns) for ns in g._adj]
    start = 0
    while (pair := _next_fold(adj, start)) is not None:
        u = pair[0]
        for w in adj[u]:
            adj[w].discard(u)
        start = min(adj[u] | {u})
        adj[u] = None
    return induced_subgraph(g, [v for v, nv in enumerate(adj) if nv is not None])


MAX_VERTEX_LABEL = 100_000


def read_edge_list(path):
    """Graph from a whitespace-separated edge list file.

    Lines give two vertex labels; '#' starts a comment; blank lines are
    skipped.  Labels must be integers in 0..MAX_VERTEX_LABEL; vertex count
    is one more than the largest label seen, so the bound caps what a
    file can make the graph allocate.
    """
    edges = []
    top = -1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected two vertex labels, got {raw!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-integer vertex label in {raw!r}") from exc
            if u < 0 or v < 0:
                raise ValueError(f"{path}:{lineno}: negative vertex label in {raw!r}")
            if max(u, v) > MAX_VERTEX_LABEL:
                raise ValueError(
                    f"{path}:{lineno}: vertex label above {MAX_VERTEX_LABEL} in {raw!r}"
                )
            if u == v:
                raise ValueError(f"{path}:{lineno}: self-loop at vertex {u}")
            edges.append((u, v))
            top = max(top, u, v)
    return Graph(top + 1, edges)


def complete_graph(m):
    return Graph(m, list(combinations(range(m), 2)))


def cycle_graph(m):
    if m < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(m, [(i, (i + 1) % m) for i in range(m)])


def k44_minus_matching():
    """The 3-regular bipartite graph K_{4,4} minus a perfect matching.

    Together with K_4 this is one of the two exceptional graphs for which
    the contractible-or-wedge-of-circles description of neighborhood
    complexes of connected graphs with maximum degree 3 fails.
    """
    side_a = (0, 1, 2, 3)
    side_b = (4, 5, 6, 7)
    edges = [
        (a, b)
        for i, a in enumerate(side_a)
        for j, b in enumerate(side_b)
        if i != j
    ]
    return Graph(8, edges)


def excluded_max_degree_3_graphs():
    """The two graphs excluded from the maximum-degree-3 description."""
    return (complete_graph(4), k44_minus_matching())


def is_isomorphic_small(g, h):
    """Backtracking isomorphism test for graphs with at most 12 vertices."""
    n = g.num_vertices
    if n != h.num_vertices:
        return False
    if n > 12:
        raise ValueError("is_isomorphic_small handles at most 12 vertices")
    if sorted(g.degree(v) for v in g.vertices()) != sorted(h.degree(v) for v in h.vertices()):
        return False
    if g.num_edges() != h.num_edges():
        return False

    # Assign high-degree vertices first to prune early.
    order = sorted(g.vertices(), key=lambda v: -g.degree(v))
    image = [-1] * n
    used = [False] * n

    def extend(idx):
        if idx == len(order):
            return True
        u = order[idx]
        for w in h.vertices():
            if used[w] or h.degree(w) != g.degree(u):
                continue
            ok = True
            for prev in order[:idx]:
                if g.has_edge(u, prev) != h.has_edge(w, image[prev]):
                    ok = False
                    break
            if ok:
                image[u] = w
                used[w] = True
                if extend(idx + 1):
                    return True
                image[u] = -1
                used[w] = False
        return False

    return extend(0)


def circulant_component_count(n, generators):
    """Number of connected components of circulant(n, generators).

    Equals gcd(n, g1, ..., gk); kept as an arithmetic cross-check for
    ``connected_components``.
    """
    d = n
    for a in generators:
        d = math.gcd(d, a % n)
    return d
