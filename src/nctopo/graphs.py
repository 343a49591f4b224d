"""Finite simple graphs, circulant constructions, and fold reduction.

Vertices are always 0..num_vertices-1.  A fold deletes a vertex u whose
neighborhood is contained in the neighborhood of another vertex v; this
never changes the homotopy type of the neighborhood complex, so
``fold_reduce`` is the cheap first pass before any simplicial work.

Fold reduction runs from a worklist.  Deleting u shrinks only the
neighborhoods of u's neighbors, and takes u away as a fold target, so
only those neighbors can gain a fold; a vertex tested without one keeps
having none.  Each deletion therefore requeues u's remaining neighbors
and nothing else, and the work is one test per vertex plus one per
neighbor of a deleted vertex, not a rescan of the graph per fold.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import chain


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


def _fold_targets(adj, u):
    """The vertices v != u with N(u) contained in N(v): the one fold rule.

    adj[x] is the neighbor set of x, or None once x is deleted.  Every v
    with a nonempty N(u) contained in N(v) is adjacent to each vertex of
    N(u), so only the neighbors of one of them are tested.  An empty N(u)
    lies in the neighborhood of every other live vertex; the search for
    one starts at u + 1 and then wraps below u, because fold_reduce pops
    an isolated u before any larger vertex, so all of those are still
    live, while the vertices below u may be deleted.  Lazy, so a caller
    that asks only whether u folds stops at the first target.
    """
    nu = adj[u]
    if nu:
        w = next(iter(nu))
        return (v for v in adj[w] if v != u and adj[v] >= nu)
    others = chain(range(u + 1, len(adj)), range(u))
    return (v for v in others if adj[v] is not None)


def find_fold(g):
    """Smallest pair (u, v), u != v, with N(u) contained in N(v), or None.

    Pairs are compared lexicographically, so the result is deterministic.
    When N(u) == N(v) the smaller vertex is the one reported for deletion.
    An isolated u folds onto the smallest other vertex.
    """
    adj = [set(ns) for ns in g._adj]
    for u in range(len(adj)):
        v = min(_fold_targets(adj, u), default=None)
        if v is not None:
            return (u, v)
    return None


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
    the u of the lexicographically smallest fold pair, as a loop around
    ``find_fold`` would.  Vertices keep their labels until the end.

    A min-heap holds the vertices that may have a fold, at first all of
    them.  The smallest is popped and tested: without a fold it is
    dropped, with one it is deleted and each remaining neighbor not yet
    queued is pushed back.  Only a neighbor of a deleted vertex can gain a
    fold, so every live vertex off the heap has none, and the popped
    vertex is the smallest that folds.  A neighbor smaller than u goes
    back below it.
    """
    adj = [set(ns) for ns in g._adj]
    heap = list(range(len(adj)))  # sorted, so already a heap
    queued = [True] * len(adj)
    while heap:
        u = heappop(heap)
        queued[u] = False
        if next(_fold_targets(adj, u), None) is None:
            continue
        for w in adj[u]:
            adj[w].discard(u)
            if not queued[w]:
                queued[w] = True
                heappush(heap, w)
        adj[u] = None
    return induced_subgraph(g, [v for v, nv in enumerate(adj) if nv is not None])


MAX_VERTEX_LABEL = 100_000


def read_edge_list(path):
    """Graph from a whitespace-separated edge list file.

    Lines give two vertex labels; '#' starts a comment; blank lines are
    skipped.  Labels must be integers in 0..MAX_VERTEX_LABEL; vertex count
    is one more than the largest label seen, so the bound caps what a
    file can make the graph allocate.  The file is read as bytes and each
    line decoded on its own, so a line that is not UTF-8 is reported with
    its number, which a text-mode reader, decoding ahead in chunks, does
    not know.  A line ends at LF, CR or CR LF, as in text mode.
    """
    edges = []
    top = -1
    with open(path, "rb") as fh:
        lines = (line for chunk in fh for line in chunk.splitlines())
        for lineno, data in enumerate(lines, start=1):
            try:
                raw = data.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: not UTF-8 text: {exc.reason} at byte {exc.start + 1}"
                ) from exc
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

