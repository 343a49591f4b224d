"""Recognition of closed surfaces among 2-dimensional complexes.

The route is intrinsic: pseudomanifold check, vertex links, then an
orientation attempt by sign propagation over the triangle adjacency
graph.  Orientability obtained this way is independent of the rank of
H_2, so homology can cross-validate it.  Closed surfaces are classified
by orientability and Euler characteristic alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .complexes import SimplicialComplex


def is_pseudomanifold(k, d=None):
    """Pure d-dimensional and non-branching: every (d-1)-face lies in
    exactly two maximal simplices.  d defaults to dim(k); requires d >= 1.
    """
    if d is None:
        d = k.dim()
    if d < 1 or k.dim() != d or not k.is_pure():
        return False
    counts = {}
    for m in k.maximal_simplices:
        for f in combinations(m, d):
            counts[f] = counts.get(f, 0) + 1
    return all(c == 2 for c in counts.values())


def vertex_link(k, v):
    """Link of vertex v: all faces gamma with gamma + {v} a face, v not in gamma."""
    star = k.maximal_cofaces((v,))
    if not star:
        raise ValueError(f"{v} is not a vertex of the complex")
    return SimplicialComplex(rest for m in star if (rest := tuple(x for x in m if x != v)))


def is_closed_surface(k):
    """Every vertex link a single cycle; implies a closed 2-manifold.

    In a pure-2 pseudomanifold the link of v is the graph of the edges
    opposite v in its star: it must have all degrees 2, and one walk
    around it must reach every link vertex.
    """
    if not is_pseudomanifold(k, 2):
        return False
    for v in k.vertices():
        nbrs = {}
        for m in k.maximal_cofaces((v,)):
            a, b = (x for x in m if x != v)
            nbrs.setdefault(a, []).append(b)
            nbrs.setdefault(b, []).append(a)
        if any(len(ws) != 2 for ws in nbrs.values()):
            return False
        start = prev = next(iter(nbrs))
        cur, steps = nbrs[start][0], 1
        while cur != start:
            a, b = nbrs[cur]
            prev, cur = cur, b if a == prev else a
            steps += 1
        if steps != len(nbrs):
            return False
    return True


def _edge_sign(triangle, edge):
    # Sign of the edge in the boundary of the sorted triangle.
    for i in range(3):
        if triangle[:i] + triangle[i + 1 :] == edge:
            return -1 if i % 2 else 1
    raise ValueError(f"{edge} is not a facet of {triangle}")


def orient(k):
    """Compatible orientation signs for a pure-2 pseudomanifold, or None.

    Returns {triangle: +1 or -1} meaning the triangle is taken with or
    against the orientation induced by its sorted vertex order.  Signs are
    propagated across shared edges; adjacent triangles must induce the
    shared edge with opposite signs.  A propagation conflict means the
    complex is non-orientable, reported as None.
    """
    if not is_pseudomanifold(k, 2):
        raise ValueError("orientation is defined here for pure-2 pseudomanifolds")
    by_edge = {}
    for m in k.maximal_simplices:
        for e in combinations(m, 2):
            by_edge.setdefault(e, []).append(m)
    signs = {}
    for start in k.maximal_simplices:
        if start in signs:
            continue
        signs[start] = 1
        stack = [start]
        while stack:
            tri = stack.pop()
            for e in combinations(tri, 2):
                a, b = by_edge[e]
                other = b if a == tri else a
                want = -signs[tri] * _edge_sign(tri, e) * _edge_sign(other, e)
                have = signs.get(other)
                if have is None:
                    signs[other] = want
                    stack.append(other)
                elif have != want:
                    return None
    return signs


@dataclass(frozen=True)
class SurfaceReport:
    pure2: bool
    pseudomanifold: bool
    closed_surface: bool
    connected: bool
    orientable: bool | None   # None when the question does not arise
    euler: int
    classification: str


def classify_surface(k):
    """Surface recognition report; classification uses chi and orientability.

    classification is one of "sphere", "orientable-genus-g",
    "nonorientable-crosscap-c", or "not-a-surface" (the latter also for
    disconnected or lower-dimensional input).
    """
    pure2 = k.dim() == 2 and k.is_pure()
    pm = is_pseudomanifold(k, 2) if pure2 else False
    closed = is_closed_surface(k) if pm else False
    connected = k.is_connected()
    orientable = None
    if pm:
        orientable = orient(k) is not None
    euler = k.euler_characteristic()
    if closed and connected:
        if orientable:
            if euler % 2 or euler > 2:
                raise AssertionError
            genus = (2 - euler) // 2
            classification = "sphere" if genus == 0 else f"orientable-genus-{genus}"
        else:
            crosscaps = 2 - euler
            if crosscaps < 1:
                raise AssertionError
            classification = f"nonorientable-crosscap-{crosscaps}"
    else:
        classification = "not-a-surface"
    return SurfaceReport(
        pure2=pure2,
        pseudomanifold=pm,
        closed_surface=closed,
        connected=connected,
        orientable=orientable,
        euler=euler,
        classification=classification,
    )


def tetrahedron_boundary_pieces(k):
    """All 4-vertex sets whose full tetrahedron boundary lies in k.

    Candidates come from pairs of triangles sharing an edge, so the scan
    is quadratic only in the triangles per edge.  Used to certify garland
    structure: cores made of boundary-of-tetrahedron pieces glued along
    edges, where the piece count is the top Betti number.
    """
    tris = set(k.faces(2))
    by_edge = {}
    for m in tris:
        for e in combinations(m, 2):
            by_edge.setdefault(e, []).append(m)
    pieces = set()
    for e, holders in by_edge.items():
        for a, b in combinations(holders, 2):
            quad = tuple(sorted(set(a) | set(b)))
            if len(quad) != 4:
                continue
            if all(f in tris for f in combinations(quad, 3)):
                pieces.add(quad)
    return sorted(pieces)
