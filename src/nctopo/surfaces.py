"""Recognition of closed surfaces among 2-dimensional complexes.

The route is intrinsic: pseudomanifold check, vertex links, then an
orientation attempt by sign propagation over the triangle adjacency
graph.  The pseudomanifold check, the walk around each vertex's fan of
triangles that checks its link, the orientation walk and garland piece
detection read the complex's ``cofaces(d)`` index; edge signs are
computed locally, so orientability obtained this way is independent of
the rank of H_2, and homology can cross-validate it.  Closed surfaces are
classified by orientability and Euler characteristic alone.
"""

from __future__ import annotations

from itertools import combinations

from .homology import CrossCheckError


def is_pseudomanifold(k):
    """Pure of dimension d >= 1 and non-branching: every (d-1)-face lies in
    exactly two maximal simplices."""
    d = k.dim()
    return d >= 1 and k.is_pure() and set(map(len, k.cofaces(d).values())) == {2}


def _links_are_cycles(k):
    """Every vertex link of the pure-2 pseudomanifold k is a single cycle.

    In the link of v each vertex w has exactly two neighbours, the third
    vertices of the two triangles on the edge vw, so the link is a union
    of disjoint cycles.  It is one cycle when the fan of triangles around
    v closes after as many steps as v has triangles.  The walk leaves a
    triangle through one of its edges at v, crosses to the other triangle
    on that edge, read off ``k.cofaces(2)``, and leaves that one through
    its other edge at v.  The two triangles on an edge are told apart by
    identity: k is pure of dimension 2, so the star index and the coface
    index both hold the tuple objects of ``k.maximal_simplices``.
    """
    ridges = k.cofaces(2)
    for v in k.vertices():
        star = k.star(v)
        start = tri = star[0]
        x = tri[2] if tri[2] != v else tri[1]
        steps = 1
        while True:
            p, q = ridges[(v, x) if v < x else (x, v)]
            tri = q if p is tri else p
            if tri is start:
                break
            # Leave through the edge to the vertex that is neither v nor x.
            a, b, c = tri
            x = c if c != v and c != x else b if b != v and b != x else a
            steps += 1
        if steps != len(star):
            return False
    return True


def _orient(k):
    """Compatible orientation signs for a pure-2 pseudomanifold, or None.

    Returns {triangle: +1 or -1}, the triangle taken with or against the
    orientation of its sorted vertex order.  Signs are propagated across
    shared edges, which adjacent triangles must induce with opposite
    signs; a conflict means the complex is non-orientable.
    """
    ridges = k.cofaces(2)
    signs = {}
    for start in k.maximal_simplices:
        if start in signs:
            continue
        signs[start] = 1
        stack = [start]
        while stack:
            tri = stack.pop()
            a, b, c = tri
            s = signs[tri]
            # The sign of edge e in the boundary of the sorted triangle t is
            # (-1)**i for the dropped vertex t[i]: -1 exactly for (t[0], t[2]).
            # The neighbour wants -s times the product of the two signs.
            for e, want in (((a, b), -s), ((a, c), s), ((b, c), -s)):
                p, q = ridges[e]
                other = q if p is tri else p
                if other[1] not in e:
                    want = -want
                have = signs.get(other)
                if have is None:
                    signs[other] = want
                    stack.append(other)
                elif have != want:
                    return None
    return signs


def classify_surface(k):
    """Classification of k: "sphere", "orientable-genus-g",
    "nonorientable-crosscap-c", or "not-a-surface".

    k is a surface when it is a 2-dimensional pseudomanifold whose vertex
    links are single cycles, and connected; the rest, disconnected or
    lower-dimensional input included, is "not-a-surface".
    """
    if not (k.dim() == 2 and is_pseudomanifold(k) and _links_are_cycles(k) and k.is_connected()):
        return "not-a-surface"
    euler = k.euler_characteristic()
    if _orient(k) is not None:
        if euler % 2 or euler > 2:
            raise CrossCheckError(f"orientable closed surface with Euler characteristic {euler}")
        return "sphere" if euler == 2 else f"orientable-genus-{(2 - euler) // 2}"
    if euler > 1:
        raise CrossCheckError(f"non-orientable closed surface with Euler characteristic {euler}")
    return f"nonorientable-crosscap-{2 - euler}"


def tetrahedron_boundary_pieces(k):
    """All 4-vertex sets whose full tetrahedron boundary lies in k.

    Candidates come from pairs of triangles sharing an edge, read from the
    complex's edge -> triangles index, so the scan is quadratic only in the
    triangles per edge.  Used to certify garland structure: cores made of
    boundary-of-tetrahedron pieces glued along edges, where the piece
    count is the top Betti number.
    """
    tris = set(k.faces(2))
    pieces = set()
    for holders in k.cofaces(2).values():
        for a, b in combinations(holders, 2):
            # Two triangles on one edge span exactly four vertices.
            quad = tuple(sorted(set(a) | set(b)))
            if all(f in tris for f in combinations(quad, 3)):
                pieces.add(quad)
    return sorted(pieces)
