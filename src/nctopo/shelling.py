"""Shelling orders of pure complexes and their homotopy consequences.

An ordering F_1, ..., F_m of the maximal d-simplices is a shelling when
for every j >= 2 the intersection of F_j with the union of its
predecessors is a pure nonempty complex of dimension d-1.  Because all
the F_i are full simplices, that intersection is the union of the full
simplices on the vertex sets V(F_i) & V(F_j), i < j, so only those
vertex intersections need inspecting.  A shellable complex is homotopy
equivalent to a wedge with one d-sphere per spanning simplex (a simplex
whose entire boundary lies in its predecessors).
"""

from __future__ import annotations


def _prefix_intersections(prefix_sets, current):
    """Maximal nonempty vertex intersections of current with the prefix."""
    raw = {frozenset(p & current) for p in prefix_sets}
    raw.discard(frozenset())
    return [a for a in raw if not any(a < b for b in raw)]


def verify_shelling(k, order):
    """Check a proposed shelling order of the maximal simplices of k.

    The complex must be pure and order must be a permutation of its
    maximal simplices; both violations raise ValueError.  Returns the
    tuple of spanning simplices in order of appearance, one d-sphere of
    the wedge each, or None when order is not a shelling.
    """
    if not k.is_pure():
        raise ValueError("shelling is defined for pure complexes only")
    order = [tuple(sorted(set(s))) for s in order]
    if sorted(order) != list(k.maximal_simplices):
        raise ValueError("order is not a permutation of the maximal simplices")
    d = k.dim()
    spanning = []
    prefix_sets = []
    for cur in order:
        cur_set = set(cur)
        pieces = _prefix_intersections(prefix_sets, cur_set)
        # The first facet attaches with no pieces; a later one when its
        # maximal vertex intersections with the prefix are nonempty and
        # all of size d.
        if prefix_sets and not (pieces and all(len(a) == d for a in pieces)):
            return None
        # Spanning: all d+1 facets of cur lie in earlier simplices.  Each
        # piece has size d, hence is a facet of cur, so all facets are
        # covered exactly when there are d+1 pieces.
        if len(pieces) == len(cur):
            spanning.append(cur)
        prefix_sets.append(cur_set)
    return tuple(spanning)


def wedge_shelling_orders(n, s, t):
    """Canonical per-component shelling orders for the doubled-sphere cores.

    For the two parameter families that admit a free-triangle collapse
    schedule (t == 3s with n == 12s, and 5s == 3t with n == 4s) the
    collapsed core splits into components of twelve triangles each, and
    each component carries a closed-form shelling with exactly two
    spanning triangles, certifying the wedge of two 2-spheres.  Returns a
    list of (order, spanning) pairs, one per component; raises ValueError
    for parameters outside both families.
    """

    def tri(base, k):
        return tuple(sorted((a + k) % n for a in base))

    if t == 3 * s and n == 12 * s:
        step = 2 * s
        t1 = (s, t, n - s)
        t2 = (t, n - t, n - s)
        swap_at = 3
        span_kinds = ((4, t2), (5, t2))
    elif 5 * s == 3 * t and n == 4 * s:
        step = 2 * (s // 3)
        t1 = (s, n - s, n - t)
        t2 = (t, n - s, n - t)
        swap_at = None
        span_kinds = ((5, t1), (5, t2))
    else:
        raise ValueError(f"no canonical shelling order for (n, s, t) = ({n}, {s}, {t})")

    out = []
    for c in range(step):
        ks = [(c + step * l) % n for l in range(6)]
        order = []
        for pos, k in enumerate(ks):
            first, second = tri(t1, k), tri(t2, k)
            if pos == swap_at:
                first, second = second, first
            order.append(first)
            order.append(second)
        spanning = [tri(base, ks[pos]) for pos, base in span_kinds]
        out.append((order, spanning))
    return out
