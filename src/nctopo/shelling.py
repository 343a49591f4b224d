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

from dataclasses import dataclass


class SearchLimitExceeded(RuntimeError):
    """Raised when find_shelling would exceed its size limit.

    Distinct from a negative answer: exceeding the limit is inconclusive,
    not a certificate of non-shellability.
    """


@dataclass(frozen=True)
class ShellingReport:
    order: tuple
    valid: bool
    spanning: tuple      # spanning simplices, in order of appearance
    sphere_dims: tuple   # one entry d per spanning simplex; empty = contractible

    def describe(self):
        if not self.valid:
            return "not a shelling"
        if not self.sphere_dims:
            return "contractible"
        d = self.sphere_dims[0]
        return f"wedge of {len(self.sphere_dims)} sphere(s) of dimension {d}"


def _prefix_intersections(prefix_sets, current):
    """Maximal nonempty vertex intersections of current with the prefix."""
    raw = {frozenset(p & current) for p in prefix_sets}
    raw.discard(frozenset())
    return [a for a in raw if not any(a < b for b in raw)]


def _attachment(prefix_sets, current, d):
    """The pieces where current attaches to the prefix, None if it does not.

    The first facet attaches with no pieces; a later one when its maximal
    vertex intersections with the prefix are nonempty and all of size d.
    """
    if not prefix_sets:
        return []
    pieces = _prefix_intersections(prefix_sets, current)
    if pieces and all(len(a) == d for a in pieces):
        return pieces
    return None


def verify_shelling(k, order):
    """Check a proposed shelling order of the maximal simplices of k.

    The complex must be pure and order must be a permutation of its
    maximal simplices; both violations raise ValueError.  Returns a
    ShellingReport with validity, the spanning simplices, and the wedge
    description they imply.
    """
    if not k.is_pure():
        raise ValueError("shelling is defined for pure complexes only")
    order = tuple(tuple(sorted(set(s))) for s in order)
    if sorted(order) != list(k.maximal_simplices):
        raise ValueError("order is not a permutation of the maximal simplices")
    d = k.dim()
    spanning = []
    prefix_sets = []
    for cur in order:
        cur_set = set(cur)
        pieces = _attachment(prefix_sets, cur_set, d)
        if pieces is None:
            return ShellingReport(order=order, valid=False, spanning=(), sphere_dims=())
        # Spanning: all d+1 facets of cur lie in earlier simplices.  Each
        # piece has size d, hence is a facet of cur, so all facets are
        # covered exactly when there are d+1 pieces.
        if len(pieces) == len(cur):
            spanning.append(cur)
        prefix_sets.append(cur_set)
    return ShellingReport(
        order=order,
        valid=True,
        spanning=tuple(spanning),
        sphere_dims=tuple(d for _ in spanning),
    )


def find_shelling(k, limit=64):
    """Search for a shelling order; None certifies there is none.

    Exhaustive backtracking over orderings, skipping any set of placed
    facets already seen to have no completion, so None proves that there
    is no shelling.  More than limit maximal simplices raise
    SearchLimitExceeded instead.  A disconnected complex gets None without
    a search: for d >= 1 each facet of a shelling meets the union of its
    predecessors in a nonempty (d-1)-complex, so every prefix is
    connected, and for d = 0 the attachment rule refuses a second point.
    """
    if not k.is_pure():
        raise ValueError("shelling is defined for pure complexes only")
    maximal = k.maximal_simplices
    if len(maximal) > limit:
        raise SearchLimitExceeded(
            f"{len(maximal)} maximal simplices exceed the search limit {limit}"
        )
    if maximal and not k.is_connected():
        return None
    d = k.dim()
    sets = [set(m) for m in maximal]
    dead = set()  # placed sets with no completion; attaching reads only the set

    def extend(order_idx, placed):
        if len(order_idx) == len(maximal):
            return [maximal[i] for i in order_idx]
        prefix = [sets[j] for j in order_idx]
        for i in range(len(maximal)):
            nxt = placed | {i}
            if i not in placed and nxt not in dead and _attachment(prefix, sets[i], d) is not None:
                found = extend(order_idx + [i], nxt)
                if found is not None:
                    return found
        dead.add(placed)
        return None

    return extend([], frozenset())


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
