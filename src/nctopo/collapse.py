"""Elementary collapses and deterministic collapse cores.

An elementary collapse removes the open interval between a free face
sigma and its unique maximal coface tau, that is every face gamma with
sigma <= gamma <= tau.  After the removal the candidates for new maximal
simplices are exactly the sets tau minus one vertex of sigma; a candidate
that is contained in another maximal simplex is absorbed instead.

The generic strategy takes free faces from a lazily validated heap over
a face -> cofaces map, never from a rescan of every face.  The map reads
each vertex's maximal cofaces off the complex's star index and registers
only the faces of two or more vertices itself.  One collapse walks the
proper faces of tau once and swaps tau, in each face's coface set, for
the kept candidates that strictly contain the face; a candidate is kept
iff tau is its only maximal coface.  The heap starts with one entry per
maximal simplex, its smallest free face: a face free in tau stays free
while tau is maximal, because every simplex added later lies in the
simplex just removed, so a smaller free face can only appear by a push.
The circulant strategy first applies the closed-form pair schedule that
the arithmetic of (n, s, t) admits, if any (``circulant_schedule``: an
edge schedule in two mirrored forms, or a free-triangle schedule for two
special parameter families) through ``apply_pairs``, which runs on a
live maximal set and vertex -> star index, verifies every pair as it is
applied, and needs no face map.  ``apply_pairs`` is the one pair
verifier: a recorded trace replays through it too, and it shares no code
with the generic engine.  After the schedule the core is built, and a
free-face screen asks the core's own coface index whether anything is
still free: the face map of the generic strategy is built from that
core, and that strategy run to a fixed point, only when some (d-1)-face
lies in a single d-face, d the dimension of a maximal simplex.  The
coface index the screen builds is the one homology and surface
recognition read next.  When no schedule is admitted, or a pair of it is
not free, the generic strategy runs on the whole complex.  Everything is
deterministic.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import combinations

from .complexes import SimplicialComplex


class _Engine:
    """Mutable maximal-simplex set with a face -> cofaces map for collapsing.

    Built from a complex k: a vertex's entry is its star in k, unless the
    vertex is itself maximal and so no proper face, and the faces of two
    or more vertices are registered from the maximal simplices.

    Free faces wait in a heap of (-len(tau), sigma, tau) entries, so the
    top valid entry is the pair the generic strategy takes next (Benedetti
    and Lutz's free-face list); an entry whose tau is no longer maximal is
    dropped when it reaches the top.  The heap starts with one entry per
    maximal simplex, its lexicographically smallest free face.  That is
    enough: a face that is free in tau stays free while tau is maximal,
    since every simplex added later lies in the simplex just removed, so a
    simplex's smallest free face only goes down, and only by a push.

    collapse(sigma, tau) walks the proper faces of tau once.  A candidate
    tau - x (x in sigma) is kept iff tau is its only maximal coface, and in
    each face's coface set tau is swapped for the kept candidates that
    strictly contain the face.  Every proper face of a kept candidate is a
    proper face of tau, so no face is new, and a face is pushed when its
    final coface set has a single element.
    """

    def __init__(self, k):
        self.maximal = set(k.maximal_simplices)
        # A vertex that is itself maximal lies in no other simplex: star [(v,)].
        self.cofaces = cofaces = {}
        for v in k.vertices():
            star = k.star(v)
            if len(star[0]) > 1:
                cofaces[(v,)] = set(star)
        for m in self.maximal:
            for r in range(2, len(m)):
                for f in combinations(m, r):
                    cfs = cofaces.get(f)
                    if cfs is None:
                        cofaces[f] = {m}
                    else:
                        cfs.add(m)
        smallest = {}
        for f, cfs in cofaces.items():
            if len(cfs) == 1:
                (m,) = cfs
                g = smallest.get(m)
                if g is None or f < g:
                    smallest[m] = f
        self.heap = [(-len(m), f, m) for m, f in smallest.items()]
        heapify(self.heap)

    def collapse(self, sigma, tau):
        cofaces, heap = self.cofaces, self.heap
        self.maximal.remove(tau)
        kept = []
        for x in sigma:
            i = tau.index(x)
            cand = tau[:i] + tau[i + 1 :]
            # A candidate contained in another maximal simplex is absorbed.
            if len(cofaces[cand]) == 1:
                self.maximal.add(cand)
                kept.append((x, cand))
        # A face of tau smaller than a ridge lies in tau - x iff x is not
        # in it, and then strictly; a ridge lies strictly in no candidate.
        top = len(tau) - 1
        for r in range(1, len(tau)):
            for f in combinations(tau, r):
                cfs = cofaces[f]
                cfs.remove(tau)
                if r < top:
                    for x, cand in kept:
                        if x not in f:
                            cfs.add(cand)
                if len(cfs) == 1:
                    (m,) = cfs
                    heappush(heap, (-len(m), f, m))
                elif not cfs:
                    del cofaces[f]

    def find_free_generic(self):
        """Free pair with highest-dimension coface, ties by smallest face."""
        heap, maximal = self.heap, self.maximal
        while heap:
            _, sigma, tau = heap[0]
            if tau in maximal:
                return sigma, tau
            heappop(heap)
        return None


class CollapseTrace:
    """Collapse pairs and the core they leave; apply_pairs replays them."""

    __slots__ = ("pairs", "core", "strategy", "schedule")

    def __init__(self, pairs, core, strategy, schedule=None):
        self.pairs = tuple(pairs)
        self.core = core
        self.strategy = strategy
        self.schedule = schedule

    def __repr__(self):
        return (
            f"CollapseTrace({len(self.pairs)} pairs, strategy={self.strategy!r}, "
            f"schedule={self.schedule!r})"
        )


def _edge_congruences(n, s, t):
    return (
        ("2s", (2 * s) % n),
        ("2(s+t)", (2 * (s + t)) % n),
        ("3s+t", (3 * s + t) % n),
        ("3s-t", (3 * s - t) % n),
        ("4s", (4 * s) % n),
    )


def _neighborhood_tuple(n, s, t, k):
    return tuple(sorted({(s + k) % n, (t + k) % n, (n - s + k) % n, (n - t + k) % n}))


def circulant_schedule(n, s, t):
    """(label, pairs) of the closed-form schedule that C_n(s, t) admits, or None.

    "edges(s)" is the edge-pair lemma's schedule ({s+k, n-s+k}, N(k)) for
    k in Z_n, admitted when none of 2s, 2(s+t), 3s+t, 3s-t, 4s vanishes
    mod n; "edges(t)" is the same with the generators' roles swapped.
    "triangles" is the free-triangle schedule of the two doubled-sphere
    families: ({s+k, t+k, n-t+k}, N(k)) when t == 3s and n == 12s, and
    ({s+k, t+k, n-s+k}, N(k)) when 5s == 3t and n == 4s.  The first one
    admitted, in that order, is returned.
    """
    if n < 2 or s % n == 0 or t % n == 0:
        raise ValueError("generators must be nonzero mod n")
    for label, a, b in (("edges(s)", s, t), ("edges(t)", t, s)):
        if all(value for _, value in _edge_congruences(n, a, b)):
            return label, [
                (tuple(sorted({(a + k) % n, (n - a + k) % n})), _neighborhood_tuple(n, s, t, k))
                for k in range(n)
            ]
    if t == 3 * s and n == 12 * s:
        sig = (s, t, n - t)
    elif 5 * s == 3 * t and n == 4 * s:
        sig = (s, t, n - s)
    else:
        return None
    return "triangles", [
        (tuple(sorted((a + k) % n for a in sig)), _neighborhood_tuple(n, s, t, k))
        for k in range(n)
    ]


def apply_pairs(k, pairs):
    """Apply pairs to a live copy of k's maximal set and star index.

    The one collapse-pair verifier: schedules run through it, and a trace
    replays as ``apply_pairs(k, trace.pairs)``.  Each pair (sigma, tau) of
    sorted vertex tuples, as traces record them, must be free when it is
    reached: tau is maximal, sigma is a nonempty proper subset of tau, and
    no other maximal simplex contains sigma, that is the stars of sigma's
    vertices meet in tau alone.  A tau in another vertex order is no
    maximal simplex, so it is refused.  Returns the maximal set after the
    last pair, or None when some pair is not free.
    """
    maximal = set(k.maximal_simplices)
    star = {v: set(k.star(v)) for v in k.vertices()}
    meet = set.intersection
    for sigma, tau in pairs:
        if not sigma or tau not in maximal or not set(sigma) < set(tau):
            return None
        if len(meet(*[star[v] for v in sigma])) != 1:
            return None
        maximal.remove(tau)
        for v in tau:
            star[v].remove(tau)
        for x in sigma:
            i = tau.index(x)
            cand = tau[:i] + tau[i + 1 :]
            # A candidate contained in another maximal simplex is absorbed.
            if not meet(*[star[v] for v in cand]):
                maximal.add(cand)
                for v in cand:
                    star[v].add(cand)
    return maximal


def _has_free_face(k):
    """True iff the complex k has a free face.

    k has one iff a ridge of some maximal simplex tau lies in no other
    maximal simplex, since every proper face of tau lies in a ridge of
    tau.  With d = dim tau that is a (d-1)-face in exactly one d-face,
    read off ``k.cofaces(d)`` (empty for d = 0: a vertex simplex has no
    proper face).  Conversely a (d-1)-face r in exactly one d-face F is
    such a ridge of F: were F a face of a larger simplex, r plus a vertex
    of it outside F would be a second d-face, and a maximal simplex
    through r other than F would likewise hold a second d-face through r.
    """
    # Top first: the index of a lower dimension is built from those above.
    dims = sorted({len(m) - 1 for m in k.maximal_simplices}, reverse=True)
    return any(1 in map(len, k.cofaces(d).values()) for d in dims)


def collapse_core(k, strategy="generic", circulant=None):
    """Collapse k to a core with no free faces; returns a CollapseTrace.

    strategy "generic" repeatedly removes the free pair whose coface has
    highest dimension, tie-broken by lexicographically smallest free face.
    strategy "circulant" expects circulant=(n, s, t) and first applies
    circulant_schedule(n, s, t) when it gives a schedule, through
    apply_pairs, then finishes generically; after a schedule the core is
    built first, and the face map of the generic strategy is built from it
    only when the core's coface index shows a free face
    (``_has_free_face``).  A schedule pair that is not free leaves k to
    the generic strategy whole.  Both strategies are deterministic; the
    core is a fixed point of collapsing but is not guaranteed to have
    minimal size.
    """
    if strategy not in ("generic", "circulant"):
        raise ValueError(f"unknown strategy {strategy!r}")
    pairs_applied = []
    schedule_used = None
    core = k
    if strategy == "circulant":
        if circulant is None:
            raise ValueError("strategy 'circulant' needs circulant=(n, s, t)")
        chosen = circulant_schedule(*circulant)
        live = None if chosen is None else apply_pairs(k, chosen[1])
        if live is not None:
            schedule_used, sched = chosen
            pairs_applied.extend(sched)
            # Both the schedule and the engine add a candidate only when no
            # maximal simplex contains it, so the maximal set stays an
            # antichain.
            core = SimplicialComplex(live, antichain=True)
    if schedule_used is None or _has_free_face(core):
        eng = _Engine(core)
        while (nxt := eng.find_free_generic()) is not None:
            eng.collapse(*nxt)
            pairs_applied.append(nxt)
        core = SimplicialComplex(eng.maximal, antichain=True)
    return CollapseTrace(pairs=pairs_applied, core=core, strategy=strategy, schedule=schedule_used)
