"""Shared fixtures: standard complexes with known topology, seeded
generating families, the inputs verify produces, and reference helpers."""

import inspect
import math
import pathlib
import random
from functools import lru_cache
from itertools import combinations, permutations

import pytest
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form

from nctopo import SimplicialComplex, _kernels
from nctopo.classify import verify
from nctopo.cli import admissible_triples
from nctopo.graphs import Graph, normalize_circulant_pair

ROOT = pathlib.Path(__file__).resolve().parent.parent


def oracle_invariant_factors(mat):
    """Nonzero Smith invariant factors by sympy, sorted; shares no package code."""
    d = smith_normal_form(Matrix(mat))
    return sorted(abs(d[i, i]) for i in range(min(d.shape)) if d[i, i] != 0)


def sparse_rows(dense):
    """The rows of a dense integer matrix as the ``SparseRow`` rows that
    ``_kernels._general_snf`` takes."""
    return [_kernels.SparseRow(len(row), {j: v for j, v in enumerate(row) if v}) for row in dense]


def dense_rows(rows):
    """The dense integer lists that ``SparseRow`` rows stand for."""
    return [[row.entries.get(j, 0) for j in range(row.ncols)] for row in rows]


def snf(dense):
    """Smith diagonal of a nonempty dense integer matrix, by the general
    reduction that the Smith entry runs on any boundary that is no signed
    graph's incidence matrix."""
    return _kernels._general_snf(sparse_rows(dense))


def oracle_gf2_rank(mat):
    """Rank mod 2 of an integer matrix by plain list elimination, column by
    column; shares no package code."""
    rows = [[v % 2 for v in row] for row in mat]
    rank = 0
    cols = len(rows[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                rows[i] = [a ^ b for a, b in zip(rows[i], rows[r])]
        r += 1
        rank += 1
    return rank


# Minimal 6-vertex triangulation of the real projective plane: complete
# 1-skeleton, 10 triangles, Euler characteristic 1, H_1 = Z/2.
RP2_TRIANGLES = (
    (0, 1, 4),
    (0, 1, 5),
    (0, 2, 3),
    (0, 2, 4),
    (0, 3, 5),
    (1, 2, 3),
    (1, 2, 5),
    (1, 3, 4),
    (2, 4, 5),
    (3, 4, 5),
)

# 7-vertex torus with complete 1-skeleton: 14 triangles, chi = 0.
TORUS_TRIANGLES = tuple(
    tri
    for i in range(7)
    for tri in ((i, (i + 1) % 7, (i + 3) % 7), (i, (i + 2) % 7, (i + 3) % 7))
)


# 9-vertex Klein bottle: a 3 x 3 grid of squares, each cut along its
# diagonal, with vertex 3i + j at grid point (i, j).  The sides j = 0 and
# j = 3 are glued straight and the sides i = 0 and i = 3 with a reversal,
# (3, j) ~ (0, -j).  18 triangles, chi = 0, H_1 = Z + Z/2.
KLEIN_TRIANGLES = (
    (0, 1, 4),
    (0, 1, 8),
    (0, 2, 3),
    (0, 2, 6),
    (0, 3, 4),
    (0, 6, 8),
    (1, 2, 5),
    (1, 2, 7),
    (1, 4, 5),
    (1, 7, 8),
    (2, 3, 5),
    (2, 6, 7),
    (3, 4, 7),
    (3, 5, 6),
    (3, 6, 7),
    (4, 5, 8),
    (4, 7, 8),
    (5, 6, 8),
)


@pytest.fixture
def rp2():
    return SimplicialComplex(RP2_TRIANGLES)


@pytest.fixture
def torus7():
    return SimplicialComplex(TORUS_TRIANGLES)


@pytest.fixture
def klein():
    return SimplicialComplex(KLEIN_TRIANGLES)


@pytest.fixture
def tetra_boundary():
    return SimplicialComplex([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


@pytest.fixture
def solid_triangle():
    return SimplicialComplex([(0, 1, 2)])


def boundary_of_simplex(vertices):
    """Boundary complex of the full simplex on the given vertices."""
    vs = tuple(sorted(set(vertices)))
    if len(vs) < 2:
        raise ValueError("boundary needs a simplex of dimension at least 1")
    return SimplicialComplex(combinations(vs, len(vs) - 1))


def dunce_hat():
    """A triangle with its sides glued along the word a a a^-1, each side
    cut in three at the glued vertices 0, 1, 2, with a ring of nine inner
    vertices 3..11 and a centre 12: 27 triangles."""
    side = [0, 1, 2, 0, 1, 2, 0, 2, 1]
    triangles = []
    for i in range(9):
        j = (i + 1) % 9
        triangles += [(side[i], side[j], 3 + i), (side[j], 3 + j, 3 + i), (3 + i, 3 + j, 12)]
    return SimplicialComplex(triangles)


def cycle_graph(m):
    if m < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(m, [(i, (i + 1) % m) for i in range(m)])


def complete_graph(m):
    return Graph(m, list(combinations(range(m), 2)))


def k44_minus_matching():
    """K_{4,4} minus a perfect matching, on the sides 0..3 and 4..7, with
    vertex i missing i + 4.  With K_4, one of the two graphs the
    maximum-degree-3 description of neighborhood complexes excludes."""
    return Graph(8, [(a, b) for a in range(4) for b in range(4, 8) if b != a + 4])


def reference_is_excluded(g):
    """Whether g is K_4 or K_{4,4} minus a perfect matching, by trying every
    relabelling that fixes vertex 0.  Both graphs are vertex-transitive, so
    an isomorphism onto one of them, followed by an automorphism that takes
    the image of 0 back to 0, fixes 0.  Shares no code with classify."""
    edges = {frozenset(e) for e in g.edges()}
    for h in (complete_graph(4), k44_minus_matching()):
        target = {frozenset(e) for e in h.edges()}
        if g.num_vertices != h.num_vertices or len(edges) != len(target):
            continue
        for rest in permutations(range(1, g.num_vertices)):
            p = (0, *rest)
            if {frozenset((p[u], p[v])) for u, v in edges} == target:
                return True
    return False


def incidence_graph(k):
    """The vertex-facet graph B(K): the vertices of K, relabelled 0..f_0 - 1
    in order, then one vertex per maximal simplex, joined to its vertices.

    N(B(K)) has two parts: the neighborhoods of the facet vertices span a
    copy of K, and those of K's vertices span the nerve of its maximal
    simplices, which is homotopy equivalent to K (nerve theorem).
    """
    label = {v: i for i, v in enumerate(k.vertices())}
    m = len(label)
    return Graph(
        m + len(k.maximal_simplices),
        [(label[v], m + j) for j, facet in enumerate(k.maximal_simplices) for v in facet],
    )


def circulant_component_count(n, generators):
    """Number of connected components of circulant(n, generators).

    Equals gcd(n, g1, ..., gk); an arithmetic cross-check for
    ``connected_components``.
    """
    d = n
    for a in generators:
        d = math.gcd(d, a % n)
    return d


def multiplier_orbit(n, s, t):
    """The normalized triples (n, a s, a t) over the units a mod n.

    Multiplying by a unit is an isomorphism C_n(s, t) -> C_n(a s, a t)
    (Ádám 1967), so every member has the same neighborhood complex up to
    isomorphism.  The units form a group, so the orbits partition the
    triples of each n.
    """
    return frozenset(
        (n, *normalize_circulant_pair(n, a * s, a * t))
        for a in range(1, n)
        if math.gcd(a, n) == 1
    )


@lru_cache(maxsize=1)
def sweep_reports():
    """verify() of every admissible triple with 5 <= n <= 40, by triple.

    Acceptance criterion 09 clears and fills this cache inside its timed
    budget; later tests read the same reports instead of sweeping again.
    """
    return {nst: verify(*nst) for nst in admissible_triples(5, 40)}


def random_family(seed):
    """Seeded generating family for SimplicialComplex.

    Simplices come as tuples or lists with unsorted and repeated vertices,
    of mixed sizes including empty ones; some are repeated in another
    order and some are followed by one of their own faces.
    """
    rng = random.Random(seed)
    verts = rng.randint(1, 12)
    family = []
    for _ in range(rng.randint(0, 25)):
        s = [rng.randrange(verts) for _ in range(rng.randint(0, 6))]
        family.append(s)
        r = rng.random()
        if s and r < 0.2:
            family.append(s[::-1])
        elif s and r < 0.4:
            family.append(rng.sample(s, rng.randint(1, len(s))))
    rng.shuffle(family)
    return [tuple(s) if rng.random() < 0.5 else s for s in family]


def random_sparse_graph(seed):
    """Seeded graph on 20..60 vertices with degrees at most 3 or 4, the
    shape of the graphs analyze_graph folds."""
    rng = random.Random(seed)
    n = rng.randint(20, 60)
    cap = rng.choice((3, 4))
    degree = [0] * n
    edges = set()
    for _ in range(2 * n):
        u, v = rng.sample(range(n), 2)
        if degree[u] < cap and degree[v] < cap and (min(u, v), max(u, v)) not in edges:
            edges.add((min(u, v), max(u, v)))
            degree[u] += 1
            degree[v] += 1
    return Graph(n, sorted(edges))


def paper_edge_pairs(n, s, t):
    """The paper's edge pairs ({s+k, n-s+k}, N(k)) for k in Z_n, with
    N(k) = {s+k, t+k, n-s+k, n-t+k}, as sorted tuples.  No congruence is
    checked, so violated hypotheses give their counterexample pairs too.
    Shares no package code."""
    return [
        (
            tuple(sorted({(s + k) % n, (n - s + k) % n})),
            tuple(sorted({(s + k) % n, (t + k) % n, (n - s + k) % n, (n - t + k) % n})),
        )
        for k in range(n)
    ]


def reference_verify_collapsible_pair(k, sigma, tau):
    """Whether (sigma, tau) is a free pair of k, by scanning every maximal
    simplex: sigma is a nonempty proper subset of the maximal simplex tau
    and lies in no other one.  Shares no package code."""
    maximal = k.maximal_simplices
    if not sigma or tau not in maximal or not set(sigma) < set(tau):
        return False
    return [m for m in maximal if set(sigma) <= set(m)] == [tau]


def reference_collapse_step(k, pair):
    """k after the elementary collapse of pair, or None when it is not a
    free pair: tau goes, each tau minus a vertex of sigma comes in, and the
    normalizing constructor drops those that lie in another maximal
    simplex.  Shares no package code with the collapse layer."""
    sigma, tau = pair
    if not reference_verify_collapsible_pair(k, sigma, tau):
        return None
    rest = [m for m in k.maximal_simplices if m != tau]
    return SimplicialComplex(rest + [tuple([v for v in tau if v != x]) for x in sigma])


def reference_replay(k, pairs):
    """Every complex from k through each reference_collapse_step of pairs,
    stopping after a None at the first pair that is not free."""
    states = [k]
    for pair in pairs:
        states.append(reference_collapse_step(states[-1], pair))
        if states[-1] is None:
            break
    return states


def reference_component_vertex_sets(maximal):
    """Vertex sets of the connected components by union-find, ordered by
    minimum vertex; shares no code with SimplicialComplex."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for m in maximal:
        for v in m:
            parent.setdefault(v, v)
            parent[find(v)] = find(m[0])
    groups = {}
    for v in parent:
        groups.setdefault(find(v), set()).add(v)
    return sorted(groups.values(), key=min)


@pytest.fixture
def run(monkeypatch):
    """The benchmark's perfbench/run.py, imported and never modified."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import run

    return run


@pytest.fixture(scope="session")
def bench_stages():
    """benchmarks/bench_stages.py, whose record() the stage benchmark and
    pipeline_inputs share."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "benchmarks"))
        import bench_stages

    return bench_stages


@pytest.fixture(scope="session")
def pipeline_inputs(bench_stages):
    """What verify hands to the complex, collapse and surface layers.

    Recorded by bench_stages.record on the torus case at n = 80 and 160
    and on the n = 5..25 sweep instances with n + s + t divisible by 5,
    about a fifth of them, chosen by a rule on the triple so that the
    sample does not move with the sweep's loop order: the generating
    family of every SimplicialComplex built with its antichain flag, every
    (complex, collapse trace) pair, every (complex, strategy, circulant)
    call of collapse_core, and every component passed to classify_surface.
    """
    from nctopo import classify
    from nctopo.cli import admissible_triples

    sample = [(80, 1, 4), (160, 1, 4)]
    sample += [nst for nst in admissible_triples(5, 25) if sum(nst) % 5 == 0]
    rec = bench_stages.record(lambda: [classify.verify(*nst) for nst in sample])
    signature = inspect.signature(SimplicialComplex)
    return {
        "families": [
            (args[0], signature.bind(*args, **kwargs).arguments.get("antichain", False))
            for args, kwargs in rec["builds"]
        ],
        "traces": [(call[0], trace) for call, trace, _ in rec["collapses"]],
        "collapse_calls": [call for call, _, _ in rec["collapses"]],
        "surfaces": rec["surfaces"],
    }
