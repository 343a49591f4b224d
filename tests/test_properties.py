"""Property-based invariants: canonical form, homology, folds, collapses."""

import math
import random

from hypothesis import assume, given, settings, strategies as st
from conftest import circulant_component_count, reference_collapse_step

from nctopo.classify import analyze_graph
from nctopo.collapse import collapse_core
from nctopo.complexes import SimplicialComplex, neighborhood_complex
from nctopo.graphs import (
    Graph,
    circulant,
    fold_reduce,
    is_connected,
    normalize_circulant_pair,
)
from nctopo.homology import homology, uct_check

simplices = st.lists(
    st.sets(st.integers(0, 7), min_size=1, max_size=4).map(lambda s: tuple(sorted(s))),
    min_size=1,
    max_size=12,
)


@st.composite
def circulant_params(draw, max_n=16):
    n = draw(st.integers(5, max_n))
    t = draw(st.integers(2, n // 2))
    s = draw(st.integers(1, t - 1))
    assume(s != t and s % n and t % n)
    try:
        s, t = normalize_circulant_pair(n, s, t)
    except ValueError:
        assume(False)
    return n, s, t


@st.composite
def bounded_degree_graphs(draw, max_vertices=10, max_degree=3):
    n = draw(st.integers(2, max_vertices))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    degree = [0] * n
    edges = []
    for u, v in pairs:
        if degree[u] < max_degree and degree[v] < max_degree:
            edges.append((u, v))
            degree[u] += 1
            degree[v] += 1
    return Graph(n, edges)


def padded(h, dim):
    pad = dim + 1 - len(h.betti_z)
    return (
        h.betti_z + (0,) * pad,
        h.torsion + ((),) * pad,
        h.betti_z2 + (0,) * pad,
    )


class TestComplexCanonicalForm:
    @given(simplices)
    def test_maximal_simplices_are_an_antichain(self, gens):
        k = SimplicialComplex(gens)
        ms = k.maximal_simplices
        assert ms == tuple(sorted(ms))
        for a in ms:
            for b in ms:
                assert a == b or not set(a) <= set(b)

    @given(simplices)
    def test_generators_span_the_same_faces(self, gens):
        k = SimplicialComplex(gens)
        for g in gens:
            assert k.maximal_cofaces(tuple(sorted(set(g))))

    @given(simplices)
    def test_json_round_trip(self, gens):
        k = SimplicialComplex(gens)
        assert SimplicialComplex.from_json_obj(k.to_json_obj()) == k

    @given(simplices)
    def test_euler_characteristic_matches_f_vector(self, gens):
        k = SimplicialComplex(gens)
        f = k.f_vector()
        assert k.euler_characteristic() == sum((-1) ** d * c for d, c in enumerate(f))

    @given(simplices)
    def test_components_partition_the_vertices(self, gens):
        k = SimplicialComplex(gens)
        seen = []
        for comp in k.components():
            seen.extend(comp.vertices())
        assert sorted(seen) == list(k.vertices())


class TestHomologyProperties:
    @given(simplices)
    def test_universal_coefficients_always_hold(self, gens):
        h = homology(SimplicialComplex(gens))
        assert uct_check(h)

    @given(simplices)
    def test_b0_counts_components(self, gens):
        k = SimplicialComplex(gens)
        assert homology(k).betti_z[0] == len(k.components())

    @given(simplices)
    def test_disjoint_union_adds_profiles(self, gens):
        k = SimplicialComplex(gens)
        shift = max(k.vertices()) + 1
        doubled = SimplicialComplex(
            list(k.maximal_simplices)
            + [tuple(v + shift for v in m) for m in k.maximal_simplices]
        )
        ha, hb = homology(k), homology(doubled)
        assert hb.betti_z == tuple(2 * b for b in ha.betti_z)
        assert hb.euler == 2 * ha.euler


class TestCollapseInvariance:
    @given(simplices)
    @settings(max_examples=60)
    def test_collapse_core_preserves_homology(self, gens):
        k = SimplicialComplex(gens)
        tr = collapse_core(k)
        dim = max(k.dim(), tr.core.dim())
        assert padded(homology(k), dim) == padded(homology(tr.core), dim)

    @given(simplices)
    @settings(max_examples=40)
    def test_each_step_preserves_homology(self, gens):
        k = SimplicialComplex(gens)
        tr = collapse_core(k)
        cur = k
        for pair in tr.pairs:
            nxt = reference_collapse_step(cur, pair)
            dim = max(cur.dim(), nxt.dim())
            assert padded(homology(cur), dim) == padded(homology(nxt), dim)
            cur = nxt
        assert cur == tr.core


class TestCirculantProperties:
    @given(circulant_params())
    def test_graph_component_count_is_a_gcd(self, nst):
        n, s, t = nst
        g = circulant(n, (s, t))
        from nctopo.graphs import connected_components

        assert len(connected_components(g)) == circulant_component_count(n, (s, t))
        assert circulant_component_count(n, (s, t)) == math.gcd(n, s, t)

    @given(circulant_params())
    def test_generator_reflection_gives_the_same_graph(self, nst):
        n, s, t = nst
        assert circulant(n, (s, t)) == circulant(n, (n - s, t)) == circulant(n, (s, n - t))

    @given(circulant_params())
    @settings(max_examples=60)
    def test_complex_components_share_one_profile(self, nst):
        n, s, t = nst
        k = neighborhood_complex(circulant(n, (s, t)))
        profiles = {
            (c.f_vector(), homology(c).betti_z, homology(c).torsion)
            for c in k.components()
        }
        assert len(profiles) == 1

    @given(circulant_params(max_n=14))
    @settings(max_examples=40)
    def test_fold_reduction_preserves_complex_homology(self, nst):
        n, s, t = nst
        g = circulant(n, (s, t))
        ka = neighborhood_complex(g)
        kb = neighborhood_complex(fold_reduce(g))
        dim = max(ka.dim(), kb.dim())
        assert padded(homology(ka), dim) == padded(homology(kb), dim)


class TestBoundedDegreeGraphs:
    @given(bounded_degree_graphs())
    @settings(max_examples=60)
    def test_low_degree_complexes_stay_curve_like(self, g):
        assume(is_connected(g))
        out = analyze_graph(g)
        # Excluded exceptional graphs get no verdict and no guarantee.
        assume(out["case"] == "degenerate-3-regular")
        assert out["verdict"] == "pass"
        for comp in out["components"]:
            assert comp.core_dim <= 1
            assert all(not tor for tor in comp.torsion)
            assert all(b == 0 for b in comp.betti_z[2:])
