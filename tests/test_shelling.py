"""Shelling verification, search, and the canonical doubled-sphere orders."""

import random
from itertools import permutations

import pytest

from nctopo import shelling
from nctopo.collapse import collapse_core
from nctopo.complexes import SimplicialComplex, neighborhood_complex
from nctopo.graphs import circulant
from nctopo.shelling import (
    SearchLimitExceeded,
    find_shelling,
    verify_shelling,
    wedge_shelling_orders,
)


def doubled_sphere_core(n, s, t):
    k = neighborhood_complex(circulant(n, (s, t)))
    return collapse_core(k, strategy="circulant", circulant=(n, s, t)).core


def greedy_graph_shelling(k):
    """Reference shelling of a 1-dimensional complex: grow a connected
    subgraph from the first edge, always by the smallest edge touching it;
    None when the graph is disconnected.  Shares no package code."""
    maximal = list(k.maximal_simplices)
    if len(maximal) <= 1:
        return maximal
    order = [maximal[0]]
    seen = set(maximal[0])
    remaining = set(maximal[1:])
    while remaining:
        nxt = min((e for e in remaining if seen & set(e)), default=None)
        if nxt is None:
            return None
        order.append(nxt)
        seen |= set(nxt)
        remaining.remove(nxt)
    return order


def fan(center, rim, size):
    """size triangles (center, rim + i, rim + i + 1) around one vertex."""
    return [(center, rim + i, rim + i + 1) for i in range(size)]


def random_graph(rng):
    """Seeded random simple graph with 1..64 edges, as a list of edges."""
    n = rng.randint(2, 30)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return rng.sample(pairs, rng.randint(1, min(64, len(pairs))))


def random_pure_2_complex(rng, max_triangles):
    """Seeded random pure 2-complex of 1..max_triangles triangles."""
    n = rng.randint(3, 8)
    tris = [(a, b, c) for a in range(n) for b in range(a + 1, n) for c in range(b + 1, n)]
    return SimplicialComplex(rng.sample(tris, rng.randint(1, min(max_triangles, len(tris)))))


@pytest.fixture
def search_calls(monkeypatch):
    """Count calls to the attachment test; raise after 10 000 of them."""
    calls = []
    inner = shelling._prefix_intersections

    def counted(prefix_sets, current):
        calls.append(None)
        if len(calls) > 10_000:
            raise RuntimeError("search ran past 10 000 attachment tests")
        return inner(prefix_sets, current)

    monkeypatch.setattr(shelling, "_prefix_intersections", counted)
    return calls


class TestVerifyShelling:
    def test_tetrahedron_boundary(self, tetra_boundary):
        rep = verify_shelling(tetra_boundary, tetra_boundary.maximal_simplices)
        assert rep.valid
        assert rep.spanning == ((1, 2, 3),)
        assert rep.sphere_dims == (2,)
        assert rep.describe() == "wedge of 1 sphere(s) of dimension 2"

    def test_two_triangles_on_an_edge_contractible(self):
        k = SimplicialComplex([(0, 1, 2), (1, 2, 3)])
        rep = verify_shelling(k, [(0, 1, 2), (1, 2, 3)])
        assert rep.valid
        assert rep.spanning == ()
        assert rep.describe() == "contractible"

    def test_vertex_contact_is_rejected(self):
        k = SimplicialComplex([(0, 1, 2), (2, 3, 4)])
        rep = verify_shelling(k, [(0, 1, 2), (2, 3, 4)])
        assert not rep.valid
        assert rep.spanning == ()

    def test_invalid_order_describes_itself(self):
        k = SimplicialComplex([(0, 1, 2), (2, 3, 4)])
        assert verify_shelling(k, k.maximal_simplices).describe() == "not a shelling"

    def test_circle_has_one_spanning_edge(self):
        k = SimplicialComplex([(0, 1), (1, 2), (0, 2)])
        rep = verify_shelling(k, [(0, 1), (1, 2), (0, 2)])
        assert rep.valid
        assert rep.spanning == ((0, 2),)
        assert rep.sphere_dims == (1,)

    def test_order_must_be_permutation(self, tetra_boundary):
        with pytest.raises(ValueError):
            verify_shelling(tetra_boundary, tetra_boundary.maximal_simplices[:3])

    def test_pure_only(self):
        k = SimplicialComplex([(0, 1, 2), (3, 4)])
        with pytest.raises(ValueError):
            verify_shelling(k, k.maximal_simplices)

    def test_input_simplices_normalized(self):
        k = SimplicialComplex([(0, 1, 2), (1, 2, 3)])
        rep = verify_shelling(k, [(2, 1, 0), (3, 2, 1)])
        assert rep.valid

    def test_disjoint_facet_is_rejected(self):
        # A facet that misses every predecessor attaches along nothing.
        k = SimplicialComplex([(0, 1), (1, 2), (2, 3)])
        assert not verify_shelling(k, [(0, 1), (2, 3), (1, 2)]).valid
        k = SimplicialComplex([(0, 1, 2), (2, 3, 4), (3, 4, 5)])
        assert not verify_shelling(k, [(0, 1, 2), (3, 4, 5), (2, 3, 4)]).valid

    def test_rp2_is_shellable_nowhere(self, rp2):
        # A nonorientable closed surface cannot shell: its homotopy type is
        # no wedge of spheres.  Spot-check a few orders rather than all.
        order = list(rp2.maximal_simplices)
        assert not verify_shelling(rp2, order).valid


class TestFindShelling:
    def test_single_simplex(self):
        k = SimplicialComplex([(0, 1, 2)])
        assert find_shelling(k) == [(0, 1, 2)]

    def test_path_graph(self):
        k = SimplicialComplex([(0, 1), (1, 2), (2, 3)])
        order = find_shelling(k)
        assert verify_shelling(k, order).valid

    def test_cycle_graph(self):
        k = SimplicialComplex([(i, (i + 1) % 6) for i in range(5)] + [(0, 5)])
        order = find_shelling(k)
        rep = verify_shelling(k, order)
        assert rep.valid
        assert len(rep.spanning) == 1

    def test_disconnected_graph_returns_none(self):
        k = SimplicialComplex([(0, 1), (2, 3)])
        assert find_shelling(k) is None

    def test_tetrahedron_boundary_found(self, tetra_boundary):
        order = find_shelling(tetra_boundary)
        rep = verify_shelling(tetra_boundary, order)
        assert rep.valid
        assert len(rep.spanning) == 1

    def test_vertex_wedge_of_triangles_not_shellable(self):
        # Pure, connected, but any second triangle meets the first in a
        # point; exhaustive search proves there is no shelling.
        k = SimplicialComplex([(0, 1, 2), (2, 3, 4)])
        assert find_shelling(k) is None

    def test_torus_not_shellable(self, torus7):
        # The torus is no wedge of spheres, so exhaustive search must
        # certify non-shellability.
        assert find_shelling(torus7, limit=14) is None

    def test_limit_guard(self):
        core = doubled_sphere_core(13, 2, 3)
        with pytest.raises(SearchLimitExceeded):
            find_shelling(core, limit=10)

    def test_pure_only(self):
        with pytest.raises(ValueError):
            find_shelling(SimplicialComplex([(0, 1, 2), (3, 4)]))

    def test_empty_and_points(self):
        assert find_shelling(SimplicialComplex([])) == []
        assert find_shelling(SimplicialComplex([(3,)])) == [(3,)]
        assert find_shelling(SimplicialComplex([(0,), (1,)])) is None

    @pytest.mark.parametrize(
        "facets",
        [
            [(0, 1), (1, 2), (5, 6), (6, 7)],
            fan(0, 1, 15) + fan(20, 21, 15),
            [(0, 1, 2, 3), (1, 2, 3, 4), (10, 11, 12, 13), (11, 12, 13, 14)],
        ],
        ids=["dim1", "two-15-triangle-fans", "dim3"],
    )
    def test_disconnected_needs_no_search(self, facets, search_calls):
        k = SimplicialComplex(facets)
        assert find_shelling(k) is None
        assert search_calls == []

    def test_joined_fans_are_found(self, search_calls):
        # Two 15-triangle fans that share the edge (0, 16) make one
        # 30-triangle fan, shelled without backtracking.
        k = SimplicialComplex(fan(0, 1, 15) + fan(0, 16, 15))
        order = find_shelling(k)
        assert verify_shelling(k, order).valid
        assert len(search_calls) < 1000

    def test_dead_prefix_sets_are_searched_once(self, search_calls):
        # Connected and not shellable; backtracking over orderings alone
        # runs past the fixture's 10 000 attachment tests here, because it
        # re-explores each dead set of placed facets once per ordering.
        k = SimplicialComplex(
            [
                (0, 1, 3), (0, 1, 5), (0, 3, 4), (0, 3, 5), (0, 4, 5),
                (1, 2, 3), (1, 3, 5), (1, 4, 5), (2, 4, 5),
            ]
        )
        assert find_shelling(k) is None
        assert len(search_calls) < 5000

    def test_graphs_match_greedy_reference(self):
        rng = random.Random(0)
        connected = 0
        for _ in range(400):
            k = SimplicialComplex(random_graph(rng))
            expect = greedy_graph_shelling(k)
            assert find_shelling(k) == expect
            connected += expect is not None
        assert connected >= 100 and 400 - connected >= 50

    def test_small_2_complexes_match_all_orders(self):
        # None exactly when no permutation of the facets is a shelling.
        rng = random.Random(7)
        found = 0
        for _ in range(60):
            k = random_pure_2_complex(rng, 6)
            order = find_shelling(k)
            if order is None:
                assert not any(
                    verify_shelling(k, p).valid for p in permutations(k.maximal_simplices)
                )
            else:
                assert verify_shelling(k, order).valid
                found += 1
        assert 10 <= found <= 50


class TestWedgeShellingOrders:
    def test_outside_families_rejected(self):
        with pytest.raises(ValueError):
            wedge_shelling_orders(13, 2, 3)

    @pytest.mark.parametrize(
        "n,s,t,ncomp",
        [(12, 1, 3, 2), (24, 2, 6, 4), (12, 3, 5, 2), (24, 6, 10, 4)],
    )
    def test_orders_certify_core_components(self, n, s, t, ncomp):
        core = doubled_sphere_core(n, s, t)
        comps = core.components()
        assert len(comps) == ncomp
        claims = wedge_shelling_orders(n, s, t)
        assert len(claims) == ncomp
        for order, spanning in claims:
            match = [c for c in comps if set(c.maximal_simplices) == set(order)]
            assert len(match) == 1
            rep = verify_shelling(match[0], order)
            assert rep.valid
            assert rep.spanning == tuple(spanning)
            assert rep.sphere_dims == (2, 2)

    def test_twelve_triangles_per_component(self):
        for order, spanning in wedge_shelling_orders(12, 1, 3):
            assert len(order) == 12
            assert len(spanning) == 2
            assert all(len(tri) == 3 for tri in order)

    def test_spanning_triangles_appear_late(self):
        # A spanning simplex needs its full boundary in predecessors, so it
        # can never open the order.
        for order, spanning in wedge_shelling_orders(12, 3, 5):
            for tri in spanning:
                assert order.index(tri) >= 2
