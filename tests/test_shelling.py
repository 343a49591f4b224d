"""Shelling verification and the canonical doubled-sphere orders."""

import pytest

from nctopo.collapse import collapse_core
from nctopo.complexes import SimplicialComplex, neighborhood_complex
from nctopo.graphs import circulant
from nctopo.shelling import verify_shelling, wedge_shelling_orders


def doubled_sphere_core(n, s, t):
    k = neighborhood_complex(circulant(n, (s, t)))
    return collapse_core(k, strategy="circulant", circulant=(n, s, t)).core


class TestVerifyShelling:
    def test_tetrahedron_boundary(self, tetra_boundary):
        assert verify_shelling(tetra_boundary, tetra_boundary.maximal_simplices) == ((1, 2, 3),)

    def test_two_triangles_on_an_edge_contractible(self):
        k = SimplicialComplex([(0, 1, 2), (1, 2, 3)])
        assert verify_shelling(k, [(0, 1, 2), (1, 2, 3)]) == ()

    def test_vertex_contact_is_rejected(self):
        k = SimplicialComplex([(0, 1, 2), (2, 3, 4)])
        assert verify_shelling(k, [(0, 1, 2), (2, 3, 4)]) is None

    def test_circle_has_one_spanning_edge(self):
        k = SimplicialComplex([(0, 1), (1, 2), (0, 2)])
        assert verify_shelling(k, [(0, 1), (1, 2), (0, 2)]) == ((0, 2),)

    def test_order_must_be_permutation(self, tetra_boundary):
        with pytest.raises(ValueError):
            verify_shelling(tetra_boundary, tetra_boundary.maximal_simplices[:3])

    def test_pure_only(self):
        k = SimplicialComplex([(0, 1, 2), (3, 4)])
        with pytest.raises(ValueError):
            verify_shelling(k, k.maximal_simplices)

    def test_input_simplices_normalized(self):
        k = SimplicialComplex([(0, 1, 2), (1, 2, 3)])
        assert verify_shelling(k, [(2, 1, 0), (3, 2, 1)]) == ()

    def test_disjoint_facet_is_rejected(self):
        # A facet that misses every predecessor attaches along nothing.
        k = SimplicialComplex([(0, 1), (1, 2), (2, 3)])
        assert verify_shelling(k, [(0, 1), (2, 3), (1, 2)]) is None
        k = SimplicialComplex([(0, 1, 2), (2, 3, 4), (3, 4, 5)])
        assert verify_shelling(k, [(0, 1, 2), (3, 4, 5), (2, 3, 4)]) is None

    def test_rp2_is_shellable_nowhere(self, rp2):
        # A nonorientable closed surface cannot shell: its homotopy type is
        # no wedge of spheres.  Spot-check a few orders rather than all.
        order = list(rp2.maximal_simplices)
        assert verify_shelling(rp2, order) is None


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
            assert verify_shelling(match[0], order) == tuple(spanning)
            assert len(spanning) == 2

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
