"""Simplicial complex canonicalization, faces, and neighborhood complexes."""

import random
from itertools import combinations

import pytest
from conftest import (
    boundary_of_simplex,
    complete_graph,
    k44_minus_matching,
    random_family,
    reference_component_vertex_sets,
)

from nctopo import SimplicialComplex, circulant, neighborhood_complex
from nctopo.graphs import Graph


class TestCanonicalization:
    def test_faces_of_larger_simplices_absorbed(self):
        k = SimplicialComplex([(0, 1, 2), (0, 1), (2,)])
        assert k.maximal_simplices == ((0, 1, 2),)

    def test_duplicates_and_orderings_merge(self):
        a = SimplicialComplex([(2, 1, 0), (0, 1, 2)])
        b = SimplicialComplex([(0, 1, 2)])
        assert a == b
        assert hash(a) == hash(b)

    def test_incomparable_simplices_kept(self):
        k = SimplicialComplex([(0, 1), (1, 2), (2, 0)])
        assert len(k.maximal_simplices) == 3

    def test_empty_input(self):
        k = SimplicialComplex([])
        assert k.maximal_simplices == ()
        assert k.dim() == -1
        assert k.f_vector() == ()


class TestFaceEnumeration:
    def test_solid_triangle_faces(self, solid_triangle):
        assert solid_triangle.faces(0) == ((0,), (1,), (2,))
        assert solid_triangle.faces(1) == ((0, 1), (0, 2), (1, 2))
        assert solid_triangle.faces(2) == ((0, 1, 2),)
        assert solid_triangle.faces(3) == ()
        assert solid_triangle.f_vector() == (3, 3, 1)
        assert solid_triangle.euler_characteristic() == 1

    def test_tetra_boundary(self, tetra_boundary):
        assert tetra_boundary.f_vector() == (4, 6, 4)
        assert tetra_boundary.euler_characteristic() == 2
        assert tetra_boundary.is_pure()
        assert tetra_boundary.dim() == 2

    def test_has_face(self, tetra_boundary):
        assert tetra_boundary.maximal_cofaces((1, 3))
        assert tetra_boundary.maximal_cofaces((2,))
        assert not tetra_boundary.maximal_cofaces((0, 1, 2, 3))
        assert not tetra_boundary.maximal_cofaces(())

    def test_mixed_dimensions_not_pure(self):
        k = SimplicialComplex([(0, 1, 2), (3, 4)])
        assert not k.is_pure()


class TestComponents:
    def test_split_and_order(self):
        k = SimplicialComplex([(5, 6), (0, 1, 2), (6, 7)])
        comps = k.components()
        assert len(comps) == 2
        assert comps[0].maximal_simplices == ((0, 1, 2),)
        assert set(comps[1].vertices()) == {5, 6, 7}

    def test_connected_single(self, tetra_boundary):
        assert len(tetra_boundary.components()) == 1

    def test_connected_complex_is_its_own_component(self, tetra_boundary, torus7):
        for k in (tetra_boundary, torus7, SimplicialComplex([(3,)])):
            (comp,) = k.components()
            assert comp is k

    def test_disconnected_components_are_new_complexes(self):
        k = SimplicialComplex([(5, 6), (0, 1, 2), (6, 7), (9,)])
        comps = k.components()
        assert [c.maximal_simplices for c in comps] == [((0, 1, 2),), ((5, 6), (6, 7)), ((9,),)]
        assert all(c is not k for c in comps)

    def test_empty_complex_has_none(self):
        assert SimplicialComplex([]).components() == []


class TestJson:
    def test_round_trip(self, rp2):
        again = SimplicialComplex.from_json_obj(rp2.to_json_obj())
        assert again == rp2

    def test_vertex_mismatch_rejected(self):
        # An empty declared list is a declaration too, not an absent key.
        for vertices in ([0, 1, 9], []):
            with pytest.raises(ValueError):
                SimplicialComplex.from_json_obj(
                    {"vertices": vertices, "maximal_simplices": [[0, 1]]}
                )


class TestBoundaryOfSimplex:
    def test_boundary_of_tetrahedron(self):
        k = boundary_of_simplex((0, 1, 2, 3))
        assert k.f_vector() == (4, 6, 4)

    def test_boundary_of_edge_is_two_points(self):
        k = boundary_of_simplex((0, 1))
        assert k.maximal_simplices == ((0,), (1,))

    def test_boundary_of_vertex_rejected(self):
        with pytest.raises(ValueError):
            boundary_of_simplex((0,))


class TestNeighborhoodComplex:
    def test_c10_1_3_has_ten_maximal_tetrahedra(self):
        k = neighborhood_complex(circulant(10, (1, 3)))
        assert len(k.maximal_simplices) == 10
        assert k.is_pure() and k.dim() == 3
        assert len(k.components()) == 2

    def test_neighborhoods_translate(self):
        # N(k) is N(0) shifted by k, so the maximal simplices form one
        # rotation orbit whenever they are pairwise distinct.
        k = neighborhood_complex(circulant(13, (2, 3)))
        base = set(k.maximal_simplices[0])
        orbit = {tuple(sorted((v + r) % 13 for v in base)) for r in range(13)}
        assert set(k.maximal_simplices) == orbit

    def test_complete_graph_gives_simplex_boundary(self):
        # N(v) in K_m is everything but v: the (m-1)-simplex boundary.
        k = neighborhood_complex(complete_graph(5))
        assert k == boundary_of_simplex((0, 1, 2, 3, 4))

    def test_k4(self):
        k = neighborhood_complex(complete_graph(4))
        assert k.f_vector() == (4, 6, 4)

    def test_duplicate_neighborhoods_merge(self):
        # C8(1,3) is K44: each side shares one neighborhood, so the
        # complex is two disjoint solid tetrahedra.
        k = neighborhood_complex(circulant(8, (1, 3)))
        assert k.maximal_simplices == ((0, 2, 4, 6), (1, 3, 5, 7))

    def test_k44_minus_matching_gives_two_tetra_boundaries(self):
        k = neighborhood_complex(k44_minus_matching())
        comps = k.components()
        assert len(comps) == 2
        assert all(c.f_vector() == (4, 6, 4) for c in comps)

    def test_isolated_vertex_contributes_nothing(self):
        g = Graph(3, [(0, 1)])
        k = neighborhood_complex(g)
        assert set(k.vertices()) == {0, 1}

    def test_cycle_neighborhoods(self):
        # In a 6-cycle the neighborhoods {i-1, i+1} form two triangles
        # of edges, one per parity class.
        k = neighborhood_complex(circulant(6, (1,)))
        assert k.dim() == 1
        assert len(k.components()) == 2
        assert k.f_vector() == (6, 6)


def reference_maximal(simplices):
    """The quadratic antichain filter: each candidate, longest first,
    against every maximal simplex kept so far."""
    cleaned = sorted(
        {tuple(sorted(set(s))) for s in simplices if len(s) > 0},
        key=lambda s: (-len(s), s),
    )
    maximal = []
    for s in cleaned:
        ss = set(s)
        if not any(ss <= m for m in maximal):
            maximal.append(ss)
    return tuple(sorted(tuple(sorted(m)) for m in maximal))


def probes(family, rng):
    """Faces and non-faces to ask about: every generator, its proper
    faces, random vertex sets and the empty simplex."""
    out = [()]
    for s in family:
        out.append(s)
        out.extend(combinations(sorted(set(s)), max(len(set(s)) - 1, 0)))
    verts = sorted({v for s in family for v in s}) + [99]
    out.extend(rng.sample(verts, rng.randint(1, min(4, len(verts)))) for _ in range(10))
    return out


def reference_faces(maximal, d):
    """Sorted d-faces: every (d+1)-subset of every maximal simplex."""
    return tuple(sorted({f for m in maximal for f in combinations(m, d + 1)})) if d >= 0 else ()


def reference_cofaces(maximal, d):
    """(d-1)-face -> sorted d-faces through it, found by trying every
    vertex as the missing one."""
    if d < 1:
        return {}
    d_faces = {f for m in maximal for f in combinations(m, d + 1)}
    verts = {v for m in maximal for v in m}
    ridges = {r for f in d_faces for r in combinations(f, d)}
    return {
        r: sorted(f for v in verts - set(r) if (f := tuple(sorted(r + (v,)))) in d_faces)
        for r in ridges
    }


def check_against_references(family, rng, antichain=False):
    k = SimplicialComplex(family, antichain=antichain)
    maximal = reference_maximal(family)
    assert k.maximal_simplices == maximal
    top = max((len(m) for m in maximal), default=0) - 1
    assert k.dim() == top
    for d in range(-1, top + 2):
        assert k.faces(d) == reference_faces(maximal, d), d
        assert k.cofaces(d) == reference_cofaces(maximal, d), d
        assert k.cofaces(d) is k.cofaces(d)
    assert k.f_vector() == tuple(len(reference_faces(maximal, d)) for d in range(top + 1))
    assert k.vertices() == tuple(sorted({v for m in maximal for v in m}))
    for p in probes(family, rng):
        holders = [m for m in maximal if p and set(p) <= set(m)]
        assert sorted(k.maximal_cofaces(p)) == holders, p
        assert bool(k.maximal_cofaces(p)) == bool(holders), p
    for v in k.vertices():
        assert sorted(k.star(v)) == [m for m in maximal if v in m], v
    assert k.star(max(k.vertices(), default=0) + 1) == ()
    expected = reference_component_vertex_sets(maximal)
    assert [set(c.vertices()) for c in k.components()] == expected
    assert k.is_connected() == (len(expected) == 1)


class TestIncidenceIndexMatchesReferences:
    def test_random_families(self):
        rng = random.Random(0)
        for seed in range(500):
            check_against_references(random_family(seed), rng)

    def test_generator_covers_the_edge_cases(self):
        families = [random_family(seed) for seed in range(500)]
        flat = [s for f in families for s in f]
        assert any(len(s) == 0 for s in flat)
        assert any(len(set(s)) < len(s) for s in flat)
        assert any(list(s) != sorted(s) for s in flat)
        assert any(isinstance(s, list) for s in flat) and any(isinstance(s, tuple) for s in flat)
        assert any(
            len({frozenset(s) for s in f if s}) < sum(1 for s in f if s) for f in families
        )
        assert any(
            set(a) < set(b) for f in families for a in f for b in f if a
        )
        dims = [{len(m) for m in reference_maximal(f)} for f in families]
        assert any(len(d) > 1 for d in dims)
        assert any(len(reference_component_vertex_sets(reference_maximal(f))) > 1 for f in families)

    def test_pipeline_families(self, pipeline_inputs):
        rng = random.Random(1)
        for family, antichain in pipeline_inputs["families"]:
            check_against_references(family, rng, antichain)

    def test_pipeline_trusts_only_sorted_antichains(self, pipeline_inputs):
        trusted = [f for f, antichain in pipeline_inputs["families"] if antichain]
        assert trusted
        for family in trusted:
            assert all(isinstance(s, tuple) and list(s) == sorted(set(s)) for s in family)
            assert sorted(family) == list(reference_maximal(family))

    def test_empty_complex(self):
        k = SimplicialComplex([(), []])
        assert k.vertices() == ()
        assert not k.maximal_cofaces(())
        assert not k.maximal_cofaces((0,))
        assert k.components() == []
        assert not k.is_connected()


def random_antichain(seed):
    """Seeded antichain of sorted tuples in shuffled order: the maximal
    simplices of a random generating family."""
    rng = random.Random(seed)
    family = list(reference_maximal(random_family(seed)))
    rng.shuffle(family)
    return family


class TestTrustedAntichain:
    FAMILIES = [[], [(0,)], [(3, 5, 7), (0, 1), (1, 5), (2,)]] + [
        random_antichain(seed) for seed in range(300)
    ]

    def test_sample_covers_the_edge_cases(self):
        dims = [{len(s) for s in f} for f in self.FAMILIES]
        assert any(not d for d in dims)
        assert any(f == [(0,)] for f in self.FAMILIES)
        assert any(len(d) > 1 for d in dims)
        assert any(list(f) != sorted(f) for f in self.FAMILIES)

    def test_matches_the_filtering_constructor(self):
        for i, family in enumerate(self.FAMILIES):
            trusted = SimplicialComplex(family, antichain=True)
            k = SimplicialComplex(family)
            assert trusted == k and hash(trusted) == hash(k), i
            assert trusted.maximal_simplices == k.maximal_simplices, i
            assert trusted.dim() == k.dim(), i
            assert trusted.vertices() == k.vertices(), i
            for d in range(-1, k.dim() + 2):
                assert trusted.faces(d) == k.faces(d), (i, d)
                assert trusted.cofaces(d) == k.cofaces(d), (i, d)
            assert trusted.components() == k.components(), i
            for v in k.vertices():
                assert set(trusted.star(v)) == set(k.star(v)), (i, v)
