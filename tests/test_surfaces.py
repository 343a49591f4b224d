"""Surface recognition: pseudomanifolds, links, orientation, classification."""

import random
from collections import Counter
from itertools import combinations

import pytest
from conftest import RP2_TRIANGLES, TORUS_TRIANGLES, reference_component_vertex_sets

from nctopo.collapse import collapse_core
from nctopo.complexes import SimplicialComplex, neighborhood_complex
from nctopo.graphs import circulant
from nctopo.homology import homology
from nctopo.surfaces import (
    _orient,
    classify_surface,
    is_pseudomanifold,
    tetrahedron_boundary_pieces,
)


@pytest.fixture
def pinched_sphere():
    # Two tetrahedron boundaries sharing the vertex 0: a pseudomanifold
    # whose link at 0 is two disjoint cycles, hence not a surface.
    tris = list(combinations(range(4), 3))
    tris += [tuple(sorted(t)) for t in combinations([0, 4, 5, 6], 3)]
    return SimplicialComplex(tris)


@pytest.fixture
def two_spheres():
    tris = list(combinations(range(4), 3))
    tris += [tuple(sorted(t)) for t in combinations(range(4, 8), 3)]
    return SimplicialComplex(tris)


class TestPseudomanifold:
    def test_tetra_boundary(self, tetra_boundary):
        assert is_pseudomanifold(tetra_boundary)

    def test_fixture_surfaces(self, rp2, torus7):
        assert is_pseudomanifold(rp2)
        assert is_pseudomanifold(torus7)

    def test_single_triangle_has_boundary(self, solid_triangle):
        assert not is_pseudomanifold(solid_triangle)

    def test_branching_edge(self):
        k = SimplicialComplex([(0, 1, 2), (0, 1, 3), (0, 1, 4)])
        assert not is_pseudomanifold(k)

    def test_circle_is_a_1_pseudomanifold(self):
        k = SimplicialComplex([(0, 1), (1, 2), (0, 2)])
        assert is_pseudomanifold(k)

    def test_path_is_not(self):
        assert not is_pseudomanifold(SimplicialComplex([(0, 1), (1, 2)]))

    def test_non_pure_rejected(self):
        assert not is_pseudomanifold(SimplicialComplex([(0, 1, 2), (3, 4)]))

    def test_dimension_zero_rejected(self):
        assert not is_pseudomanifold(SimplicialComplex([(0,), (1,)]))

    def test_three_sphere_and_one_facet_removed(self):
        facets = list(combinations(range(5), 4))
        assert is_pseudomanifold(SimplicialComplex(facets))
        assert not is_pseudomanifold(SimplicialComplex(facets[1:]))


class TestClosedSurface:
    def test_positives(self, tetra_boundary, rp2, torus7):
        assert classify_surface(tetra_boundary).closed_surface
        assert classify_surface(rp2).closed_surface
        assert classify_surface(torus7).closed_surface

    def test_pinched_sphere_fails_on_link(self, pinched_sphere):
        assert is_pseudomanifold(pinched_sphere)
        assert not classify_surface(pinched_sphere).closed_surface

    def test_triangle_with_boundary_fails(self, solid_triangle):
        assert not classify_surface(solid_triangle).closed_surface

    def test_wrong_dimension(self):
        assert not classify_surface(SimplicialComplex([(0, 1), (1, 2), (0, 2)])).closed_surface


def _edge_sign(triangle, edge):
    # Sign of the edge in the boundary of the sorted triangle.
    for i in range(3):
        if triangle[:i] + triangle[i + 1 :] == edge:
            return -1 if i % 2 else 1
    raise ValueError(f"{edge} is not a facet of {triangle}")


class TestOrient:
    def _boundary_cancels(self, k, signs):
        # A compatible orientation makes every edge coefficient vanish.
        total = {}
        for tri, sgn in signs.items():
            for e in combinations(tri, 2):
                total[e] = total.get(e, 0) + sgn * _edge_sign(tri, e)
        return all(v == 0 for v in total.values())

    def test_tetra_boundary_orientable(self, tetra_boundary):
        signs = _orient(tetra_boundary)
        assert signs is not None
        assert set(signs.values()) <= {1, -1}
        assert self._boundary_cancels(tetra_boundary, signs)

    def test_torus_orientable(self, torus7):
        signs = _orient(torus7)
        assert signs is not None
        assert self._boundary_cancels(torus7, signs)

    def test_rp2_not_orientable(self, rp2):
        assert _orient(rp2) is None

    def test_disconnected_surface_orients_by_component(self, two_spheres):
        signs = _orient(two_spheres)
        assert signs is not None
        assert len(signs) == 8
        assert self._boundary_cancels(two_spheres, signs)


class TestClassifySurface:
    def test_sphere(self, tetra_boundary):
        r = classify_surface(tetra_boundary)
        assert r.classification == "sphere"
        assert r.orientable is True
        assert r.euler == 2
        assert r.closed_surface and r.connected and r.pseudomanifold

    def test_torus(self, torus7):
        r = classify_surface(torus7)
        assert r.classification == "orientable-genus-1"
        assert r.euler == 0

    def test_projective_plane(self, rp2):
        r = classify_surface(rp2)
        assert r.classification == "nonorientable-crosscap-1"
        assert r.orientable is False
        assert r.euler == 1

    def test_klein_bottle(self, klein):
        r = classify_surface(klein)
        assert r.classification == "nonorientable-crosscap-2"
        assert r.closed_surface and r.connected
        assert r.orientable is False
        assert r.euler == 0

    def test_pinched_sphere(self, pinched_sphere):
        r = classify_surface(pinched_sphere)
        assert r.classification == "not-a-surface"
        assert r.pseudomanifold
        assert not r.closed_surface
        assert r.euler == 3

    def test_disconnected_pair_of_spheres(self, two_spheres):
        r = classify_surface(two_spheres)
        assert r.classification == "not-a-surface"
        assert r.closed_surface
        assert not r.connected

    def test_one_dimensional_input(self):
        r = classify_surface(SimplicialComplex([(0, 1), (1, 2), (0, 2)]))
        assert r.classification == "not-a-surface"
        assert not r.pure2
        assert r.orientable is None

    def test_orientability_agrees_with_top_homology(self, rp2, torus7, tetra_boundary):
        # Independent cross-check: rank of H_2 equals 1 for a closed
        # connected orientable surface and 0 otherwise.
        for k in (rp2, torus7, tetra_boundary):
            r = classify_surface(k)
            assert (homology(k).betti_z[2] == 1) == r.orientable


class TestTetrahedronBoundaryPieces:
    def test_single_piece(self, tetra_boundary):
        assert tetrahedron_boundary_pieces(tetra_boundary) == [(0, 1, 2, 3)]

    def test_none_in_triangle(self, solid_triangle):
        assert tetrahedron_boundary_pieces(solid_triangle) == []

    def test_none_in_torus(self, torus7):
        assert tetrahedron_boundary_pieces(torus7) == []

    def test_solid_tetrahedron_counts(self):
        k = SimplicialComplex([(0, 1, 2, 3)])
        assert tetrahedron_boundary_pieces(k) == [(0, 1, 2, 3)]

    def test_garland_core_piece_count_matches_top_betti(self):
        k = neighborhood_complex(circulant(12, (2, 3)))
        core = collapse_core(k, strategy="circulant", circulant=(12, 2, 3)).core
        pieces = tetrahedron_boundary_pieces(core)
        assert len(pieces) == 6
        assert homology(core).betti_z == (1, 1, 6)
        # Pieces cover the triangles exactly, four apiece.
        covered = {t for q in pieces for t in combinations(q, 3)}
        assert covered == set(core.faces(2))
        assert 4 * len(pieces) == len(core.faces(2))


def reference_vertex_link(k, v):
    """Link by scanning every maximal simplex."""
    if v not in k.vertices():
        raise ValueError(f"{v} is not a vertex of the complex")
    gens = []
    for m in k.maximal_simplices:
        if v in m:
            rest = tuple(x for x in m if x != v)
            if rest:
                gens.append(rest)
    return SimplicialComplex(gens)


def reference_link_is_single_cycle(link):
    if link.dim() != 1 or not link.is_pure():
        return False
    degree = {}
    for e in link.maximal_simplices:
        for x in e:
            degree[x] = degree.get(x, 0) + 1
    if any(c != 2 for c in degree.values()):
        return False
    return len(reference_component_vertex_sets(link.maximal_simplices)) == 1


def reference_is_pure_2_pseudomanifold(k):
    """Every maximal simplex a triangle and every edge of one in exactly two,
    by counting the edges over all triangles; shares no code with surfaces."""
    tris = k.maximal_simplices
    if not tris or any(len(m) != 3 for m in tris):
        return False
    return all(c == 2 for c in Counter(e for m in tris for e in combinations(m, 2)).values())


def reference_is_closed_surface(k):
    """One link complex per vertex, each checked to be a single cycle."""
    if not reference_is_pure_2_pseudomanifold(k):
        return False
    return all(
        reference_link_is_single_cycle(reference_vertex_link(k, v)) for v in k.vertices()
    )


def reference_orient(k):
    """Orientation over a private edge map, with each sign found by
    _edge_sign; raises ValueError off pure-2 pseudomanifolds."""
    if not reference_is_pure_2_pseudomanifold(k):
        raise ValueError("not a pure-2 pseudomanifold")
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
                if other not in signs:
                    signs[other] = want
                    stack.append(other)
                elif signs[other] != want:
                    return None
    return signs


def outcome_of(fn, k):
    try:
        return fn(k)
    except ValueError:
        return "raises"


OCTAHEDRON = tuple(
    tuple(sorted((a, b, c))) for a in (0, 1) for b in (2, 3) for c in (4, 5)
)
SURFACES = (
    tuple(combinations(range(4), 3)),
    OCTAHEDRON,
    RP2_TRIANGLES,
    TORUS_TRIANGLES,
)


def random_two_complex(seed):
    """Seeded pure-2 family: one or two relabeled closed surfaces, apart or
    sharing one or two vertices, sometimes with a triangle removed; or
    random triangles on a few vertices."""
    rng = random.Random(seed)
    if rng.random() < 0.25:
        verts = rng.randint(4, 8)
        return [tuple(rng.sample(range(verts), 3)) for _ in range(rng.randint(1, 14))]
    pieces = rng.sample(SURFACES, rng.randint(1, 2))
    tris = []
    offset = 0
    for piece in pieces:
        size = 1 + max(v for t in piece for v in t)
        perm = list(range(size))
        rng.shuffle(perm)
        glue = rng.choice((0, 1, 2)) if tris else 0
        base = offset - glue
        tris += [tuple(base + perm[v] if perm[v] >= glue else perm[v] for v in t) for t in piece]
        offset = base + size
    if rng.random() < 0.2:
        tris.pop(rng.randrange(len(tris)))
    return tris


def check_surface_against_references(k):
    closed = reference_is_closed_surface(k)
    signs = outcome_of(reference_orient, k)
    r = classify_surface(k)
    assert r.connected == (len(reference_component_vertex_sets(k.maximal_simplices)) == 1)
    assert r.pseudomanifold == (signs != "raises")
    assert r.closed_surface == closed
    assert r.orientable == (None if signs == "raises" else signs is not None)
    if r.pseudomanifold:
        assert _orient(k) == signs


class TestStarBasedRecognitionMatchesReferences:
    def test_random_two_complexes(self):
        for seed in range(400):
            check_surface_against_references(SimplicialComplex(random_two_complex(seed)))

    def test_generator_covers_the_edge_cases(self):
        ks = [SimplicialComplex(random_two_complex(seed)) for seed in range(400)]
        closed = [reference_is_closed_surface(k) for k in ks]
        connected = [len(reference_component_vertex_sets(k.maximal_simplices)) == 1 for k in ks]
        pm = [classify_surface(k).pseudomanifold for k in ks]
        assert any(c and conn for c, conn in zip(closed, connected))
        assert any(c and not conn for c, conn in zip(closed, connected))
        # Pseudomanifolds with a pinched vertex, whose link is two cycles.
        assert any(p and not c for p, c in zip(pm, closed))
        assert any(not p for p in pm)
        # Orientable and non-orientable surfaces both occur.
        signs = [reference_orient(k) for k, c in zip(ks, closed) if c]
        assert any(x is None for x in signs)
        assert any(x is not None for x in signs)

    def test_pipeline_components(self, pipeline_inputs):
        ks = pipeline_inputs["surfaces"]
        assert any(reference_is_closed_surface(k) for k in ks)
        assert any(not reference_is_closed_surface(k) for k in ks)
        for k in ks:
            check_surface_against_references(k)
