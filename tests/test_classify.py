"""Case partition, predictions, per-instance verification, graph analysis."""

import dataclasses
import math
import random
from itertools import combinations

import pytest

from nctopo import classify
from nctopo.classify import (
    CASE_TAGS,
    PREDICTIONS,
    analyze_graph,
    case_of,
    predicted,
    reduce_to_core,
    special_params,
    verify,
)
from nctopo.cli import admissible_triples
from nctopo.complexes import SimplicialComplex, neighborhood_complex
from nctopo.graphs import (
    MAX_VERTEX_LABEL,
    Graph,
    circulant,
    connected_components,
    find_fold,
    fold_reduce,
    induced_subgraph,
    normalize_circulant_pair,
)
from nctopo.homology import HomologyProfile, homology
from nctopo.shelling import ShellingReport, wedge_shelling_orders
from nctopo.surfaces import classify_surface

from conftest import (
    KLEIN_TRIANGLES,
    RP2_TRIANGLES,
    TORUS_TRIANGLES,
    complete_graph,
    cycle_graph,
    incidence_graph,
    k44_minus_matching,
    reference_is_excluded,
)


class TestCaseOf:
    @pytest.mark.parametrize(
        "n,s,t,tag",
        [
            (8, 2, 4, "I1A"),
            (10, 2, 5, "I1A"),
            (8, 1, 3, "I1B"),
            (12, 1, 5, "I1B"),
            (10, 1, 3, "I2A"),
            (20, 2, 6, "I2A"),
            (12, 1, 3, "I2B"),
            (24, 2, 6, "I2B"),
            (9, 1, 3, "I2C"),
            (11, 1, 3, "I2C"),
            (20, 3, 5, "I3A"),
            (12, 3, 5, "I3B"),
            (18, 3, 5, "I3C"),
            (14, 3, 5, "I3C"),
            (11, 3, 5, "I3D"),
            (5, 1, 2, "I4A"),
            (10, 2, 4, "I4A"),
            (12, 2, 3, "I4B"),
            (16, 4, 5, "I4B"),
            (13, 2, 3, "I4C"),
            (15, 1, 4, "I4C"),
        ],
    )
    def test_partition(self, n, s, t, tag):
        assert case_of(n, s, t).tag == tag

    def test_normalization_applied(self):
        case = case_of(10, 9, 3)
        assert (case.n, case.s, case.t) == (10, 1, 3)
        assert case.tag == "I2A"

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            case_of(4, 1, 2)

    def test_degenerate_pair_rejected(self):
        with pytest.raises(ValueError):
            case_of(10, 3, 7)

    def test_witness_strings(self):
        assert case_of(8, 2, 4).witness in ("2s = n", "2t = n")
        # Both 3t-s and 3s+t hit n here; the witness lists every hit.
        assert case_of(10, 2, 4).witness == "3t-s = n, 3s+t = n"
        assert case_of(13, 2, 3).witness == "no congruence hits"

    def test_all_tags_known(self):
        for n in range(5, 26):
            for t in range(2, n // 2 + 1):
                for s in range(1, t):
                    try:
                        case = case_of(n, s, t)
                    except ValueError:
                        continue
                    assert case.tag in CASE_TAGS


class TestPredicted:
    def test_every_case_has_a_prediction(self):
        for tag in CASE_TAGS:
            assert PREDICTIONS[tag]

    def test_accepts_case_or_tag(self):
        case = case_of(10, 1, 3)
        assert predicted(case) == predicted("I2A") == "S3"


def nine_congruence_params(p, q):
    """Reference for special_params: each family member, normalized, is
    kept unless one of 2s, 2t, 2(s+t), 3s-t, 3t-s, 3s+t, 3t+s, 4s, 4t
    vanishes mod n = p*q."""
    n = p * q
    out = []
    for num_s, num_t in ((p - q, p + q), (p * p - q, p * p + q)):
        if num_s % 2 or num_t % 2 or n < 5:
            continue
        try:
            s, t = normalize_circulant_pair(n, (num_s // 2) % n, (num_t // 2) % n)
        except ValueError:
            continue
        nine = (2 * s, 2 * t, 2 * (s + t), 3 * s - t, 3 * t - s, 3 * s + t, 3 * t + s, 4 * s, 4 * t)
        if all(v % n for v in nine) and (n, s, t) not in out:
            out.append((n, s, t))
    return out


class TestSpecialParams:
    def test_matches_the_nine_congruence_screen(self):
        pairs = [(p, q) for p in range(2, 41) for q in range(1, p) if math.gcd(p, q) == 1]
        assert sum(1 for p, q in pairs if nine_congruence_params(p, q)) > 100
        for p, q in pairs:
            assert special_params(p, q) == nine_congruence_params(p, q), (p, q)

    def test_first_pair(self):
        assert special_params(5, 3) == [(15, 1, 4)]

    def test_both_families_can_coincide(self):
        assert special_params(7, 3) == [(21, 2, 5)]

    def test_both_families_can_differ(self):
        assert special_params(7, 5) == [(35, 1, 6), (35, 8, 13)]

    def test_parity_can_empty_the_list(self):
        # One even factor makes both numerators odd.
        assert special_params(8, 3) == []

    def test_screening_can_empty_the_list(self):
        assert special_params(5, 1) == []

    def test_coprimality_required(self):
        with pytest.raises(ValueError):
            special_params(6, 3)

    def test_positive_factors_required(self):
        with pytest.raises(ValueError):
            special_params(0, 3)
        with pytest.raises(ValueError):
            special_params(5, -1)

    @pytest.mark.parametrize("nst", special_params(5, 3) + special_params(7, 5))
    def test_members_verify_as_single_torus(self, nst):
        r = verify(*nst)
        assert r.verdict == "pass"
        assert len(r.components) == 1
        assert r.components[0].surface == "orientable-genus-1"
        assert r.components[0].betti_z == (1, 2, 1)


class TestVerify:
    def test_doubled_3_sphere(self):
        r = verify(10, 1, 3)
        assert r.case.tag == "I2A" and r.verdict == "pass"
        assert len(r.components) == 2
        for c in r.components:
            assert c.betti_z == (1, 0, 0, 1)
            assert c.torsion == ((), (), (), ())

    def test_doubled_sphere_wedge(self):
        r = verify(12, 1, 3)
        assert r.case.tag == "I2B" and r.verdict == "pass"
        assert [c.betti_z for c in r.components] == [(1, 0, 2), (1, 0, 2)]

    def test_collapses_to_points(self):
        r = verify(8, 1, 3)
        assert r.case.tag == "I1B" and r.verdict == "pass"
        assert all(c.f_vector == (1,) for c in r.components)

    def test_single_3_sphere(self):
        r = verify(5, 1, 2)
        assert r.case.tag == "I4A" and r.verdict == "pass"
        assert len(r.components) == 1
        assert r.components[0].betti_z == (1, 0, 0, 1)

    def test_torus(self):
        r = verify(15, 1, 4)
        assert r.case.tag == "I4C" and r.verdict == "pass"
        assert r.components[0].surface == "orientable-genus-1"
        assert r.components[0].euler == 0

    def test_torus_with_full_skeleton_core(self):
        r = verify(13, 2, 3)
        assert r.verdict == "pass"
        assert r.components[0].f_vector == (13, 39, 26)
        assert r.components[0].surface == "orientable-genus-1"

    def test_wedge_of_circles(self):
        r = verify(9, 1, 3)
        assert r.case.tag == "I2C" and r.verdict == "pass"
        for c in r.components:
            assert c.core_dim == 1
            assert c.betti_z[0] == 1

    def test_garland_pair(self):
        r = verify(20, 3, 5)
        assert r.case.tag == "I3A" and r.verdict == "pass"
        assert [c.betti_z for c in r.components] == [(1, 1, 5), (1, 1, 5)]

    def test_garland_single(self):
        r = verify(12, 2, 3)
        assert r.case.tag == "I4B" and r.verdict == "pass"
        assert r.components[0].betti_z == (1, 1, 6)

    def test_excluded_graph_grades_as_spheres(self):
        r = verify(8, 2, 4)
        assert r.case.tag == "I1A" and r.verdict == "pass"
        assert len(r.components) == 2
        for c in r.components:
            assert c.f_vector == (4, 6, 4)
            assert c.surface == "sphere"
        assert any("excluded degree-3" in note for note in r.notes)

    def test_shelled_wedge_family(self):
        r = verify(12, 3, 5)
        assert r.case.tag == "I3B" and r.verdict == "pass"
        assert [c.betti_z for c in r.components] == [(1, 0, 2), (1, 0, 2)]

    def test_parameters_normalized(self):
        a = verify(10, 9, 3)
        b = verify(10, 1, 3)
        assert (a.n, a.s, a.t) == (b.n, b.s, b.t) == (10, 1, 3)
        assert a.components == b.components

    def test_components_share_one_profile(self):
        r = verify(20, 2, 6)
        profiles = {(c.f_vector, c.betti_z, c.surface) for c in r.components}
        assert len(profiles) == 1

    def test_json_shape(self):
        obj = verify(10, 1, 3).to_json_obj()
        assert sorted(obj) == ["case", "components", "n", "prediction", "s", "t", "verdict"]
        comp = obj["components"][0]
        assert sorted(comp) == [
            "betti_z",
            "betti_z2",
            "core_dim",
            "euler",
            "f_vector",
            "surface",
            "torsion",
        ]
        assert obj["case"] == "I2A"
        assert isinstance(comp["betti_z"], list)

    @pytest.mark.parametrize("n,s,t", [(7, 1, 2), (16, 1, 3), (19, 2, 5), (21, 2, 5)])
    def test_more_instances_pass(self, n, s, t):
        assert verify(n, s, t).verdict == "pass"


class TestAnalyzeGraph:
    def test_complete_graph_gets_no_verdict(self):
        out = analyze_graph(complete_graph(4), name="K4")
        assert out["case"] is None
        assert out["prediction"] is None
        assert out["verdict"] is None
        assert len(out["components"]) == 1
        assert out["components"][0].surface == "sphere"

    def test_twisted_cube_gets_no_verdict(self):
        out = analyze_graph(k44_minus_matching())
        assert out["verdict"] is None
        assert [c.surface for c in out["components"]] == ["sphere", "sphere"]

    def test_path_collapses_to_point(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        out = analyze_graph(g, name="P4")
        assert out["case"] == "degenerate-3-regular"
        assert out["verdict"] == "pass"

    def test_odd_cycle_gives_one_circle(self):
        out = analyze_graph(cycle_graph(5))
        assert out["verdict"] == "pass"
        assert [c.betti_z for c in out["components"]] == [(1, 1)]

    def test_disconnected_graph_not_applicable(self):
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        out = analyze_graph(g)
        assert out["case"] is None
        assert out["verdict"] is None

    def test_high_degree_not_applicable(self):
        out = analyze_graph(complete_graph(5))
        assert out["case"] is None
        assert out["components"][0].betti_z == (1, 0, 0, 1)

    def test_cube_is_the_excluded_bipartite_graph(self):
        # Antipodal vertex pairs of the 3-cube form the removed matching,
        # so the cube is the 8-vertex exception and gets no verdict.
        edges = [
            (0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3),
            (2, 6), (3, 7), (4, 5), (4, 6), (5, 7), (6, 7),
        ]
        out = analyze_graph(Graph(8, edges), name="Q3")
        assert out["case"] is None
        assert out["verdict"] is None
        assert [c.betti_z for c in out["components"]] == [(1, 0, 1), (1, 0, 1)]

    def test_petersen_graph_applicable(self):
        edges = [(i, (i + 1) % 5) for i in range(5)]
        edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        edges += [(i, i + 5) for i in range(5)]
        edges = sorted(set(tuple(sorted(e)) for e in edges))
        out = analyze_graph(Graph(10, edges), name="petersen")
        assert out["case"] == "degenerate-3-regular"
        assert out["verdict"] == "pass"
        assert [c.betti_z for c in out["components"]] == [(1, 11)]


def relabelled(g, seed):
    perm = list(g.vertices())
    random.Random(seed).shuffle(perm)
    return Graph(g.num_vertices, [(perm[u], perm[v]) for u, v in g.edges()])


def random_cubic_graph(seed):
    """Seeded 3-regular simple graph on 8 vertices: random pairings of
    three half-edges per vertex, redrawn until no loop or double edge."""
    rng = random.Random(seed)
    while True:
        stubs = [v for v in range(8) for _ in range(3)]
        rng.shuffle(stubs)
        edges = {tuple(sorted(stubs[i : i + 2])) for i in range(0, 24, 2)}
        if len(edges) == 12 and all(u != v for u, v in edges):
            return Graph(8, sorted(edges))


def first_component(g):
    return induced_subgraph(g, connected_components(g)[0])


# Each family of graphs, with the set of verdicts it must show.
EXCLUSION_INPUTS = {
    "relabelled": (
        {True},
        lambda: [
            relabelled(h, seed)
            for h in (complete_graph(4), k44_minus_matching())
            for seed in range(20)
        ],
    ),
    "2K4": (
        {False},
        lambda: [
            circulant(8, (2, 4)),
            Graph(8, [(u, v) for u, v in combinations(range(8), 2) if (u < 4) == (v < 4)]),
        ],
    ),
    "cubic-8": ({True, False}, lambda: [random_cubic_graph(seed) for seed in range(40)]),
    "circulant-5..40": (
        {True, False},
        lambda: [first_component(circulant(n, (s, t))) for n, s, t in admissible_triples(5, 40)],
    ),
}


class TestIsExcluded:
    """classify._is_excluded, by degrees and a 2-colouring, against the
    brute-force isomorphism reference."""

    @pytest.mark.parametrize("family", list(EXCLUSION_INPUTS))
    def test_agrees_with_brute_force(self, family):
        seen, build = EXCLUSION_INPUTS[family]
        graphs = build()
        verdicts = [classify._is_excluded(g) for g in graphs]
        assert verdicts == [reference_is_excluded(g) for g in graphs]
        assert set(verdicts) == seen


CUBE_EDGES = [(u, u ^ bit) for u in range(8) for bit in (1, 2, 4) if u < u ^ bit]

KNOWN_COMPLEXES = {
    "RP2": RP2_TRIANGLES,
    "torus7": TORUS_TRIANGLES,
    "klein": KLEIN_TRIANGLES,
    "tetra-boundary": tuple(combinations(range(4), 3)),
    "4-simplex-boundary": tuple(combinations(range(5), 4)),
    "C5": tuple((i, (i + 1) % 5) for i in range(5)),
    "cube-1-skeleton": tuple(CUBE_EDGES),
}


class TestIncidenceGraphs:
    """Known answers: N(B(K)) of the vertex-facet graph B(K) is K plus the
    nerve of its maximal simplices, two components homotopy equivalent to K."""

    @pytest.mark.parametrize("name", list(KNOWN_COMPLEXES))
    def test_two_copies_of_k(self, name):
        k = SimplicialComplex(KNOWN_COMPLEXES[name])
        b = incidence_graph(k)
        assert find_fold(b) is None
        out = analyze_graph(b, name=name)
        h = homology(k)
        assert [(c.betti_z, c.torsion) for c in out["components"]] == [(h.betti_z, h.torsion)] * 2
        if k.dim() == 2:
            assert [c.surface for c in out["components"]] == [classify_surface(k).classification] * 2
        if name == "tetra-boundary":
            # B of the tetrahedron boundary is K_{4,4} minus a perfect
            # matching: maximum degree 3, but excluded.
            assert reference_is_excluded(b) and out["max_degree"] == 3
            assert (out["case"], out["verdict"]) == (None, None)
        elif name in ("C5", "cube-1-skeleton"):
            assert out["max_degree"] <= 3
            assert (out["case"], out["verdict"]) == ("degenerate-3-regular", "pass")
        else:
            assert out["max_degree"] > 3 and out["case"] is None


class TestReduceToCore:
    def test_fold_free_circulant_takes_the_schedule(self):
        g = circulant(15, (1, 4))
        assert find_fold(g) is None
        graph, k, trace = reduce_to_core(g, (15, 1, 4))
        assert graph is g
        assert k == neighborhood_complex(g)
        assert trace.strategy == "circulant"
        assert trace.schedule is not None

    def test_fold_instance_collapses_the_reduced_graph(self):
        g = circulant(8, (1, 3))
        assert find_fold(g) is not None
        graph, k, trace = reduce_to_core(g, (8, 1, 3))
        assert graph == fold_reduce(g)
        assert graph.num_vertices < g.num_vertices
        assert k == neighborhood_complex(graph)
        assert trace.strategy == "generic" and trace.schedule is None
        assert trace.replay(k) == trace.core

    def test_without_params_the_graph_is_fold_reduced(self):
        g = circulant(15, (1, 4))
        graph, k, trace = reduce_to_core(g)
        assert graph == fold_reduce(g)
        assert trace.strategy == "generic"

    @pytest.fixture
    def fold_searches(self, monkeypatch):
        calls = []
        real = classify.find_fold

        def counting(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(classify, "find_fold", counting)
        return calls

    def test_reduce_without_params_never_searches(self, fold_searches):
        reduce_to_core(circulant(15, (1, 4)))
        assert fold_searches == []

    def test_analyze_graph_never_searches(self, fold_searches):
        analyze_graph(cycle_graph(7))
        assert fold_searches == []

    @pytest.mark.parametrize("nst", [(15, 1, 4), (8, 1, 3)])
    def test_verify_searches_once(self, fold_searches, nst):
        verify(*nst)
        assert len(fold_searches) == 1


class TestFaceBound:
    """reduce_to_core refuses a graph whose complex may exceed the face cap."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Stop reduce_to_core where it would build the complex."""

        class Built(Exception):
            pass

        def stop(g, fold_free=False):
            raise Built

        monkeypatch.setattr(classify, "neighborhood_complex", stop)
        return Built

    def test_complete_graphs_on_both_sides_of_the_cap(self, built):
        assert 17 * (2**16 - 1) <= classify.MAX_COMPLEX_FACES < 18 * (2**17 - 1)
        with pytest.raises(built):
            reduce_to_core(complete_graph(17))
        with pytest.raises(ValueError, match="above the cap of 2097152"):
            reduce_to_core(complete_graph(18))

    def test_circulant_branch_is_checked(self, built):
        # K_18 is the circulant on every generator, and it has no fold.
        g = circulant(18, range(1, 10))
        assert g == complete_graph(18) and find_fold(g) is None
        with pytest.raises(ValueError, match="above the cap"):
            reduce_to_core(g, (18, 1, 2))

    def test_largest_circulant_is_admitted(self):
        n = MAX_VERTEX_LABEL + 1
        classify._check_face_bound(circulant(n, (1, 2)))
        assert 15 * n <= classify.MAX_COMPLEX_FACES

    def test_cap_applies_after_folds(self):
        # A star with 22 leaves: its centre's neighborhood alone has 2^22 - 1
        # subsets, but the leaves fold onto one and leave a single edge,
        # whose complex is two points.
        star = Graph(23, [(0, leaf) for leaf in range(1, 23)])
        with pytest.raises(ValueError, match="above the cap"):
            classify._check_face_bound(star)
        graph, _, trace = reduce_to_core(star)
        assert graph.num_vertices == 2
        assert trace.core.maximal_simplices == ((0,), (1,))
        assert analyze_graph(star)["verdict"] is None


def _genus2_surface():
    """Connected sum of two 7-vertex tori: both lose triangle (0, 1, 3)
    and are glued along its boundary; 11 vertices, chi = -2."""
    relabel = {0: 0, 1: 1, 3: 3, 2: 7, 4: 8, 5: 9, 6: 10}
    first = [tri for tri in TORUS_TRIANGLES if tri != (0, 1, 3)]
    second = [tuple(relabel[v] for v in tri) for tri in first]
    return SimplicialComplex(first + second)


def _graded(comp, shape):
    (report,) = classify._measure([comp], shape)
    return report.verdict, report.note


class TestRefusals:
    """Every refusal of the grader, one per note string.

    A component is graded through classify._measure, or through
    _check_component when the profile has to be built by hand because no
    real complex has it (torsion-free yet UCT-breaking, or torsion-free
    with a non-orientable surface report).
    """

    def test_torsion(self, rp2):
        assert _graded(rp2, "point-or-wedge-circles") == (
            "fail",
            "torsion ((), (2,), ()) contradicts every predicted shape",
        )

    def test_uct(self, tetra_boundary):
        h = HomologyProfile(betti_z=(1, 0, 1), torsion=((), (), ()), betti_z2=(1, 1, 1), euler=2)
        sr = classify_surface(tetra_boundary)
        assert classify._check_component("S2vS2", tetra_boundary, h, sr) == (
            "fail",
            "mod-2 Betti numbers disagree with the integral ones",
        )

    @pytest.mark.parametrize("shape", ["point-or-wedge-circles", "point-or-S1"])
    def test_homology_point_is_notable(self, solid_triangle, shape):
        assert _graded(solid_triangle, shape) == (
            "notable",
            "homology-trivial core that did not collapse to a vertex",
        )

    @pytest.mark.parametrize(
        "shape, note",
        [
            ("point-or-wedge-circles", "core is neither a vertex nor 1-dimensional"),
            ("point-or-S1", "core is neither a vertex nor a single circle"),
            ("wedge-circles", "core is not a torsion-free 1-dimensional complex"),
            ("S1-or-S3", "component is neither a circle core nor a homology 3-sphere profile"),
            ("S3", "betti (1, 0, 1) differs from (1, 0, 0, 1)"),
            ("S2vS2", "betti (1, 0, 1) differs from (1, 0, 2)"),
            ("garland-of-S2", "betti (1, 0, 1) differs from (1, 1, 1) for 1 pieces"),
            ("connected-sum-tori", "surface is a sphere, expected genus at least 1"),
        ],
    )
    def test_tetrahedron_boundary(self, tetra_boundary, shape, note):
        assert _graded(tetra_boundary, shape) == ("fail", note)

    def test_circle_passes_the_circle_shapes_only(self):
        circle = SimplicialComplex([(0, 1), (1, 2), (0, 2)])
        for shape in ("point-or-wedge-circles", "point-or-S1", "wedge-circles", "S1-or-S3"):
            assert _graded(circle, shape) == ("pass", "")
        assert _graded(circle, "garland-of-S2") == ("fail", "core is not 2-dimensional")

    def test_tetra_sphere(self, solid_triangle, tetra_boundary):
        assert _graded(tetra_boundary, "tetra-sphere") == ("pass", "")
        assert _graded(solid_triangle, "tetra-sphere") == (
            "fail",
            "component is not a tetrahedron boundary sphere",
        )

    def test_octahedron_is_not_a_tetra_sphere(self):
        """A 2-sphere with the right Betti numbers and surface report that
        is not the boundary of a tetrahedron."""
        octahedron = SimplicialComplex(
            [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]
        )
        assert classify_surface(octahedron).classification == "sphere"
        assert _graded(octahedron, "tetra-sphere") == (
            "fail",
            "component is not a tetrahedron boundary sphere",
        )

    def test_garland_without_pieces(self, solid_triangle):
        assert _graded(solid_triangle, "garland-of-S2") == (
            "fail",
            "no tetrahedron-boundary pieces found",
        )

    def test_garland_betti(self, tetra_boundary):
        shifted = [tuple(v + 3 for v in tri) for tri in tetra_boundary.maximal_simplices]
        pair = SimplicialComplex(list(tetra_boundary.maximal_simplices) + shifted)
        assert pair.vertices() == tuple(range(7))
        assert _graded(pair, "garland-of-S2") == (
            "fail",
            "betti (1, 0, 2) differs from (1, 1, 2) for 2 pieces",
        )

    def test_garland_with_a_stray_triangle(self, tetra_boundary):
        loop = [(3, 4), (4, 5), (3, 5)]
        one = SimplicialComplex(list(tetra_boundary.maximal_simplices) + loop)
        assert _graded(one, "garland-of-S2") == ("pass", "")
        stray = SimplicialComplex(list(one.maximal_simplices) + [(0, 1, 6)])
        assert _graded(stray, "garland-of-S2") == (
            "fail",
            "triangles are not exactly the garland piece boundaries",
        )

    def test_not_a_closed_surface(self, solid_triangle):
        assert _graded(solid_triangle, "connected-sum-tori") == (
            "fail",
            "component is not a closed surface",
        )

    def test_non_orientable(self, klein):
        h = HomologyProfile(betti_z=(1, 1, 0), torsion=((), (), ()), betti_z2=(1, 1, 0), euler=0)
        sr = classify_surface(klein)
        assert classify._check_component("connected-sum-tori", klein, h, sr) == (
            "fail",
            "surface is non-orientable",
        )

    def test_genus_against_betti(self, torus7):
        h = HomologyProfile(betti_z=(1, 0, 1), torsion=((), (), ()), betti_z2=(1, 0, 1), euler=0)
        sr = classify_surface(torus7)
        assert classify._check_component("connected-sum-tori", torus7, h, sr) == (
            "fail",
            "betti (1, 0, 1) inconsistent with genus 1",
        )

    def test_torus_passes(self, torus7):
        assert _graded(torus7, "connected-sum-tori") == ("pass", "")

    def test_genus_two_is_notable(self):
        surface = _genus2_surface()
        assert classify_surface(surface).classification == "orientable-genus-2"
        assert _graded(surface, "connected-sum-tori") == (
            "notable",
            "genus 2 exceeds the expected genus 1",
        )

    def test_unknown_shape(self, tetra_boundary):
        with pytest.raises(ValueError, match="unknown predicted shape"):
            _graded(tetra_boundary, "klein-bottle")


class TestCertificateRefusals:
    """Shelling refusals on the I2B instance (12, 1, 3), and the check that
    the components of one instance agree, reached by replacing the
    certificate source and the surface recognizer."""

    NST = (12, 1, 3)

    def _verify_with(self, monkeypatch, certs):
        monkeypatch.setattr(classify, "wedge_shelling_orders", lambda n, s, t: certs)
        return verify(*self.NST)

    def _assert_refused(self, r, note):
        assert r.verdict == "fail"
        assert [c.verdict for c in r.components] == ["fail", "fail"]
        assert [c.note for c in r.components] == [note, note]
        assert r.notes == (note, note)

    def test_order_count(self, monkeypatch):
        r = self._verify_with(monkeypatch, wedge_shelling_orders(*self.NST)[:1])
        self._assert_refused(r, "1 shelling orders for 2 components")

    def test_no_matching_order(self, monkeypatch):
        certs = wedge_shelling_orders(*self.NST)
        r = self._verify_with(monkeypatch, [certs[0], certs[0]])
        assert sorted((c.verdict, c.note) for c in r.components) == [
            ("fail", "component does not match any canonical shelling order"),
            ("pass", ""),
        ]
        assert r.notes == ("component does not match any canonical shelling order",)
        assert r.verdict == "fail"

    def test_order_is_not_a_shelling(self, monkeypatch):
        certs = []
        for order, spanning in wedge_shelling_orders(*self.NST):
            j = next(j for j, f in enumerate(order) if not set(f) & set(order[0]))
            order = [order[0], order[j]] + [f for i, f in enumerate(order) if i not in (0, j)]
            certs.append((order, spanning))
        r = self._verify_with(monkeypatch, certs)
        self._assert_refused(r, "canonical order is not a shelling of the component")

    def test_wrong_spanning(self, monkeypatch):
        certs = [(order, order[:2]) for order, _ in wedge_shelling_orders(*self.NST)]
        r = self._verify_with(monkeypatch, certs)
        self._assert_refused(r, "spanning simplices differ from the canonical pair")

    def test_wrong_sphere_dimensions(self, monkeypatch):
        real = classify.verify_shelling

        def one_sphere(k, order):
            report = real(k, order)
            return ShellingReport(report.order, report.valid, report.spanning, (2,))

        monkeypatch.setattr(classify, "verify_shelling", one_sphere)
        r = verify(*self.NST)
        self._assert_refused(r, "shelling gives spheres (2,), expected (2, 2)")

    def test_components_disagree(self, monkeypatch):
        real = classify.classify_surface
        seen = []

        def second_differs(k):
            seen.append(k)
            report = real(k)
            if len(seen) == 2:
                report = dataclasses.replace(report, classification="moved")
            return report

        monkeypatch.setattr(classify, "classify_surface", second_differs)
        r = verify(10, 1, 5)
        assert len(r.components) == 2
        assert [c.verdict for c in r.components] == ["pass", "pass"]
        assert r.verdict == "fail"
        assert r.notes == ("components disagree, breaking the homeomorphic-components invariant",)
