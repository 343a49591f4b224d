"""Case partition, predictions, per-instance verification, graph analysis."""

import math
import random
from collections import Counter
from itertools import combinations

import pytest

from nctopo import classify
from nctopo.classify import (
    CASE_TAGS,
    PREDICTIONS,
    analyze_graph,
    case_of,
    reduce_to_core,
    special_params,
    verify,
)
from nctopo.cli import admissible_triples
from nctopo.collapse import CollapseTrace, apply_pairs, collapse_core
from nctopo.complexes import SimplicialComplex, neighborhood_complex
from nctopo.graphs import (
    MAX_VERTEX_LABEL,
    Graph,
    circulant,
    find_fold,
    fold_reduce,
    normalize_circulant_pair,
)
from nctopo.homology import HomologyProfile, homology
from nctopo.shelling import wedge_shelling_orders
from nctopo.surfaces import classify_surface

from conftest import (
    KLEIN_TRIANGLES,
    RP2_TRIANGLES,
    TORUS_TRIANGLES,
    boundary_of_simplex,
    complete_graph,
    cycle_graph,
    dunce_hat,
    incidence_graph,
    k44_minus_matching,
    multiplier_orbit,
    reference_is_excluded,
    sweep_reports,
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

    def test_verify_reads_its_case_tag(self):
        case = case_of(10, 1, 3)
        assert verify(10, 1, 3).prediction == PREDICTIONS[case.tag] == PREDICTIONS["I2A"] == "S3"


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

    @pytest.mark.parametrize(
        "nst, core, shape, note",
        [
            (
                (5, 1, 2),
                [(0, 1), (1, 2), (0, 2)],
                "graded as S^3, the boundary of a 4-simplex: the graph components are K_5",
                "betti (1, 1) differs from (1, 0, 0, 1)",
            ),
            (
                (7, 1, 2),
                list(combinations(range(5), 4)),
                "graded as one circle, betti (1, 1)",
                "betti (1, 0, 0, 1) differs from (1, 1)",
            ),
        ],
        ids=["K5-type-given-a-circle", "circle-type-given-S3"],
    )
    def test_i4a_grades_the_shape_of_its_type(self, monkeypatch, nst, core, shape, note):
        """I4A is S^3 for (5k, k, 2k) and one circle otherwise, never either;
        a note names the shape graded against."""
        stub = CollapseTrace((), SimplicialComplex(core), "stub")
        monkeypatch.setattr(classify, "collapse_core", lambda k, **kw: stub)
        r = verify(*nst)
        assert (r.case.tag, r.prediction) == ("I4A", "S1-or-S3")
        assert (r.verdict, r.notes) == ("fail", (shape, note))

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

    @pytest.mark.parametrize("nst", [(12, 1, 3), (8, 2, 4)])
    def test_one_measurement_per_instance(self, monkeypatch, nst):
        calls = []
        for name in ("homology", "classify_surface"):
            real = getattr(classify, name)
            monkeypatch.setattr(
                classify, name, lambda k, real=real, name=name: calls.append(name) or real(k)
            )
        r = verify(*nst)
        assert len(r.components) == 2 and r.verdict == "pass"
        assert sorted(calls) == ["classify_surface", "homology"]

    def test_every_component_measured_on_its_own(self):
        """Independent of the rotation test: over n = 5..40, each component
        of every instance with more than one core component, measured
        directly, gives the row verify reports for it."""
        checked = 0
        for n, s, t in admissible_triples(5, 40):
            _, _, trace = reduce_to_core(circulant(n, (s, t)), (n, s, t))
            comps = trace.core.components()
            if len(comps) == 1:
                continue
            r = verify(n, s, t)
            for comp, c in zip(comps, r.components, strict=True):
                h = homology(comp)
                measured = (h.betti_z, h.torsion, h.betti_z2, h.euler)
                assert (c.betti_z, c.torsion, c.betti_z2, c.euler) == measured
                assert (c.f_vector, c.core_dim) == (comp.f_vector(), comp.dim())
                assert c.surface == classify_surface(comp)
            checked += 1
        assert checked == 685

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


def first_component(n, s, t):
    """The component of 0 in C_n(s, t), relabelled in sorted order: the
    multiples of d = gcd(n, s, t), which C_{n/d}(s/d, t/d) relabels by /d."""
    d = math.gcd(n, s, t)
    return circulant(n // d, (s // d, t // d))


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
        lambda: [first_component(*nst) for nst in admissible_triples(5, 40)],
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


class TestGradingShape:
    """verify picks the I1A and I4A grading shapes by arithmetic alone."""

    def test_arithmetic_matches_the_component_graph(self):
        k4, k5 = Counter(), Counter()
        for n, s, t in admissible_triples(5, 200):
            tag = case_of(n, s, t).tag
            if tag == "I1A":
                k4[n == 4 * s, reference_is_excluded(first_component(n, s, t))] += 1
            elif tag == "I4A":
                k5[(n, t) == (5 * s, 2 * s), first_component(n, s, t) == complete_graph(5)] += 1
        assert set(k4) == set(k5) == {(True, True), (False, False)}
        assert (k4[True, True], k5[True, True]) == (49, 40)


# Each orbit's set of case tags: the case partition agrees with itself
# across isomorphisms, except that I4A shares orbits with wedge cases.
ORBIT_TAG_CLASSES = {
    frozenset(tags.split())
    for tags in (
        "I4C", "I3D I4C", "I1A", "I1B", "I4B", "I3A I4B", "I2A", "I2B I3B",
        "I4A", "I2C I4A", "I2C I3C I4A",
    )
}


class TestMultiplierOrbits:
    """Multiplier orbits (Ádám 1967): members are isomorphic circulants."""

    def test_case_tags_of_each_orbit(self):
        orbits = {multiplier_orbit(*nst) for nst in admissible_triples(5, 60)}
        classes = {frozenset(case_of(*m).tag for m in orbit) for orbit in orbits}
        assert classes == ORBIT_TAG_CLASSES

    def test_homology_agrees_across_each_orbit(self):
        reports = sweep_reports()
        orbits = {multiplier_orbit(*nst) for nst in reports}
        for orbit in orbits:
            profiles = {
                tuple((c.betti_z, c.torsion) for c in reports[m].components) for m in orbit
            }
            assert len(profiles) == 1, sorted(orbit)
        assert (len(orbits), sum(len(o) > 1 for o in orbits)) == (445, 392)


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


def random_pure_2_complex(seed):
    """Seeded connected complex of 6..20 random triangles on 6..10 vertices."""
    rng = random.Random(seed)
    verts = rng.randint(6, 10)
    while True:
        k = SimplicialComplex(
            {tuple(sorted(rng.sample(range(verts), 3))) for _ in range(rng.randint(6, 20))}
        )
        if k.is_connected():
            return k


def assert_two_copies(k):
    """Both components of N(B(K)) carry homology(K)'s Betti numbers and
    torsion, padded with zeros to one length.  B(K) may fold, which keeps
    the homotopy type."""
    h = homology(k)
    comps = analyze_graph(incidence_graph(k))["components"]
    top = max(len(h.betti_z), *(len(c.betti_z) for c in comps))

    def padded(p):
        pad = top - len(p.betti_z)
        return p.betti_z + (0,) * pad, p.torsion + ((),) * pad

    assert [padded(c) for c in comps] == [padded(h)] * 2


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
            assert [c.surface for c in out["components"]] == [classify_surface(k)] * 2
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

    def test_dunce_hat(self):
        k = dunce_hat()
        assert k.f_vector() == (13, 39, 27) and k.is_pure()
        # No free edge, so nothing collapses, and yet K is acyclic.
        edges = Counter(e for m in k.maximal_simplices for e in combinations(m, 2))
        assert min(edges.values()) >= 2
        assert collapse_core(k).core == k
        h = homology(k)
        assert (h.betti_z, h.torsion) == ((1, 0, 0), ((), (), ()))
        assert_two_copies(k)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_pure_2_complexes(self, seed):
        k = random_pure_2_complex(seed)
        assert k.is_pure() and k.dim() == 2 and k.is_connected()
        assert_two_copies(k)


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
        assert SimplicialComplex(apply_pairs(k, trace.pairs), antichain=True) == trace.core

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
    report = classify._measure(comp, shape)
    return report.verdict, report.note


class TestRefusals:
    """Every refusal of the grader, one per note string.

    A component is graded through classify._measure, or through
    _check_component when the profile has to be built by hand because no
    real complex has it (torsion-free yet UCT-breaking, or torsion-free
    with a non-orientable surface classification).
    """

    def test_torsion(self, rp2):
        assert _graded(rp2, "point-or-wedge-circles") == (
            "fail",
            "torsion ((), (2,), ()) contradicts every predicted shape",
        )

    def test_uct(self, tetra_boundary):
        h = HomologyProfile(betti_z=(1, 0, 1), torsion=((), (), ()), betti_z2=(1, 1, 1), euler=2)
        surface = classify_surface(tetra_boundary)
        assert classify._check_component("S2vS2", tetra_boundary, h, surface) == (
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
            ("S1", "betti (1, 0, 1) differs from (1, 1)"),
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
        for shape in ("point-or-wedge-circles", "point-or-S1", "wedge-circles", "S1"):
            assert _graded(circle, shape) == ("pass", "")
        assert _graded(circle, "S3") == ("fail", "betti (1, 1) differs from (1, 0, 0, 1)")
        assert _graded(circle, "garland-of-S2") == ("fail", "core is not 2-dimensional")

    def test_tetra_sphere(self, solid_triangle, tetra_boundary):
        assert _graded(tetra_boundary, "tetra-sphere") == ("pass", "")
        assert _graded(solid_triangle, "tetra-sphere") == (
            "fail",
            "component is not a tetrahedron boundary sphere",
        )

    def test_three_sphere_is_the_boundary_of_a_4_simplex(self):
        """The boundary of the 4-dimensional cross-polytope has the Betti
        numbers of S^3 but is not the boundary of a 4-simplex."""
        simplex = boundary_of_simplex(range(5))
        cross = SimplicialComplex(
            [(a, b, c, d) for a in (0, 1) for b in (2, 3) for c in (4, 5) for d in (6, 7)]
        )
        assert cross.f_vector() == (8, 24, 32, 16)
        assert homology(cross).betti_z == (1, 0, 0, 1)
        assert _graded(simplex, "S3") == ("pass", "")
        assert _graded(cross, "S3") == (
            "notable",
            "homology 3-sphere core that is not the boundary of a 4-simplex",
        )
        for k in (simplex, cross):
            assert _graded(k, "S1") == ("fail", "betti (1, 0, 0, 1) differs from (1, 1)")

    def test_octahedron_is_not_a_tetra_sphere(self):
        """A 2-sphere with the right Betti numbers and surface classification
        that is not the boundary of a tetrahedron."""
        octahedron = SimplicialComplex(
            [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]
        )
        assert classify_surface(octahedron) == "sphere"
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
        surface = classify_surface(klein)
        assert classify._check_component("connected-sum-tori", klein, h, surface) == (
            "fail",
            "surface is non-orientable",
        )

    def test_genus_against_betti(self, torus7):
        h = HomologyProfile(betti_z=(1, 0, 1), torsion=((), (), ()), betti_z2=(1, 0, 1), euler=0)
        surface = classify_surface(torus7)
        assert classify._check_component("connected-sum-tori", torus7, h, surface) == (
            "fail",
            "betti (1, 0, 1) inconsistent with genus 1",
        )

    def test_torus_passes(self, torus7):
        assert _graded(torus7, "connected-sum-tori") == ("pass", "")

    def test_genus_two_is_notable(self):
        surface = _genus2_surface()
        assert classify_surface(surface) == "orientable-genus-2"
        assert _graded(surface, "connected-sum-tori") == (
            "notable",
            "genus 2 exceeds the expected genus 1",
        )

    def test_unknown_shape(self, tetra_boundary):
        with pytest.raises(ValueError, match="unknown predicted shape"):
            _graded(tetra_boundary, "klein-bottle")


class TestCertificateRefusals:
    """Shelling refusals on the I2B instance (12, 1, 3), and the check that
    every component is a rotation of the first, reached by replacing the
    certificate source and the collapsed core."""

    NST = (12, 1, 3)

    def _verify_with(self, monkeypatch, certs):
        monkeypatch.setattr(classify, "wedge_shelling_orders", lambda n, s, t: certs)
        return verify(*self.NST)

    def _assert_refused(self, r, note):
        assert r.verdict == "fail"
        assert [c.verdict for c in r.components] == ["fail", "fail"]
        assert [c.note for c in r.components] == [note, note]
        assert r.notes == (note,)

    def test_order_count(self, monkeypatch):
        r = self._verify_with(monkeypatch, wedge_shelling_orders(*self.NST)[:1])
        self._assert_refused(r, "1 shelling orders for 2 components")

    def test_no_matching_order(self, monkeypatch):
        certs = wedge_shelling_orders(*self.NST)
        r = self._verify_with(monkeypatch, [certs[0], certs[0]])
        self._assert_refused(r, "component does not match any canonical shelling order")

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

    def test_components_disagree(self, monkeypatch):
        # 3-cycles on {0, 1, 2} and {3, 5, 7} are isomorphic, but the
        # second is not the first shifted by 3 - 0.
        real = classify.reduce_to_core

        def two_triangles(g, params=None):
            graph, k, trace = real(g, params)
            core = SimplicialComplex(
                list(combinations((0, 1, 2), 2)) + list(combinations((3, 5, 7), 2))
            )
            return graph, k, trace._replace(core=core)

        monkeypatch.setattr(classify, "reduce_to_core", two_triangles)
        r = verify(10, 1, 5)
        assert [(c.betti_z, c.verdict) for c in r.components] == [((1, 1), "pass")] * 2
        assert r.verdict == "fail"
        assert r.notes == ("component 1 is not component 0 rotated by 3",)
