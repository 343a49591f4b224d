"""Acceptance gate: ten criteria, one pass/fail line each.

Each test prints its criterion line after the asserts succeed, so a
verbose run reads as a checklist.  Timings are wall-clock budgets from
the contract: one second per single instance, two minutes for the sweep,
one minute for the bounded-degree property suite.
"""

import random
import time
from functools import lru_cache
from itertools import combinations

from nctopo.classify import analyze_graph, verify
from nctopo.collapse import _edge_congruences, apply_pairs, circulant_schedule, collapse_core
from nctopo.complexes import SimplicialComplex, neighborhood_complex
from nctopo.graphs import Graph, circulant, fold_reduce, is_connected, normalize_circulant_pair
from nctopo.homology import homology, uct_check
from nctopo.shelling import verify_shelling, wedge_shelling_orders
from nctopo.surfaces import tetrahedron_boundary_pieces

from conftest import (
    RP2_TRIANGLES,
    TORUS_TRIANGLES,
    paper_edge_pairs,
    reference_replay,
    sweep_reports,
)


def announce(num, detail):
    print(f"criterion {num}: PASS - {detail}")


def padded(h, dim):
    pad = dim + 1 - len(h.betti_z)
    return (
        h.betti_z + (0,) * pad,
        h.torsion + ((),) * pad,
        h.betti_z2 + (0,) * pad,
    )


def timed(budget):
    start = time.perf_counter()

    def check():
        elapsed = time.perf_counter() - start
        assert elapsed < budget, f"took {elapsed:.2f}s, budget {budget}s"
        return elapsed

    return check


def test_criterion_01_doubled_3_sphere():
    done = timed(1.0)
    r = verify(10, 1, 3)
    assert r.verdict == "pass"
    assert len(r.components) == 2
    for c in r.components:
        assert c.betti_z == (1, 0, 0, 1)
        assert all(not tor for tor in c.torsion)
    done()
    announce(1, "C_10(1,3) gives two components with Betti (1,0,0,1), torsion-free")


def test_criterion_02_doubled_sphere_wedge_with_shelling():
    done = timed(1.0)
    r = verify(12, 1, 3)
    assert r.verdict == "pass"
    assert len(r.components) == 2
    for c in r.components:
        assert c.betti_z == (1, 0, 2)
        assert all(not tor for tor in c.torsion)
    core = collapse_core(
        neighborhood_complex(circulant(12, (1, 3))), strategy="circulant", circulant=(12, 1, 3)
    ).core
    comps = core.components()
    claims = wedge_shelling_orders(12, 1, 3)
    assert len(claims) == len(comps) == 2
    for order, spanning in claims:
        match = [c for c in comps if set(c.maximal_simplices) == set(order)]
        assert len(match) == 1
        found = verify_shelling(match[0], order)
        assert found is not None
        assert sorted(found) == sorted(spanning)
        assert len(found) == 2
    done()
    announce(2, "C_12(1,3) gives two S2-wedge components; canonical shelling accepted "
                "with exactly the two spanning triangles per component")


def test_criterion_03_collapses_to_vertices():
    done = timed(1.0)
    r = verify(8, 1, 3)
    assert r.verdict == "pass"
    assert len(r.components) == 2
    assert all(c.f_vector == (1,) for c in r.components)
    done()
    announce(3, "C_8(1,3) gives two components, each collapsing to a single vertex")


def test_criterion_04_single_3_sphere():
    done = timed(1.0)
    r = verify(5, 1, 2)
    assert r.verdict == "pass"
    assert len(r.components) == 1
    assert r.components[0].betti_z == (1, 0, 0, 1)
    done()
    announce(4, "C_5(1,2) gives one component with Betti (1,0,0,1)")


def test_criterion_05_torus_from_coprime_factors():
    done = timed(1.0)
    r = verify(15, 1, 4)
    assert r.verdict == "pass"
    assert len(r.components) == 1
    c = r.components[0]
    assert c.surface == "orientable-genus-1"
    assert c.euler == 0
    assert c.betti_z == (1, 2, 1)
    done()
    announce(5, "C_15(1,4) is one closed orientable genus-1 component, chi=0, Betti (1,2,1)")


def test_criterion_06_torus_with_full_core():
    done = timed(1.0)
    r = verify(13, 2, 3)
    assert r.verdict == "pass"
    for c in r.components:
        assert c.surface == "orientable-genus-1"
        assert c.euler == 0
        assert c.betti_z == (1, 2, 1)
        assert c.f_vector == (13, 39, 26)
    done()
    announce(6, "C_13(2,3) components are closed orientable chi=0 tori on a (13,39,26) core")


def test_criterion_07_wedge_of_circles_structure():
    done = timed(1.0)
    r = verify(9, 1, 3)
    assert r.verdict == "pass"
    for c in r.components:
        assert c.core_dim == 1
        assert len(c.betti_z) == 2
        b1 = c.betti_z[1]
        assert b1 >= 1
        f0, f1 = c.f_vector
        assert b1 == f1 - f0 + 1
    done()
    announce(7, "C_9(1,3) components have 1-dimensional cores with Betti (1,b1), "
                "b1 = f1 - f0 + 1 >= 1")


def test_criterion_08_garlands():
    done = timed(1.0)
    for n, s, t in ((20, 3, 5), (12, 2, 3)):
        r = verify(n, s, t)
        assert r.verdict == "pass"
        k = neighborhood_complex(circulant(n, (s, t)))
        core = collapse_core(k, strategy="circulant", circulant=(n, s, t)).core
        comps = core.components()
        assert len(comps) == len(r.components)
        for c, comp in zip(r.components, comps):
            m = c.betti_z[2]
            assert m >= 1
            assert c.betti_z == (1, 1, m)
            assert all(not tor for tor in c.torsion)
            assert len(tetrahedron_boundary_pieces(comp)) == m
    done()
    announce(8, "C_20(3,5) and C_12(2,3) components have Betti (1,1,m) with m equal "
                "to the tetrahedron-boundary piece count")


def test_criterion_09_full_sweep():
    sweep_reports.cache_clear()
    done = timed(120.0)
    failures = []
    for nst, r in sweep_reports().items():
        if r.verdict != "pass":
            failures.append((nst, r.verdict))
            continue
        if any(tor for c in r.components for tor in c.torsion):
            failures.append((nst, "torsion"))
    assert failures == []
    elapsed = done()
    announce(9, f"all admissible instances for n in [5,40] pass with zero torsion; "
                f"verify's rotation test checks that their components are identical "
                f"({elapsed:.1f}s)")


@lru_cache(maxsize=1)
def invariance_run():
    """200 seeded instances; returns the list of every profile computed."""
    rng = random.Random(20260822)
    profiles = []
    # 120 random complexes for stepwise collapse invariance.
    for _ in range(120):
        gens = [
            tuple(sorted(rng.sample(range(8), rng.randint(1, 4))))
            for _ in range(rng.randint(1, 12))
        ]
        k = SimplicialComplex(gens)
        tr = collapse_core(k)
        states = reference_replay(k, tr.pairs)
        assert states[-1] == tr.core
        hs = [homology(state) for state in states]
        dim = max(state.dim() for state in states)
        first = padded(hs[0], dim)
        for h in hs[1:]:
            assert padded(h, dim) == first
        profiles.extend(hs)
    # 80 random circulants for fold invariance.
    for _ in range(80):
        n = rng.randint(5, 14)
        t = rng.randint(2, n // 2)
        s = rng.randint(1, max(1, t - 1))
        try:
            s, t = normalize_circulant_pair(n, s, t)
        except ValueError:
            continue
        g = circulant(n, (s, t))
        ka = neighborhood_complex(g)
        kb = neighborhood_complex(fold_reduce(g))
        ha, hb = homology(ka), homology(kb)
        dim = max(ka.dim(), kb.dim())
        assert padded(ha, dim) == padded(hb, dim)
        profiles.extend([ha, hb])
    return profiles


def test_criterion_10a_invariance_suite():
    profiles = invariance_run()
    assert len(profiles) > 200
    announce(10, "(a) homology invariant under fold_reduce and under every collapse "
                 "step across 200 seeded instances")


def test_criterion_10b_uct_everywhere():
    profiles = list(invariance_run())
    profiles.append(homology(SimplicialComplex(RP2_TRIANGLES)))
    profiles.append(homology(SimplicialComplex(TORUS_TRIANGLES)))
    for h in profiles:
        assert uct_check(h)
    announce(10, f"(b) universal-coefficients consistency on {len(profiles)} computed "
                 "profiles including the projective-plane fixture")


def test_criterion_10c_lemma_pairs():
    # Whenever all five congruence hypotheses hold, the full n-pair schedule
    # is offered and applies step by step.
    tested = 0
    for n in range(5, 21):
        for t in range(2, n // 2 + 1):
            for s in range(1, t):
                try:
                    s0, t0 = normalize_circulant_pair(n, s, t)
                except ValueError:
                    continue
                if not all(value for _, value in _edge_congruences(n, s0, t0)):
                    continue
                label, pairs = circulant_schedule(n, s0, t0)
                assert label == "edges(s)"
                k = neighborhood_complex(circulant(n, (s0, t0)))
                cur = reference_replay(k, pairs)[-1]
                assert cur is not None
                assert SimplicialComplex(apply_pairs(k, pairs), antichain=True) == cur
                tested += 1
    assert tested >= 200
    # One constructed violation per hypothesis; each must break the schedule.
    violations = [
        (10, 5, 2, "2s"),
        (12, 1, 5, "2(s+t)"),
        (10, 2, 4, "3s+t"),
        (10, 1, 3, "3s-t"),
        (12, 3, 5, "4s"),
    ]
    for n, s, t, name in violations:
        assert dict(_edge_congruences(n, s, t))[name] == 0
        chosen = circulant_schedule(n, s, t)
        assert chosen is None or chosen[0] != "edges(s)"
        pairs = paper_edge_pairs(n, s, t)
        k = neighborhood_complex(circulant(n, (s, t)))
        assert apply_pairs(k, pairs) is None
        assert reference_replay(k, pairs)[-1] is None
    announce(10, f"(c) schedule lemma holds on {tested} hypothesis-satisfying instances; "
                 "every constructed congruence violation yields a counterexample pair")


def test_criterion_10d_bounded_degree_graphs():
    done = timed(60.0)
    rng = random.Random(1789)
    checked = 0
    for _ in range(150):
        n = rng.randint(2, 12)
        pairs = list(combinations(range(n), 2))
        rng.shuffle(pairs)
        degree = [0] * n
        edges = []
        for u, v in pairs:
            if degree[u] < 3 and degree[v] < 3 and rng.random() < 0.8:
                edges.append((u, v))
                degree[u] += 1
                degree[v] += 1
        g = Graph(n, edges)
        if not is_connected(g):
            continue
        out = analyze_graph(g)
        if out["case"] != "degenerate-3-regular":
            continue  # one of the two excluded graphs; no guarantee applies
        checked += 1
        assert out["verdict"] == "pass"
        for comp in out["components"]:
            assert comp.core_dim <= 1
            assert all(not tor for tor in comp.torsion)
            assert all(b == 0 for b in comp.betti_z[2:])
    assert checked >= 100
    elapsed = done()
    announce(10, f"(d) {checked} random connected max-degree-3 graphs give curve-like "
                 f"complexes: H2 = H3 = 0, torsion-free H1, cores at most 1-dimensional "
                 f"({elapsed:.1f}s)")
