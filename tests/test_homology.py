"""Homology over Z and GF(2), checked against independent oracles.

The Smith normal form is cross-checked with sympy's implementation, and
the GF(2) ranks with a plain list-of-lists elimination written here;
neither oracle shares code with the package kernels.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from sympy import Matrix

from nctopo import (
    HomologyProfile,
    SimplicialComplex,
    _kernels,
    chain_complex,
    circulant,
    collapse_core,
    homology,
    neighborhood_complex,
    uct_check,
)
from nctopo.classify import reduce_to_core
from nctopo.cli import admissible_triples
from nctopo.homology import _rank_gf2
from conftest import (
    TORUS_TRIANGLES,
    boundary_of_simplex,
    dense_rows,
    dunce_hat,
    incidence_graph,
    oracle_gf2_rank,
    oracle_invariant_factors,
    snf,
)


def boundary_composition_is_zero(cc):
    """Check d o d == 0 for consecutive boundary matrices."""
    for d in range(2, cc.dim() + 1):
        upper = dense_rows(cc.boundaries[d])
        lower = dense_rows(cc.boundaries[d - 1])
        if not upper or not lower:
            continue
        ncols = len(upper[0])
        nmid = len(upper)
        for j in range(ncols):
            col = [upper[i][j] for i in range(nmid)]
            for row in lower:
                if sum(row[i] * col[i] for i in range(nmid)) != 0:
                    return False
    return True


class TestSmithNormalForm:
    def test_identity(self):
        assert snf([[1, 0], [0, 1]]) == [1, 1]

    def test_divisibility_chain(self):
        mat = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        factors = snf(mat)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0
        assert sorted(factors) == oracle_invariant_factors(mat)

    def test_zero_matrix(self):
        assert snf([[0, 0], [0, 0]]) == []

    def test_rectangular(self):
        mat = [[1, 2, 3], [4, 5, 6]]
        factors = snf(mat)
        assert sorted(factors) == oracle_invariant_factors(mat)
        assert len(factors) == 2

    @pytest.mark.parametrize("seed", range(12))
    def test_random_against_sympy(self, seed):
        rng = random.Random(seed)
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        factors = snf(mat)
        assert sorted(factors) == oracle_invariant_factors(mat)
        assert len(factors) == Matrix(mat).rank()

    def test_torsion_producing_matrix(self):
        # Diagonal (1, 2, 6) up to unimodular moves.
        assert snf([[2, 0], [0, 6]]) == [2, 6]

    def test_empty(self):
        assert snf([[], []]) == []
        assert _kernels.snf_diagonal(_kernels.Boundary(0, 0, [[], []])) == []


class TestChainComplex:
    def test_boundary_squares_to_zero(self, rp2, torus7):
        for k in (rp2, torus7):
            assert boundary_composition_is_zero(chain_complex(k))

    def test_edge_boundary_signs(self):
        k = SimplicialComplex([(0, 1)])
        cc = chain_complex(k)
        # d[edge] = (1) - (0).
        assert dense_rows(cc.boundaries[1]) == [[-1], [1]]

    def test_bases_align_with_faces(self):
        k = boundary_of_simplex((0, 1, 2, 3))
        cc = chain_complex(k)
        assert [len(b) for b in cc.bases] == [4, 6, 4]


def assert_positions_match_boundaries(cc):
    """positions[d][i][j] is the row of the (-1)**i entry in column j of
    boundaries[d], and the face of bases[d][j] dropping vertex i is that
    row's simplex; no other entry is nonzero."""
    assert cc.positions[0] == ()
    for d in range(1, cc.dim() + 1):
        assert len(cc.positions[d]) == d + 1
        from_positions = {}
        for i, rows in enumerate(cc.positions[d]):
            assert len(rows) == len(cc.bases[d])
            for j, row in enumerate(rows):
                s = cc.bases[d][j]
                assert cc.bases[d - 1][row] == s[:i] + s[i + 1 :]
                from_positions[row, j] = -1 if i % 2 else 1
        from_rows = {
            (r, j): v for r, row in enumerate(cc.boundaries[d]) for j, v in row.entries.items()
        }
        assert from_positions == from_rows


class TestFacePositions:
    def test_torus(self, torus7):
        assert_positions_match_boundaries(chain_complex(torus7))

    def test_rp2(self, rp2):
        assert_positions_match_boundaries(chain_complex(rp2))

    def test_three_dimensional_core(self):
        # C_10(1, 3) collapses to two boundaries of a 4-simplex.
        core = collapse_core(neighborhood_complex(circulant(10, (1, 3)))).core
        assert core.f_vector() == (10, 20, 20, 10)
        assert_positions_match_boundaries(chain_complex(core))


class TestHomologyProfiles:
    def test_point(self):
        h = homology(SimplicialComplex([(7,)]))
        assert h.betti_z == (1,)
        assert h.torsion == ((),)
        assert h.betti_z2 == (1,)

    def test_empty_complex(self):
        assert homology(SimplicialComplex([])) == HomologyProfile((), (), (), 0)

    def test_two_points(self):
        h = homology(SimplicialComplex([(0,), (5,)]))
        assert h.betti_z == (2,)

    def test_circle(self):
        h = homology(SimplicialComplex([(0, 1), (1, 2), (0, 2)]))
        assert h.betti_z == (1, 1)
        assert h.euler == 0

    def test_wedge_of_three_circles(self):
        # Three triangles-as-cycles sharing vertex 0.
        tris = [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4), (0, 5), (5, 6), (0, 6)]
        h = homology(SimplicialComplex(tris))
        assert h.betti_z == (1, 3)

    def test_sphere_2(self, tetra_boundary):
        h = homology(tetra_boundary)
        assert h.betti_z == (1, 0, 1)
        assert h.euler == 2

    def test_sphere_3(self):
        h = homology(boundary_of_simplex((0, 1, 2, 3, 4)))
        assert h.betti_z == (1, 0, 0, 1)
        assert h.euler == 0

    def test_torus(self, torus7):
        h = homology(torus7)
        assert h.betti_z == (1, 2, 1)
        assert h.torsion == ((), (), ())
        assert h.betti_z2 == (1, 2, 1)

    def test_rp2_torsion(self, rp2):
        h = homology(rp2)
        assert h.betti_z == (1, 0, 0)
        assert h.torsion == ((), (2,), ())
        assert h.betti_z2 == (1, 1, 1)
        assert h.euler == 1

    def test_klein_bottle(self, klein):
        h = homology(klein)
        assert h.betti_z == (1, 1, 0)
        assert h.torsion == ((), (2,), ())
        assert h.betti_z2 == (1, 2, 1)
        assert h.euler == 0
        assert uct_check(h)

    def test_disjoint_union_adds(self, rp2):
        shifted = SimplicialComplex([tuple(v + 10 for v in m) for m in rp2.maximal_simplices])
        both = SimplicialComplex(list(rp2.maximal_simplices) + list(shifted.maximal_simplices))
        h = homology(both)
        assert h.betti_z == (2, 0, 0)
        assert h.torsion == ((), (2, 2), ())


class TestUct:
    def test_consistency_on_fixtures(self, rp2, torus7, tetra_boundary):
        for k in (rp2, torus7, tetra_boundary):
            assert uct_check(homology(k))

    def test_detects_inconsistency(self):
        h = homology(SimplicialComplex([(0, 1, 2)]))
        broken = type(h)(
            betti_z=h.betti_z, torsion=h.torsion, betti_z2=(1, 1, 0), euler=h.euler
        )
        assert not uct_check(broken)


class TestTwoRouteAgreement:
    """The Z route (SNF ranks) and GF(2) route (bit elimination) are
    independent; their ranks must satisfy the universal coefficient
    relation on every boundary matrix, checked here via the oracle."""

    @pytest.mark.parametrize(
        "n, s, t", [(10, 1, 3), (12, 1, 3), (9, 1, 3), (13, 2, 3), (11, 2, 5)]
    )
    def test_gf2_rank_matches_oracle(self, n, s, t):
        cc = chain_complex(neighborhood_complex(circulant(n, (s, t))))
        from nctopo._kernels import gf2_rank

        for mat in map(dense_rows, cc.boundaries[1:]):
            if not mat or not mat[0]:
                continue
            masks = []
            for j in range(len(mat[0])):
                m = 0
                for i in range(len(mat)):
                    if mat[i][j] % 2:
                        m |= 1 << i
                masks.append(m)
            assert gf2_rank(masks) == oracle_gf2_rank(mat)


def full_rank_gf2(cc, d):
    """Rank mod 2 of boundary d with one mask for every d-simplex, none
    cleared."""
    masks = [0] * len(cc.bases[d])
    for faces in cc.positions[d]:
        for j, row in enumerate(faces):
            masks[j] |= 1 << row
    return _kernels.gf2_rank(masks)


def assert_clearing_keeps_the_rank(k):
    """Every cleared GF(2) rank of k equals the full one; returns the
    number of columns that clearing dropped."""
    cc = chain_complex(k)
    dropped = 0
    for d in range(1, cc.dim() + 1):
        assert _rank_gf2(cc, d) == full_rank_gf2(cc, d), (k, d)
        if d < cc.dim():
            dropped += len(set(cc.positions[d + 1][0]))
    return dropped


class TestGf2Clearing:
    """``_rank_gf2`` gives no mask to a d-simplex that is the face dropping
    vertex 0 of a (d+1)-simplex; the rank must be that of the full
    elimination."""

    def test_sweep_cores(self):
        cores = [
            reduce_to_core(circulant(n, (s, t)), (n, s, t))[2].core
            for n, s, t in admissible_triples(5, 25)
        ]
        assert len(cores) == 571
        assert sum(map(assert_clearing_keeps_the_rank, cores)) > 0

    def test_graph_pool_cores(self, run):
        # The generic cores of the pool are graphs, whose one boundary has
        # nothing to clear; the complexes they collapse from have triangles.
        reduced = [reduce_to_core(g) for g in run.graph_pool(run.FULL, 0)]
        assert sum(assert_clearing_keeps_the_rank(trace.core) for _, _, trace in reduced) == 0
        assert sum(assert_clearing_keeps_the_rank(k) for _, k, _ in reduced) > 0

    def test_incidence_graph_complexes(self, rp2, torus7, klein, tetra_boundary):
        # N(B(K)) holds a copy of K and the nerve of its maximal simplices,
        # of dimension up to the largest vertex degree of K.
        ks = [rp2, torus7, klein, tetra_boundary, dunce_hat(), boundary_of_simplex(range(5))]
        dims = set()
        for k in ks:
            nk = neighborhood_complex(incidence_graph(k))
            dims.add(nk.dim())
            assert assert_clearing_keeps_the_rank(k) > 0
            assert assert_clearing_keeps_the_rank(nk) > 0
        assert max(dims) >= 5

    def test_torus_core_masks(self, monkeypatch):
        # On the torus core at n = 320, f = (320, 960, 640): 331 edge masks
        # are left of 960, and the top boundary keeps all of its 640.
        seen = []
        inner = _kernels.gf2_rank
        monkeypatch.setattr(_kernels, "gf2_rank", lambda masks: seen.append(masks) or inner(masks))
        k = reduce_to_core(circulant(320, (1, 4)), (320, 1, 4))[2].core
        cc = chain_complex(k)
        assert [_rank_gf2(cc, d) for d in (1, 2)] == [319, 639]
        assert [len(masks) for masks in seen] == [331, 640]


# Run under ``python -O``, which strips assert statements.  A Smith kernel
# that loses one pivot must still make homology() raise, and a surface whose
# Euler characteristic contradicts its orientability must still be refused.
_OPTIMIZED_CHILD = f"""
from nctopo import SimplicialComplex, _kernels, classify_surface, homology
from nctopo.homology import CrossCheckError

assert False, "asserts are live: not running under -O"
torus = SimplicialComplex({TORUS_TRIANGLES!r})

dispatch = _kernels.snf_diagonal
_kernels.snf_diagonal = lambda mat: dispatch(mat)[:-1]
try:
    homology(torus)
except CrossCheckError as exc:
    print("homology:", exc)
_kernels.snf_diagonal = dispatch

SimplicialComplex.euler_characteristic = lambda self: 1
try:
    classify_surface(torus)
except CrossCheckError as exc:
    print("classify_surface:", exc)
"""


class TestInvariantChecksUnderOptimize:
    def test_checks_raise_under_dash_o(self):
        import nctopo

        src = str(Path(nctopo.__file__).resolve().parent.parent)
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-O", "-c", _OPTIMIZED_CHILD],
            env={**os.environ, "PYTHONPATH": pythonpath},
            capture_output=True,
            text=True,
            check=True,
        )
        lines = out.stdout.splitlines()
        assert lines == [
            "homology: rank mismatch in boundary 1: GF(2) rank 6 exceeds Z rank 5",
            "classify_surface: orientable closed surface with Euler characteristic 1",
        ]
