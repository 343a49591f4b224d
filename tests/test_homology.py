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
    homology,
    neighborhood_complex,
    uct_check,
)
from conftest import (
    TORUS_TRIANGLES,
    boundary_of_simplex,
    dense_rows,
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

    def test_ragged_raises(self):
        for mat in ([[1, 0], [1]], [[2], [0, 3]], [[], [0]]):
            with pytest.raises(ValueError, match="ragged"):
                snf(mat)

    def test_empty(self):
        assert snf([]) == snf([[], []]) == []


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


# Run under ``python -O``, which strips assert statements.  A Smith kernel
# that loses one pivot must still make homology() raise, and a surface whose
# Euler characteristic contradicts its orientability must still be refused.
_OPTIMIZED_CHILD = f"""
from nctopo import SimplicialComplex, _kernels, classify_surface, homology

assert False, "asserts are live: not running under -O"
torus = SimplicialComplex({TORUS_TRIANGLES!r})

dispatch = _kernels.snf_diagonal
_kernels.snf_diagonal = lambda mat: dispatch(mat)[:-1]
try:
    homology(torus)
except AssertionError as exc:
    print("homology:", exc)
_kernels.snf_diagonal = dispatch

SimplicialComplex.euler_characteristic = lambda self: 1
try:
    classify_surface(torus)
except AssertionError:
    print("classify_surface: refused")
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
            "classify_surface: refused",
        ]
