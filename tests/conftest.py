"""Shared fixtures: standard complexes with known topology."""

import pytest
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form

from nctopo import SimplicialComplex


def oracle_invariant_factors(mat):
    """Nonzero Smith invariant factors by sympy, sorted; shares no package code."""
    d = smith_normal_form(Matrix(mat))
    return sorted(abs(d[i, i]) for i in range(min(d.shape)) if d[i, i] != 0)

# Minimal 6-vertex triangulation of the real projective plane: complete
# 1-skeleton, 10 triangles, Euler characteristic 1, H_1 = Z/2.
RP2_TRIANGLES = (
    (0, 1, 4),
    (0, 1, 5),
    (0, 2, 3),
    (0, 2, 4),
    (0, 3, 5),
    (1, 2, 3),
    (1, 2, 5),
    (1, 3, 4),
    (2, 4, 5),
    (3, 4, 5),
)

# 7-vertex torus with complete 1-skeleton: 14 triangles, chi = 0.
TORUS_TRIANGLES = tuple(
    tri
    for i in range(7)
    for tri in ((i, (i + 1) % 7, (i + 3) % 7), (i, (i + 2) % 7, (i + 3) % 7))
)


@pytest.fixture
def rp2():
    return SimplicialComplex(RP2_TRIANGLES)


@pytest.fixture
def torus7():
    return SimplicialComplex(TORUS_TRIANGLES)


@pytest.fixture
def tetra_boundary():
    return SimplicialComplex([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


@pytest.fixture
def solid_triangle():
    return SimplicialComplex([(0, 1, 2)])
