"""Simplicial homology over Z and over GF(2).

Unreduced homology throughout: a point has betti_z == (1,).  The integer
route takes the Smith normal form of the ``_kernels.Boundary`` matrices
``chain_complex`` builds from face positions; every edge boundary, and
the top boundary of a closed pseudomanifold core, is a signed-graph
incidence matrix, answered by parity union-find.  The mod-2 route
eliminates bitmasks ORed from the same positions, with the columns that
the next boundary makes redundant cleared first, and shares no
elimination code with the Smith route, which is not cleared; so the
universal-coefficient relation between the two is a checkable
consequence, not an assumption.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import itemgetter, lshift, or_
from typing import NamedTuple

from . import _kernels


class CrossCheckError(AssertionError):
    """Two independent computations disagree; raised also under -O."""


class ChainComplex:
    """Bases and integer boundary matrices of a simplicial complex.

    bases[d] is the sorted tuple of d-simplices; boundaries[d] is the
    matrix of the boundary map C_d -> C_{d-1} (rows indexed by
    (d-1)-simplices, columns by d-simplices) as a ``_kernels.Boundary``
    over positions[d]; boundaries[0] is the empty matrix with f_0 columns.
    positions[d][i][j], for 1 <= d <= dim, is the position in bases[d - 1]
    of the face of bases[d][j] that drops its i-th vertex: the row of the
    entry (-1)**i in column j of boundaries[d].  positions[0] is empty.
    """

    __slots__ = ("bases", "boundaries", "positions")

    def __init__(self, bases, boundaries, positions):
        self.bases = bases
        self.boundaries = boundaries
        self.positions = positions

    def dim(self):
        return len(self.bases) - 1


def chain_complex(k):
    """Chain complex of a simplicial complex over the integers.

    Boundary signs alternate over the sorted vertex list of each simplex:
    the face dropping the i-th vertex carries sign (-1)**i.
    """
    top = k.dim()
    bases = [k.faces(d) for d in range(top + 1)]
    positions = [()] * (top + 1)
    for d in range(1, top + 1):
        index = dict(zip(bases[d - 1], range(len(bases[d - 1]))))
        positions[d] = [
            list(map(index.__getitem__, _faces_dropping(bases[d], i))) for i in range(d + 1)
        ]
    f = [len(b) for b in bases]
    boundaries = list(map(_kernels.Boundary, [0] + f[:-1], f, positions))
    return ChainComplex([tuple(b) for b in bases], boundaries, positions)


def _faces_dropping(simplices, i):
    """The face of each of the nonempty list of simplices that drops its
    i-th vertex, in order."""
    keep = [j for j in range(len(simplices[0])) if j != i]
    return zip(*[map(itemgetter(j), simplices) for j in keep])


def _rank_gf2(cc, d):
    """Rank of the d-th boundary map over GF(2), for 1 <= d <= cc.dim().

    Builds incidence bitmasks straight from face containment, one mask per
    kept d-simplex with a bit at the position of each of its faces, ORed in
    from ``cc.positions[d]`` one dropped vertex at a time; no sign
    bookkeeping and no shared code with the Smith route.

    Below the top dimension the columns are cleared (Chen and Kerber,
    "Persistent homology computation with a twist", EuroCG 2011): a
    d-simplex sigma that is the face dropping vertex 0 of some (d+1)-simplex
    tau, as listed in ``cc.positions[d + 1][0]``, gets no mask.  Every other
    face of tau contains that vertex, which is smaller than all of sigma,
    so it comes earlier in the sorted basis, and since the boundary of the
    boundary of tau is 0, the column of sigma is the sum of theirs.  By
    induction on position the kept columns span all of them, so the rank
    is unchanged; on the torus core at n = 320 the edge masks go from 960
    to 331.
    """
    positions = cc.positions[d]
    if d + 1 < len(cc.positions):
        keep = [True] * len(cc.bases[d])
        for j in cc.positions[d + 1][0]:
            keep[j] = False
        positions = [list(compress(faces, keep)) for faces in positions]
    masks = [0] * len(positions[0])
    for faces in positions:
        masks = list(map(or_, masks, map(lshift, repeat(1), faces)))
    return _kernels.gf2_rank(masks)


class HomologyProfile(NamedTuple):
    """Betti numbers, torsion, and mod-2 Betti numbers per dimension.

    torsion[d] lists the invariant factors > 1 of H_d(.; Z), smallest
    first.  euler is the alternating f-vector sum.  The alternating Betti
    sum equals it whatever the ranks are, so it checks nothing; homology()
    checks each GF(2) rank against the rank over Z instead.
    """

    betti_z: tuple
    torsion: tuple
    betti_z2: tuple
    euler: int


def homology(k):
    """Homology profile of a simplicial complex (unreduced)."""
    cc = chain_complex(k)
    top = cc.dim()
    snf = [()] * (top + 2)  # snf[d] for boundary map d, 1..top
    for d in range(1, top + 1):
        snf[d] = tuple(_kernels.snf_diagonal(cc.boundaries[d]))
    rank_z = [len(snf[d]) for d in range(top + 2)]
    rank_2 = [0] * (top + 2)
    for d in range(1, top + 1):
        rank_2[d] = _rank_gf2(cc, d)

    f = [len(b) for b in cc.bases]
    # From a list: tuple() of a generator leaves shrunk tuples in free lists.
    betti_z = tuple([f[d] - rank_z[d] - rank_z[d + 1] for d in range(top + 1)])
    torsion = tuple([
        tuple(sorted(v for v in snf[d + 1] if v > 1)) if d + 1 <= top else ()
        for d in range(top + 1)
    ])
    betti_z2 = tuple([f[d] - rank_2[d] - rank_2[d + 1] for d in range(top + 1)])

    euler = sum((-1) ** d * f[d] for d in range(top + 1))
    # A rank mod 2 never exceeds the rank over Z; this catches a lost pivot,
    # which the Betti sum cannot: it telescopes to euler whatever the ranks.
    for d in range(1, top + 1):
        if rank_2[d] > rank_z[d]:
            raise CrossCheckError(
                f"rank mismatch in boundary {d}: GF(2) rank {rank_2[d]} exceeds Z rank {rank_z[d]}"
            )
    return HomologyProfile(betti_z=betti_z, torsion=torsion, betti_z2=betti_z2, euler=euler)


def uct_check(profile):
    """Universal coefficients over GF(2), checked dimension by dimension.

    b2[i] must equal b[i] plus the number of even torsion factors in
    dimensions i and i-1.
    """
    even = [sum(1 for v in t if v % 2 == 0) for t in profile.torsion]
    for i, b2 in enumerate(profile.betti_z2):
        expect = profile.betti_z[i] + even[i] + (even[i - 1] if i > 0 else 0)
        if b2 != expect:
            return False
    return True

