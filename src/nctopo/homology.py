"""Simplicial homology over Z and over GF(2).

Unreduced homology throughout: a point has betti_z == (1,).  The integer
route goes through Smith normal form of the boundary matrices, which
reach ``_kernels.snf_diagonal`` as the sparse rows ``chain_complex``
builds.  Every edge boundary, and the top boundary of a closed
pseudomanifold core (a surface or a 3-sphere), is a signed-graph
incidence matrix, which the Smith entry answers by parity union-find;
the rest take its general sparse reduction.  The mod-2 route does
bit-packed Gaussian elimination on incidence masks built directly from
face containment.  It reads the face positions that ``chain_complex``
indexed, but shares no elimination code with the SNF path.  The
universal-coefficient relation between the two is a checkable
consequence, not an assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, repeat
from operator import itemgetter

from . import _kernels


class ChainComplex:
    """Bases and integer boundary matrices of a simplicial complex.

    bases[d] is the sorted tuple of d-simplices; boundaries[d] is the
    matrix of the boundary map C_d -> C_{d-1} as a list of sparse rows
    (rows indexed by (d-1)-simplices, columns by d-simplices).  Each row
    is a ``_kernels.SparseRow`` of width f_d holding its nonzero entries
    as ``{column: +-1}``.  boundaries[0] is the empty matrix with f_0
    columns.
    indices[d] maps each d-simplex to its position in bases[d], for every
    d below the top dimension: the row index of boundaries[d + 1].
    """

    __slots__ = ("bases", "boundaries", "indices")

    def __init__(self, bases, boundaries, indices):
        self.bases = bases
        self.boundaries = boundaries
        self.indices = indices

    def dim(self):
        return len(self.bases) - 1


def chain_complex(k):
    """Chain complex of a simplicial complex over the integers.

    Boundary signs alternate over the sorted vertex list of each simplex:
    the face dropping the i-th vertex carries sign (-1)**i.
    """
    top = k.dim()
    bases = [k.faces(d) for d in range(top + 1)]
    boundaries = [[] for _ in range(top + 1)]
    indices = [dict(zip(bases[d], range(len(bases[d])))) for d in range(top)]
    for d in range(1, top + 1):
        index = indices[d - 1]
        rows = [{} for _ in bases[d - 1]]
        for i in range(d + 1):
            sign = -1 if i % 2 else 1
            for col, row in enumerate(map(index.__getitem__, _faces_dropping(bases[d], i))):
                rows[row][col] = sign
        boundaries[d] = list(map(_kernels.SparseRow, repeat(len(bases[d])), rows))
    return ChainComplex([tuple(b) for b in bases], boundaries, indices)


def _faces_dropping(simplices, i):
    """The face of each of the nonempty list of simplices that drops its
    i-th vertex, in order."""
    keep = [j for j in range(len(simplices[0])) if j != i]
    return zip(*[map(itemgetter(j), simplices) for j in keep])


def _rank_gf2(cc, d):
    """Rank of the d-th boundary map over GF(2), for 1 <= d <= cc.dim().

    Builds incidence bitmasks straight from face containment, one mask per
    d-simplex over the (d-1)-simplex positions in ``cc.indices``; no sign
    bookkeeping and no shared code with the Smith route.
    """
    lower = cc.indices[d - 1]
    masks = []
    for s in cc.bases[d]:
        m = 0
        for face in combinations(s, d):
            m |= 1 << lower[face]
        masks.append(m)
    return _kernels.gf2_rank(masks)


@dataclass(frozen=True)
class HomologyProfile:
    """Betti numbers, torsion, and mod-2 Betti numbers per dimension.

    torsion[d] lists the invariant factors > 1 of H_d(.; Z), smallest
    first.  euler is the alternating f-vector sum, cross-checked against
    the alternating Betti sum on construction by homology().
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
    betti_z = tuple(f[d] - rank_z[d] - rank_z[d + 1] for d in range(top + 1))
    torsion = tuple(
        tuple(sorted(v for v in snf[d + 1] if v > 1)) if d + 1 <= top else ()
        for d in range(top + 1)
    )
    betti_z2 = tuple(f[d] - rank_2[d] - rank_2[d + 1] for d in range(top + 1))

    euler = sum((-1) ** d * f[d] for d in range(top + 1))
    alt = sum((-1) ** d * betti_z[d] for d in range(top + 1))
    if euler != alt:
        raise AssertionError(f"Euler mismatch: f-vector gives {euler}, Betti sum gives {alt}")
    # The Euler sum holds for any ranks, so it cannot see a lost pivot.
    # A rank mod 2 never exceeds the rank over Z; this catches one.
    for d in range(1, top + 1):
        if rank_2[d] > rank_z[d]:
            raise AssertionError(
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

