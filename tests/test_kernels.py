"""The exact kernels against independent oracles.

The GF(2) rank is checked against plain list elimination, on masks of one
and of several machine words.  The Smith entry takes a ``Boundary`` or
sparse rows; its general reduction is one sparse elimination that takes
unit pivots first and an entry of least absolute value when none is left.
It is checked against sympy, against literal diagonals that need a
remainder or the last gcd/lcm pass, and against the signed-graph reader
on the boundary matrices of a torus core.  The entry answers a boundary
that is a signed-graph incidence matrix by parity union-find; the union-
find is checked against sympy and the general reduction on random signed
graphs, in both orientations, and boundaries and rows that only look like
such incidence matrices must reach the general reduction.
"""

import random
from itertools import combinations

import pytest
from conftest import (
    RP2_TRIANGLES,
    dense_rows,
    dunce_hat,
    oracle_gf2_rank,
    oracle_invariant_factors,
    snf,
    sparse_rows,
)

import nctopo
from nctopo import SimplicialComplex, _kernels, chain_complex, circulant, verify
from nctopo._kernels import Boundary, SparseRow
from nctopo.classify import case_of, reduce_to_core
from nctopo.cli import admissible_triples


def random_matrix(seed, rows, cols, lo=-9, hi=9):
    rng = random.Random(seed)
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def dense_matrix(seed):
    """Random dense matrix of 1..8 rows and 1..8 columns, entries -6..6."""
    rng = random.Random(seed)
    return random_matrix(seed, rng.randint(1, 8), rng.randint(1, 8), -6, 6)


def sparse_matrix(seed, values=(1, -1, 2, -2, 3, 6)):
    """Random matrix, mostly zeros, nonzeros drawn from ``values``."""
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 12), rng.randint(1, 12)
    density = rng.choice((0.15, 0.3, 0.6))
    return [
        [rng.choice(values) if rng.random() < density else 0 for _ in range(cols)]
        for _ in range(rows)
    ]


def incidence_entries(seed):
    """Oriented incidence entries of a random multigraph, one dict per vertex.

    The vertices but the last are split into up to four blocks and edges
    are drawn inside blocks, so the graph has several components; the last
    vertex is isolated, a zero row; one edge is doubled, a parallel edge.
    Returns (entries, number of edges).
    """
    rng = random.Random(seed)
    nv = rng.randint(4, 14)
    cuts = sorted(rng.sample(range(2, nv - 1), rng.randint(0, min(3, nv - 3))))
    edges = []
    for lo, hi in zip([0] + cuts, cuts + [nv - 1]):
        if hi - lo >= 2:
            edges.extend(rng.sample(range(lo, hi), 2) for _ in range(rng.randint(1, 2 * (hi - lo))))
    edges.append(rng.choice(edges))
    rng.shuffle(edges)
    entries = [{} for _ in range(nv)]
    for j, (a, b) in enumerate(edges):
        entries[a][j] = 1
        entries[b][j] = -1
    return entries, len(edges)


def signed_graph(seed):
    """Random signed graph as (edges, number of nodes).

    An edge is ((a, sa), (b, sb)) with signs +-1.  The nodes but the last
    two are split into up to four blocks and edges are drawn inside
    blocks, so the graph has several components; the last two nodes are
    isolated.  One edge is doubled.  A block is balanced, an ordinary
    incidence pattern under random node signs, or with probability 0.7
    gets random edge signs, which makes it unbalanced as soon as a cycle
    in it has an odd number of negative edges.
    """
    rng = random.Random(seed)
    nv = rng.randint(5, 14)
    cuts = sorted(rng.sample(range(2, nv - 2), rng.randint(0, min(3, nv - 4))))
    flip = [rng.choice((1, -1)) for _ in range(nv)]
    edges = []
    for lo, hi in zip([0] + cuts, cuts + [nv - 2]):
        if hi - lo < 2:
            continue
        mixed = rng.random() < 0.7
        for _ in range(rng.randint(1, 2 * (hi - lo))):
            a, b = rng.sample(range(lo, hi), 2)
            sign = rng.choice((1, -1)) if mixed else -1
            edges.append(((a, flip[a]), (b, flip[b] * sign)))
    edges.append(rng.choice(edges))
    rng.shuffle(edges)
    return edges, nv


def edge_rows(edges, nv):
    """One sparse row per edge over the nodes: two entries in every row."""
    return [SparseRow(nv, {a: sa, b: sb}) for (a, sa), (b, sb) in edges]


def node_rows(edges, nv):
    """One sparse row per node over the edges: two entries in every column."""
    entries = [{} for _ in range(nv)]
    for j, ((a, sa), (b, sb)) in enumerate(edges):
        entries[a][j] = sa
        entries[b][j] = sb
    return [SparseRow(len(edges), e) for e in entries]


def incidence_ends(entries, ncols):
    """The rows of the +1 and of the -1 in each column of a multigraph's
    incidence entries: the two face position lists of its edge boundary."""
    plus, minus = [None] * ncols, [None] * ncols
    for r, e in enumerate(entries):
        for j, v in e.items():
            (plus if v == 1 else minus)[j] = r
    return plus, minus


def dense_boundary(k, d):
    """The d-th boundary matrix of k, built densely from faces enumerated
    here and the sign (-1)**i of the face dropping the i-th vertex."""
    faces = [
        sorted({f for m in k.maximal_simplices for f in combinations(m, e + 1)}) for e in (d - 1, d)
    ]
    row = {f: r for r, f in enumerate(faces[0])}
    mat = [[0] * len(faces[1]) for _ in faces[0]]
    for j, s in enumerate(faces[1]):
        for i in range(d + 1):
            mat[row[s[:i] + s[i + 1 :]]][j] = -1 if i % 2 else 1
    return mat


def core(n, s, t):
    return reduce_to_core(circulant(n, (s, t)), (n, s, t))[2].core


@pytest.fixture
def kernel_calls(monkeypatch):
    """Record every matrix the entry hands to the general reduction."""
    seen = []
    inner = _kernels._general_snf

    def record(mat):
        seen.append(mat)
        return inner(mat)

    monkeypatch.setattr(_kernels, "_general_snf", record)
    return seen


def masks_of(mat):
    out = []
    for row in mat:
        m = 0
        for j, v in enumerate(row):
            if v % 2:
                m |= 1 << j
        out.append(m)
    return out


def gf2_inputs():
    """(name, masks, width) cases: short-rank and random masks up to 130
    bits wide, across the one-word boundary, and masks 201 bits wide."""
    for seed in range(60):
        rng = random.Random(seed)
        cols = rng.randint(1, 130)
        # Rows built from a few generators, so the rank is often short.
        gens = [rng.getrandbits(cols) for _ in range(rng.randint(1, 8))]
        rows = []
        for _ in range(rng.randint(1, 20)):
            m = 0
            for g in rng.sample(gens, rng.randint(1, len(gens))):
                m ^= g
            rows.append(m)
        yield f"generated {seed}", rows, cols
    for seed in range(20):
        rng = random.Random(seed)
        cols = rng.randint(1, 130)
        yield f"random {seed}", [rng.getrandbits(cols) for _ in range(rng.randint(1, 40))], cols
    yield "multiword", [1 << 200, (1 << 200) | 1, 1], 201


class TestPureGf2:
    def test_empty(self):
        assert _kernels.gf2_rank([]) == 0

    def test_zero_rows(self):
        assert _kernels.gf2_rank([0, 0, 0]) == 0

    def test_independent_bits(self):
        assert _kernels.gf2_rank([0b001, 0b010, 0b100]) == 3

    def test_dependent_rows(self):
        assert _kernels.gf2_rank([0b011, 0b101, 0b110]) == 2

    def test_rank_ignores_row_order(self):
        widths = []
        for name, rows, cols in gf2_inputs():
            rank = _kernels.gf2_rank(rows)
            bits = [[(m >> j) & 1 for j in range(cols)] for m in rows]
            assert rank == oracle_gf2_rank(bits), name
            rng = random.Random(name)
            for _ in range(5):
                rng.shuffle(rows)
                assert _kernels.gf2_rank(rows) == rank, name
            widths.append(max(rows).bit_length())
        # Masks of two and three 64-bit words are checked, not just one.
        assert sum(w > 64 for w in widths) >= 20 and max(widths) > 128


class TestPureSnf:
    def test_single_entry(self):
        assert snf([[6]]) == [6]

    def test_sign_normalization(self):
        assert snf([[-5]]) == [5]

    def test_divisibility_enforced(self):
        for diag in snf([[2, 0], [0, 3]]), snf([[6, 4], [4, 6]]):
            for a, b in zip(diag, diag[1:]):
                assert b % a == 0

    def test_huge_entries_exact(self):
        big = 10**30
        assert snf([[big]]) == [big]
        # A unit pivot mixes the huge entries: 1 - big**2 must stay exact.
        mat = [[1, big], [big, 1]]
        assert snf(mat) == [1, big**2 - 1]

    def test_empty(self):
        assert _kernels.snf_diagonal(Boundary(0, 0, [[], []])) == []
        assert snf([[], []]) == []

    def test_all_zero(self):
        assert snf([[0, 0, 0], [0, 0, 0]]) == []

    def test_rp2_torsion(self, rp2):
        # d2 of RP^2 is 15x10 with factors 1 (nine times) and 2; the
        # entry answers it by the shortcut, so the reduction runs directly.
        d2 = chain_complex(rp2).boundaries[2]
        assert _kernels._general_snf(d2) == [1] * 9 + [2]


class TestSparseStage:
    def test_sparse_random_against_sympy(self):
        cases = [(f"sparse {seed}", sparse_matrix(seed)) for seed in range(150)]
        cases += [(f"dense {seed}", dense_matrix(seed)) for seed in range(20)]
        for name, mat in cases:
            got = _kernels._general_snf(sparse_rows(mat))
            assert got == oracle_invariant_factors(mat), name

    def test_random_inputs_have_torsion(self):
        # Without factors above 1 the non-unit pivots would go untested.
        tops = [max(snf(sparse_matrix(seed)), default=1) for seed in range(150)]
        assert sum(top > 1 for top in tops) >= 30

    def test_no_unit_entry_against_sympy(self):
        for seed in range(60):
            mat = sparse_matrix(seed, values=(2, -2, 3, 6, -9))
            got = _kernels._general_snf(sparse_rows(mat))
            assert got == oracle_invariant_factors(mat), seed

    def test_remainder_left_in_column_and_row(self):
        # The least entry 2 leaves the remainder 1 in its column, or in its
        # row, and that 1 is the next pivot.
        for mat, factors in (([[2], [3]], [1]), ([[2, 3]], [1]), ([[2, 4], [6, 9]], [1, 6])):
            assert _kernels._general_snf(sparse_rows(mat)) == factors, mat

    def test_last_pass_orders_the_diagonal(self):
        def diag(*d):
            return [SparseRow(len(d), {i: v}) for i, v in enumerate(d)]

        assert _kernels._general_snf(diag(4, 6)) == [2, 12]
        assert _kernels._general_snf(diag(6, 4, 10)) == [2, 2, 60]
        assert _kernels._general_snf(diag(*[2] * 5)) == [2] * 5

    def test_core_boundaries_match_the_shortcut(self, monkeypatch):
        mats = []
        dispatch = _kernels.snf_diagonal

        def record(mat):
            mats.append(mat)
            return dispatch(mat)

        monkeypatch.setattr(_kernels, "snf_diagonal", record)
        assert verify(80, 1, 4).verdict == "pass"
        assert [(len(m), len(m[0])) for m in mats] == [(80, 240), (240, 160)]
        for mat in mats:
            assert _kernels._incidence_factors(mat) is not None
            assert _kernels._general_snf(mat) == dispatch(mat)


class TestSparseRow:
    def test_len_count_and_repr(self):
        # len and count see the zeros of the dense row [0, -1, 0, 2, 0].
        row = SparseRow(5, {1: -1, 3: 2})
        assert len(row) == 5
        assert (row.count(0), row.count(-1), row.count(7)) == (3, 1, 0)
        assert repr(row) == "SparseRow(5, {1: -1, 3: 2})"
        assert dense_rows([row]) == [[0, -1, 0, 2, 0]]

    def test_chain_complex_rows_are_sparse(self, torus7):
        for mat in chain_complex(torus7).boundaries[1:]:
            assert all(isinstance(r, SparseRow) for r in mat)
            assert all(0 not in r.entries.values() for r in mat)

    def test_sparse_and_dense_input_agree(self):
        # Each SparseRow stands for its dense row: the same entries, and
        # the same len and count, zeros included.
        for seed in range(150):
            mat = sparse_matrix(seed)
            rows = sparse_rows(mat)
            assert dense_rows(rows) == mat, seed
            for row, dense in zip(rows, mat):
                assert len(row) == len(dense), seed
                assert [row.count(v) for v in (0, 1, -1, 2)] == [
                    dense.count(v) for v in (0, 1, -1, 2)
                ], seed


class TestIncidenceShortcut:
    def test_random_multigraphs_against_oracles(self):
        shapes = []
        for seed in range(120):
            entries, ncols = incidence_entries(seed)
            rows = [SparseRow(ncols, e) for e in entries]
            dense = dense_rows(rows)
            plus, minus = incidence_ends(entries, ncols)
            got = _kernels._parity_union_find(len(rows), plus, minus, [False] * ncols)
            assert got == oracle_invariant_factors(dense) == [1] * len(got), seed
            assert got == _kernels._general_snf(rows), seed
            boundary = Boundary(len(rows), ncols, [plus, minus])
            assert dense_rows(boundary) == dense, seed
            assert _kernels.snf_diagonal(boundary) == got, seed
            cols = [tuple(sorted(r for r, e in enumerate(entries) if j in e)) for j in range(ncols)]
            shapes.append((len(rows) - len(got), len(set(cols)) < ncols))
        assert sum(components >= 3 for components, _ in shapes) >= 30
        assert all(parallel for _, parallel in shapes)

    def test_random_signed_graphs_against_oracles(self):
        shapes = []
        for seed in range(120):
            edges, nv = signed_graph(seed)
            heads, tails = [a for (a, _), _ in edges], [b for _, (b, _) in edges]
            negative = [sa == sb for (_, sa), (_, sb) in edges]
            got = _kernels._parity_union_find(nv, heads, tails, negative)
            for rows in (edge_rows(edges, nv), node_rows(edges, nv)):
                assert got == oracle_invariant_factors(dense_rows(rows)), seed
                assert got == _kernels._general_snf(rows), seed
            unbalanced = got.count(2)
            shapes.append((unbalanced, nv - len(got)))
        # Balanced components include the two isolated nodes.
        assert sum(u == 0 and b >= 4 for u, b in shapes) >= 20
        assert sum(u >= 2 for u, _ in shapes) >= 8
        assert sum(u >= 1 and b >= 3 for u, b in shapes) >= 20

    def test_two_projective_planes(self, kernel_calls):
        shifted = [tuple(v + 6 for v in t) for t in RP2_TRIANGLES]
        k = SimplicialComplex(RP2_TRIANGLES + tuple(shifted))
        d2 = chain_complex(k).boundaries[2]
        assert _kernels.snf_diagonal(d2) == [1] * 18 + [2, 2]
        assert kernel_calls == []

    def test_shortcut_skips_the_backend(self, kernel_calls, torus7, rp2):
        entries, ncols = incidence_entries(0)
        plus, minus = incidence_ends(entries, ncols)
        assert _kernels.snf_diagonal(Boundary(len(entries), ncols, [plus, minus]))
        for k in torus7, rp2:
            for mat in chain_complex(k).boundaries[1:]:
                assert _kernels.snf_diagonal(mat)
                assert mat._rows is None
        assert kernel_calls == []

    def test_incidence_rows_take_the_general_reduction(self, kernel_calls):
        # Rows, sparse or converted from dense, go to the general reduction:
        # only a Boundary is read as a signed graph, and the multigraph's
        # Boundary gives the same factors without it.
        entries, ncols = incidence_entries(1)
        edges, nv = signed_graph(1)
        mats = [[SparseRow(ncols, e) for e in entries], edge_rows(edges, nv), node_rows(edges, nv)]
        for mat in mats:
            dense = dense_rows(mat)
            assert snf(dense) == oracle_invariant_factors(dense)
        assert len(kernel_calls) == len(mats)
        kernel_calls.clear()
        boundary = Boundary(len(entries), ncols, list(incidence_ends(entries, ncols)))
        assert _kernels.snf_diagonal(boundary) == oracle_invariant_factors(dense_rows(mats[0]))
        assert kernel_calls == []

    @pytest.mark.parametrize(
        "defect", ["three entries", "entry 2", "entry -2", "extra entry 2", "single entry"]
    )
    def test_look_alikes_fall_through(self, defect):
        # Rows a defect keeps from being an incidence matrix, by the general
        # reduction that every matrix other than a signed graph's takes.
        for seed in range(20):
            entries, ncols = incidence_entries(seed)
            j = random.Random(seed).randrange(ncols)
            plus = next(e for e in entries if e.get(j) == 1)
            minus = next(e for e in entries if e.get(j) == -1)
            if defect == "three entries":
                next(e for e in entries if j not in e)[j] = 1
            elif defect == "entry 2":
                plus[j] = 2
            elif defect == "entry -2":
                minus[j] = -2
            elif defect == "extra entry 2":
                next(e for e in entries if j not in e)[j] = 2
            else:
                del minus[j]
            rows = [SparseRow(ncols, e) for e in entries]
            dense = dense_rows(rows)
            assert _kernels._general_snf(rows) == oracle_invariant_factors(dense), seed

    @pytest.mark.parametrize("defect", ["entry 2", "entry -2", "one entry", "three entries"])
    def test_edge_row_look_alikes_fall_through(self, defect):
        for seed in range(20):
            edges, nv = signed_graph(seed)
            rows = edge_rows(edges, nv)
            entries = rows[random.Random(seed).randrange(len(rows))].entries
            a, b = entries
            if defect == "entry 2":
                entries[a] = 2
            elif defect == "entry -2":
                entries[b] = -2
            elif defect == "one entry":
                del entries[b]
            else:
                entries[next(c for c in range(nv) if c not in entries)] = -1
            dense = dense_rows(rows)
            assert _kernels._general_snf(rows) == oracle_invariant_factors(dense), seed

    def test_boundary_of_triangles_falls_through(self, kernel_calls, solid_triangle, rp2):
        # The solid triangle's edges lie in one triangle each; RP^2's lie
        # in two, so its dual graph is an unbalanced signed graph.
        d2 = chain_complex(solid_triangle).boundaries[2]
        assert _kernels._incidence_factors(d2) is None
        assert _kernels.snf_diagonal(d2) == [1]
        assert len(kernel_calls) == 1
        d2 = chain_complex(rp2).boundaries[2]
        assert _kernels._incidence_factors(d2) == [1] * 9 + [2]
        assert _kernels.snf_diagonal(d2) == [1] * 9 + [2]
        assert len(kernel_calls) == 1

    def test_a_row_of_three_falls_through(self, kernel_calls, torus7):
        # Moving one entry of the torus's d2 leaves a row of three entries
        # and a row of one.
        d2 = chain_complex(torus7).boundaries[2]
        positions = [list(p) for p in d2.positions]
        positions[0][0] = positions[1][1]
        moved = Boundary(d2.nrows, d2.ncols, positions)
        dense = dense_rows(moved)
        counts = sorted(len(row) - row.count(0) for row in dense)
        assert counts == [1] + [2] * (d2.nrows - 2) + [3]
        assert _kernels._incidence_factors(moved) is None
        assert _kernels.snf_diagonal(moved) == oracle_invariant_factors(dense)
        assert len(kernel_calls) == 1

    @pytest.mark.parametrize("name", ["torus7", "rp2", "dunce hat", "garland", "S2vS2"])
    def test_boundaries_match_dense_ones(self, name, torus7, rp2):
        k = {
            "torus7": torus7,
            "rp2": rp2,
            "dunce hat": dunce_hat(),
            "garland": core(20, 3, 5),
            "S2vS2": core(12, 1, 3),
        }[name]
        cc = chain_complex(k)
        assert cc.dim() == 2
        for d in 1, 2:
            dense = dense_boundary(k, d)
            assert dense_rows(cc.boundaries[d]) == dense, d
            assert _kernels.snf_diagonal(cc.boundaries[d]) == oracle_invariant_factors(dense), d

    def test_fires_on_every_edge_boundary_of_a_sweep(self, monkeypatch):
        fired = {}
        inner = _kernels._incidence_factors
        tag = None

        def spy(boundary):
            factors = inner(boundary)
            d = len(boundary.positions) - 1
            fired.setdefault((tag, d), []).append(factors is not None)
            return factors

        monkeypatch.setattr(_kernels, "_incidence_factors", spy)
        # (20, 3, 5) adds a garland core (I3A) to the sweep.
        for triple in admissible_triples(5, 15) + [(20, 3, 5)]:
            tag = case_of(*triple).tag
            verify(*triple)
        edges = [f for (_, d), fs in fired.items() if d == 1 for f in fs]
        assert len(edges) > 50 and all(edges)
        # Closed surfaces: tetrahedron boundaries (I1A) and tori.
        for t in ("I1A", "I3D", "I4C"):
            assert fired[(t, 2)] and all(fired[(t, 2)]), t
        # Wedges and garlands of spheres, and the 2-skeleton of S^3.
        for t in ("I2A", "I2B", "I3A", "I3B", "I4A", "I4B"):
            assert fired[(t, 2)] and not any(fired[(t, 2)]), t
        # S^3 as the boundary of a 4-simplex.
        triangles = [(t, fs) for (t, d), fs in fired.items() if d == 3]
        assert {t for t, _ in triangles} == {"I2A", "I4A"}
        assert all(f for _, fs in triangles for f in fs)


class TestOnePassReader:
    """``_incidence_factors`` reads a boundary other than an edge boundary
    in one pass over its positions, keeping each row's head, tail and sign
    parity.  A third entry in a row, or a row left with fewer than two,
    sends the matrix to the general reduction."""

    @staticmethod
    def _falls_through(mat, kernel_calls):
        dense = dense_rows(mat)
        assert _kernels._incidence_factors(mat) is None
        assert _kernels.snf_diagonal(mat) == oracle_invariant_factors(dense)
        assert len(kernel_calls) == 1

    def test_row_with_three_entries(self, kernel_calls, torus7):
        # A copy of column 0 gives each of its rows a third entry, and no
        # row has fewer than two.
        d2 = chain_complex(torus7).boundaries[2]
        doubled = Boundary(d2.nrows, d2.ncols + 1, [[*p, p[0]] for p in d2.positions])
        counts = {len(row) - row.count(0) for row in dense_rows(doubled)}
        assert counts == {2, 3}
        self._falls_through(doubled, kernel_calls)

    def test_row_with_one_entry(self, kernel_calls, torus7):
        # Without its last triangle, the torus has three edges in one
        # triangle each, and no row has three entries.
        d2 = chain_complex(torus7).boundaries[2]
        cut = Boundary(d2.nrows, d2.ncols - 1, [p[:-1] for p in d2.positions])
        counts = sorted(len(row) - row.count(0) for row in dense_rows(cut))
        assert counts == [1, 1, 1] + [2] * (d2.nrows - 3)
        self._falls_through(cut, kernel_calls)

    def test_empty_row(self, kernel_calls, rp2):
        # One more row than RP^2 has edges, with no entry in it.
        d2 = chain_complex(rp2).boundaries[2]
        padded = Boundary(d2.nrows + 1, d2.ncols, d2.positions)
        assert dense_rows(padded)[-1] == [0] * d2.ncols
        self._falls_through(padded, kernel_calls)

    @pytest.mark.parametrize(
        "name, read", [("torus7", True), ("rp2", True), ("dunce hat", False), ("garland", False)]
    )
    def test_agrees_with_the_general_reduction_and_sympy(self, name, read, torus7, rp2):
        k = {
            "torus7": torus7,
            "rp2": rp2,
            "dunce hat": dunce_hat(),
            "garland": core(20, 3, 5),
        }[name]
        cc = chain_complex(k)
        for d in 1, 2:
            mat = cc.boundaries[d]
            dense = dense_rows(mat)
            factors = _kernels._incidence_factors(mat)
            # Every edge boundary is read; a top boundary only on a surface.
            assert (factors is not None) == (d == 1 or read), d
            expected = _kernels._general_snf(list(mat))
            assert expected == oracle_invariant_factors(dense), d
            assert _kernels.snf_diagonal(mat) == expected, d
            if factors is not None:
                assert factors == expected, d


class TestDispatch:
    def test_backend_name(self):
        assert _kernels.BACKEND == nctopo.BACKEND == "pure"

    def test_gf2_rank_dispatch(self):
        mat = random_matrix(3, 10, 12)
        assert _kernels.gf2_rank(masks_of(mat)) == oracle_gf2_rank(mat)

    def test_sparse_rows_reach_the_kernel_unchanged(self, kernel_calls):
        # A Boundary that is no signed graph reaches the general reduction
        # as itself, which reads it through its SparseRow rows.
        mat = chain_complex(dunce_hat()).boundaries[2]
        assert _kernels.snf_diagonal(mat) == oracle_invariant_factors(dense_rows(mat))
        (seen,) = kernel_calls
        assert seen is mat
