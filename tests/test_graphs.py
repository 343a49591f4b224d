"""Graph construction, circulants, folds, and edge-list IO."""

import math
import random
import re
import time
from itertools import combinations

import pytest
from conftest import (
    circulant_component_count,
    complete_graph,
    cycle_graph,
    k44_minus_matching,
    random_sparse_graph,
    reference_is_excluded,
)

from nctopo.graphs import (
    MAX_VERTEX_LABEL,
    Graph,
    circulant,
    connected_components,
    find_fold,
    fold_reduce,
    is_connected,
    normalize_circulant_pair,
    read_edge_list,
)


class TestGraph:
    def test_basic_adjacency(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.num_vertices == 4
        assert g.neighborhood(1) == (0, 2)
        assert g.degree(0) == 1
        assert g.max_degree() == 2
        assert 2 in g.neighborhood(1)
        assert 3 not in g.neighborhood(0)

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert len(g.edges()) == 1

    def test_rejects_loops_and_bad_vertices(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 0)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Graph(-1),
            lambda: circulant(1, [1]),
            lambda: normalize_circulant_pair(1, 1, 1),
            lambda: cycle_graph(2),
        ],
        ids=["graph", "circulant", "normalize", "cycle"],
    )
    def test_degenerate_sizes_rejected(self, build):
        with pytest.raises(ValueError):
            build()

    def test_equality_and_hash(self):
        a = Graph(3, [(0, 1), (1, 2)])
        b = Graph(3, [(1, 2), (0, 1)])
        assert a == b
        assert hash(a) == hash(b)


class TestCirculant:
    def test_five_cycle(self):
        g = circulant(5, (1,))
        assert len(g.edges()) == 5
        assert g.neighborhood(0) == (1, 4)

    def test_two_generator_degree_four(self):
        g = circulant(10, (1, 3))
        assert all(g.degree(v) == 4 for v in g.vertices())
        assert g.neighborhood(0) == (1, 3, 7, 9)

    def test_half_n_generator_gives_degree_three(self):
        g = circulant(8, (1, 4))
        assert all(g.degree(v) == 3 for v in g.vertices())

    def test_symmetric_closure(self):
        # Generator a and n-a describe the same edges.
        assert circulant(9, (2, 3)) == circulant(9, (7, 6))

    def test_generator_out_of_range(self):
        with pytest.raises(ValueError):
            circulant(6, (0,))
        with pytest.raises(ValueError):
            circulant(6, (6,))

    def test_k5_and_k4(self):
        assert circulant(5, (1, 2)) == complete_graph(5)
        assert circulant(4, (1, 2)) == complete_graph(4)

    def test_matches_the_edge_definition(self):
        # circulant builds each N(i) from the offsets, with no edge list;
        # Graph checks and sorts the edges i ~ i + a itself.
        rng = random.Random(0)
        for n in range(2, 40):
            for _ in range(4):
                gens = rng.sample(range(1, n), rng.randint(1, min(4, n - 1)))
                edges = [(i, (i + a) % n) for i in range(n) for a in gens]
                assert circulant(n, gens) == Graph(n, edges), (n, gens)

    @pytest.mark.parametrize("gen", [2.5, 2.0, "3"])
    def test_non_integral_generator_rejected(self, gen):
        # int() would truncate 2.5 to 2 and parse "3"; the generator is named.
        with pytest.raises(ValueError, match=re.escape(f"generator {gen!r} is not an integer")):
            circulant(7, (gen,))

    @pytest.mark.parametrize(
        "n, gens",
        [(12, (2, 4)), (12, (3, 6)), (15, (3, 6)), (10, (2, 4)), (9, (1, 3))],
    )
    def test_component_count_is_gcd(self, n, gens):
        g = circulant(n, gens)
        expected = math.gcd(n, *gens)
        assert circulant_component_count(n, gens) == expected
        assert len(connected_components(g)) == expected


class TestNormalization:
    def test_swap_order(self):
        assert normalize_circulant_pair(10, 3, 1) == (1, 3)

    def test_mirror_large_generator(self):
        # 9 = 10-1 mirrors to 1.
        assert normalize_circulant_pair(10, 9, 3) == (1, 3)
        assert normalize_circulant_pair(12, 11, 9) == (1, 3)

    def test_rejects_zero_and_equal(self):
        with pytest.raises(ValueError):
            normalize_circulant_pair(10, 5, 10)
        with pytest.raises(ValueError):
            normalize_circulant_pair(10, 3, 3)
        with pytest.raises(ValueError):
            normalize_circulant_pair(10, 3, 7)  # 7 = -3, same generator


class TestFolds:
    def test_fold_in_complete_bipartite(self):
        # K33 as a circulant: all odd differences; one side's vertices
        # share their whole neighborhood, so folds exist.
        g = circulant(6, (1, 3))
        assert find_fold(g) is not None

    def test_no_fold_in_five_cycle(self):
        assert find_fold(circulant(5, (1,))) is None

    def test_no_fold_under_schedule_hypotheses(self):
        # Distinct, never-nested neighborhoods for generic parameters.
        for n, s, t in ((13, 2, 3), (15, 1, 4), (9, 1, 3)):
            assert find_fold(circulant(n, (s, t))) is None

    def test_fold_reduce_k33_reaches_single_edge(self):
        g = fold_reduce(circulant(6, (1, 3)))
        assert g.num_vertices == 2
        assert len(g.edges()) == 1

    def test_fold_reduce_fixed_point(self):
        g = fold_reduce(circulant(8, (1, 3)))
        assert find_fold(g) is None

    def test_fold_of_path(self):
        # In a path, an endpoint's neighborhood nests in its neighbor's
        # other neighbor; the path folds down to a single edge.
        path = Graph(4, [(0, 1), (1, 2), (2, 3)])
        reduced = fold_reduce(path)
        assert reduced.num_vertices <= 2


def brute_force_find_fold(g):
    """Reference fold search: every ordered pair, lexicographically."""
    nbrs = [set(g.neighborhood(v)) for v in g.vertices()]
    for u, nu in enumerate(nbrs):
        for v, nv in enumerate(nbrs):
            if v != u and nu <= nv:
                return (u, v)
    return None


def random_fold_graph(seed):
    """Seeded non-regular graph with isolated vertices and twins."""
    rng = random.Random(seed)
    n = rng.randint(1, 14)
    edges = {
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < rng.choice((0.15, 0.3, 0.6))
    }
    # Give some vertex a twin: copy its neighborhood onto another vertex.
    if n >= 3 and rng.random() < 0.5:
        a, b = rng.sample(range(n), 2)
        edges = {e for e in edges if b not in e}
        edges |= {tuple(sorted((b, w))) for u, w in edges if u == a and w != b}
        edges |= {tuple(sorted((b, u))) for u, w in edges if w == a and u != b}
    # Isolate a vertex now and then.
    if n >= 2 and rng.random() < 0.4:
        c = rng.randrange(n)
        edges = {e for e in edges if c not in e}
    return Graph(n, sorted(edges))


def reference_fold_reduce(g):
    """Fold loop that searches from vertex 0 and rebuilds the relabeled
    graph after every deletion."""
    while (pair := brute_force_find_fold(g)) is not None:
        u = pair[0]
        keep = [v for v in g.vertices() if v != u]
        index = {v: i for i, v in enumerate(keep)}
        g = Graph(len(keep), [(index[a], index[b]) for a, b in g.edges() if u not in (a, b)])
    return g


def reference_fold_order(g):
    """Vertices that reference_fold_reduce deletes, in order, by their
    labels in g."""
    nbrs = {v: set(g.neighborhood(v)) for v in g.vertices()}
    order = []
    while True:
        u = next(
            (u for u in nbrs if any(v != u and nbrs[u] <= nbrs[v] for v in nbrs)), None
        )
        if u is None:
            return order
        for w in nbrs.pop(u):
            nbrs[w].discard(u)
        order.append(u)


def steps_back(g):
    order = reference_fold_order(g)
    return any(b < a for a, b in zip(order, order[1:]))


def random_graphs():
    return [random_fold_graph(seed) for seed in range(300)] + [
        random_sparse_graph(seed) for seed in range(40)
    ]


class TestFindFoldMatchesBruteForce:
    def test_random_graphs(self):
        for seed in range(300):
            g = random_fold_graph(seed)
            assert find_fold(g) == brute_force_find_fold(g), seed

    def test_generator_covers_the_edge_cases(self):
        graphs = [random_fold_graph(seed) for seed in range(300)]
        degrees = [sorted(g.degree(v) for v in g.vertices()) for g in graphs]
        assert any(d[0] == 0 and len(d) > 1 for d in degrees)
        assert any(d[0] != d[-1] for d in degrees)
        assert any(
            g.neighborhood(u) and g.neighborhood(u) == g.neighborhood(v)
            for g in graphs
            for u in g.vertices()
            for v in range(u + 1, g.num_vertices)
        )

    def test_fold_reduce_matches_rebuild_loop(self):
        for i, g in enumerate(random_graphs()):
            assert fold_reduce(g) == reference_fold_reduce(g), i

    def test_generator_steps_back_below_a_deleted_vertex(self):
        # Deleting u makes a smaller neighbor foldable: the fold order
        # descends, so the worklist has to go back below u.
        assert any(steps_back(g) for g in random_graphs())

    def test_fold_reduce_matches_on_the_benchmark_pools(self, run):
        for seed in range(3):
            for i, g in enumerate(run.graph_pool(run.FULL, seed)):
                assert fold_reduce(g) == reference_fold_reduce(g), (seed, i)

    def test_deletion_reenables_a_smaller_neighbor(self):
        # The path 2 - 0 - 1 - 3 - 4: vertex 0 has no fold until the leaf 2
        # folds onto 1, after which N(0) = {1} lies in N(3).  A search that
        # never went back below 2 would fold 4 next and stop at a path.
        g = Graph(5, [(0, 1), (0, 2), (1, 3), (3, 4)])
        assert find_fold(g) == (2, 1)
        assert reference_fold_order(g) == [2, 0, 1]
        assert fold_reduce(g) == reference_fold_reduce(g) == Graph(2, [(0, 1)])

    @pytest.mark.parametrize(
        "g",
        [
            Graph(5),
            Graph(6, [(2, 4)]),
            Graph(7, [(1, 3), (3, 5), (5, 1)]),
            Graph(6, [(4, 5), (0, 5)]),
        ],
    )
    def test_isolated_vertices(self, g):
        assert fold_reduce(g) == reference_fold_reduce(g)

    @pytest.mark.parametrize(
        "g",
        [
            circulant(6, (1, 3)),
            Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]),
            Graph(6, [(0, 5), (1, 5), (2, 5), (3, 4)]),
        ],
    )
    def test_twins(self, g):
        assert fold_reduce(g) == reference_fold_reduce(g)

    @pytest.mark.parametrize("relabel", [False, True])
    def test_long_path(self, relabel):
        # Each deletion turns the next vertex into a foldable leaf.
        m = 60
        label = list(range(m))
        if relabel:
            random.Random(m).shuffle(label)
        g = Graph(m, [(label[i], label[i + 1]) for i in range(m - 1)])
        assert len(reference_fold_order(g)) == m - 2
        assert fold_reduce(g) == reference_fold_reduce(g) == Graph(2, [(0, 1)])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_edgeless(self, n):
        g = Graph(n)
        assert find_fold(g) == brute_force_find_fold(g) == (None if n == 1 else (0, 1))

    def test_many_isolated_vertices(self):
        # An isolated vertex gets one fold target, searched from u + 1;
        # find_fold must still report the smallest vertex, below u.
        isolated_first = 0
        for seed in range(300):
            rng = random.Random(seed)
            n = rng.randint(2, 25)
            active = sorted(rng.sample(range(n), rng.randint(0, n // 2)))
            edges = [e for e in combinations(active, 2) if rng.random() < 0.5]
            g = Graph(n, edges)
            pair = find_fold(g)
            assert pair == brute_force_find_fold(g), seed
            assert fold_reduce(g) == reference_fold_reduce(g), seed
            isolated_first += pair[0] > 0 and g.degree(pair[0]) == 0 and pair[1] == 0
        assert isolated_first >= 30

    def test_fold_reduce_stays_linear_on_isolated_vertices(self):
        # 20 000 vertices, all but three isolated.  Each isolated u folds
        # onto u + 1, which is still live; a search that started from
        # vertex 0 would walk past every deleted vertex, 2 * 10**8 steps.
        n = 20_000
        g = Graph(n, [(0, n // 2), (n // 2, n - 1)])
        t0 = time.perf_counter()
        reduced = fold_reduce(g)
        assert time.perf_counter() - t0 < 1.0
        assert reduced == Graph(2, [(0, 1)])


class TestExcludedGraphs:
    def test_shapes(self):
        k4, t_graph = complete_graph(4), k44_minus_matching()
        assert k4.num_vertices == 4 and len(k4.edges()) == 6
        assert t_graph.num_vertices == 8 and len(t_graph.edges()) == 12
        assert all(t_graph.degree(v) == 3 for v in t_graph.vertices())

    def test_t_graph_is_k44_minus_matching(self):
        t_graph = k44_minus_matching()
        # Bipartite sides 0-3 and 4-7; i misses exactly its partner i+4.
        for i in range(4):
            assert i + 4 not in t_graph.neighborhood(i)
            assert t_graph.degree(i) == 3

    def test_t_graph_is_not_circulant_on_8(self):
        # The 3-regular circulants on 8 vertices are the Moebius ladder
        # C_8(1, 4) = C_8(3, 4) and 2K_4 = C_8(2, 4); by exhaustion, none
        # of them is T.
        for gens in [(1, 4), (2, 4), (3, 4)]:
            assert not reference_is_excluded(circulant(8, gens))
        assert reference_is_excluded(k44_minus_matching())


class TestEdgeListIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# comment\n0 1\n1 2\n\n2 3\n")
        g = read_edge_list(path)
        assert g.num_vertices == 4
        assert len(g.edges()) == 3

    def test_bad_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 1\nnot an edge\n")
        with pytest.raises(ValueError, match=r":2:"):
            read_edge_list(path)

    @pytest.mark.parametrize(
        "line,message",
        [("3 -1", "negative vertex label"), ("2 2", "self-loop at vertex 2")],
    )
    def test_bad_label_reports_location(self, tmp_path, line, message):
        path = tmp_path / "bad.edges"
        path.write_text(f"0 1\n{line}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: {message}")):
            read_edge_list(path)

    def test_undecodable_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"0 1\n\xff\xfe 2\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: not UTF-8")):
            read_edge_list(path)

    def test_line_endings_as_in_text_mode(self, tmp_path):
        # \r, \r\n and \n each end a line, and count as one.
        path = tmp_path / "g.edges"
        path.write_bytes(b"0 1\r1 2\r\n2 3\n\rx\n")
        with pytest.raises(ValueError, match=r":5: expected two vertex labels"):
            read_edge_list(path)
        path.write_bytes(b"0 1\r1 2\r\n2 3\n")
        assert read_edge_list(path).edges() == [(0, 1), (1, 2), (2, 3)]

    def test_label_bound(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text(f"0 {MAX_VERTEX_LABEL}\n")
        assert read_edge_list(path).num_vertices == MAX_VERTEX_LABEL + 1
        path.write_text(f"0 1\n{MAX_VERTEX_LABEL + 1} 0\n")
        with pytest.raises(ValueError, match=r":2: vertex label above"):
            read_edge_list(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_edge_list(tmp_path / "absent.edges")


class TestConnectivity:
    def test_connected(self):
        assert is_connected(circulant(10, (1, 3)))

    def test_disconnected(self):
        assert not is_connected(circulant(10, (2, 4)))

    def test_components_ordered_by_min_vertex(self):
        comps = connected_components(circulant(10, (2, 4)))
        assert comps[0][0] == 0 and comps[1][0] == 1
