"""Elementary collapses, pair schedules, and their failure modes."""

import random
import time
from itertools import combinations

import pytest
from conftest import (
    complete_graph,
    paper_edge_pairs,
    random_family,
    random_sparse_graph,
    reference_collapse_step,
    reference_replay,
    reference_verify_collapsible_pair,
)

from nctopo import classify, collapse
from nctopo.classify import reduce_to_core
from nctopo.cli import admissible_triples
from nctopo.collapse import (
    _edge_congruences,
    _Engine,
    _has_free_face,
    apply_pairs,
    circulant_schedule,
    collapse_core,
)
from nctopo.complexes import SimplicialComplex, neighborhood_complex
from nctopo.graphs import circulant, find_fold
from nctopo.homology import homology


def nbhd(n, s, t):
    return neighborhood_complex(circulant(n, (s, t)))


def padded_profile(h, dim):
    pad = dim + 1 - len(h.betti_z)
    return (
        h.betti_z + (0,) * pad,
        h.torsion + ((),) * pad,
        h.betti_z2 + (0,) * pad,
    )


def same_homotopy_invariants(a, b):
    # Profiles of different top dimension agree up to trailing zeros.
    dim = max(len(a.betti_z), len(b.betti_z)) - 1
    return padded_profile(a, dim) == padded_profile(b, dim)


def replay(k, pairs):
    """The complex apply_pairs leaves after pairs, or None if it refuses one."""
    maximal = apply_pairs(k, pairs)
    return None if maximal is None else SimplicialComplex(maximal, antichain=True)


def is_free(k, sigma, tau):
    """Whether apply_pairs takes the single pair, checked against the reference."""
    free = apply_pairs(k, [(sigma, tau)]) is not None
    assert free == reference_verify_collapsible_pair(k, sigma, tau)
    return free


def step(k, pair):
    """k after apply_pairs of the single pair, or None when it is refused;
    checked against the reference step."""
    out = replay(k, [pair])
    assert out == reference_collapse_step(k, pair)
    return out


class TestVerifyPair:
    def test_vertex_free_in_solid_triangle(self, solid_triangle):
        assert is_free(solid_triangle, (0,), (0, 1, 2))

    def test_edge_free_in_solid_triangle(self, solid_triangle):
        assert is_free(solid_triangle, (0, 1), (0, 1, 2))

    def test_not_a_subset(self, solid_triangle):
        assert not is_free(solid_triangle, (0, 1), (0, 1))

    def test_tau_not_maximal(self):
        k = SimplicialComplex([(0, 1, 2), (1, 2, 3)])
        assert not is_free(k, (1,), (1, 2))

    def test_shared_face_is_not_free(self):
        k = SimplicialComplex([(0, 1, 2), (1, 2, 3)])
        assert not is_free(k, (1, 2), (0, 1, 2))

    def test_missing_face_is_refused(self, solid_triangle):
        assert not is_free(solid_triangle, (0, 5), (0, 1, 2))
        assert not is_free(solid_triangle, (0,), (0, 1, 5))

    def test_cycle_has_no_free_edges(self):
        square = SimplicialComplex([(0, 1), (1, 2), (2, 3), (0, 3)])
        for v in range(4):
            for e in square.faces(1):
                if v in e:
                    assert not is_free(square, (v,), e)


class TestCollapseStep:
    def test_vertex_collapse_removes_whole_interval(self, solid_triangle):
        out = step(solid_triangle, ((0,), (0, 1, 2)))
        assert out.maximal_simplices == ((1, 2),)

    def test_edge_collapse_leaves_spanning_path(self, solid_triangle):
        out = step(solid_triangle, ((0, 1), (0, 1, 2)))
        assert out.maximal_simplices == ((0, 2), (1, 2))

    def test_invalid_pair_is_refused(self):
        k = SimplicialComplex([(0, 1, 2), (1, 2, 3)])
        assert step(k, ((1, 2), (0, 1, 2))) is None

    def test_unsorted_tau_is_refused(self, solid_triangle):
        # Pairs are sorted vertex tuples, as traces record them: (2, 0, 1)
        # is no maximal simplex of the triangle.
        assert step(solid_triangle, ((0, 1), (2, 0, 1))) is None
        out = step(solid_triangle, ((0, 1), (0, 1, 2)))
        assert out.maximal_simplices == ((0, 2), (1, 2))

    def test_euler_characteristic_is_preserved(self):
        k = nbhd(8, 1, 3)
        pair = (((1 + 0) % 8, (8 - 1) % 8), (1, 3, 5, 7))
        pair = (tuple(sorted(pair[0])), pair[1])
        out = step(k, pair)
        assert out.euler_characteristic() == k.euler_characteristic()


class TestGenericCore:
    def test_collapsible_complex_reaches_a_vertex(self):
        k = SimplicialComplex([(0, 1, 2, 3)])
        tr = collapse_core(k)
        assert tr.core.f_vector() == (1,)
        assert tr.strategy == "generic"
        assert tr.schedule is None

    def test_core_has_no_free_faces(self):
        from itertools import combinations

        core = collapse_core(nbhd(9, 1, 3)).core
        for tau in core.maximal_simplices:
            for r in range(1, len(tau)):
                for sigma in combinations(tau, r):
                    assert not is_free(core, sigma, tau)

    def test_deterministic(self):
        a = collapse_core(nbhd(11, 2, 3))
        b = collapse_core(nbhd(11, 2, 3))
        assert a.pairs == b.pairs
        assert a.core == b.core

    def test_replay_reproduces_core(self):
        k = nbhd(10, 1, 3)
        tr = collapse_core(k)
        assert SimplicialComplex(apply_pairs(k, tr.pairs), antichain=True) == tr.core

    def test_homology_preserved(self):
        k = nbhd(9, 1, 3)
        tr = collapse_core(k)
        assert same_homotopy_invariants(homology(k), homology(tr.core))

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            collapse_core(SimplicialComplex([(0, 1)]), strategy="magic")

    def test_circulant_strategy_needs_parameters(self):
        with pytest.raises(ValueError):
            collapse_core(SimplicialComplex([(0, 1)]), strategy="circulant")


def edges_admitted(n, s, t):
    """Whether the edge-pair lemma's five congruences all hold."""
    return all(value for _, value in _edge_congruences(n, s, t))


class TestEdgeSchedule:
    def test_pair_shape(self):
        label, pairs = circulant_schedule(13, 2, 3)
        assert label == "edges(s)"
        assert len(pairs) == 13
        sigma, tau = pairs[0]
        assert sigma == (2, 11)
        assert tau == (2, 3, 10, 11)

    def test_zero_generator_rejected(self):
        with pytest.raises(ValueError):
            circulant_schedule(10, 10, 3)

    @pytest.mark.parametrize(
        "n,s,t,name",
        [
            (10, 5, 2, "2s"),
            (12, 1, 5, "2(s+t)"),
            (10, 2, 4, "3s+t"),
            (10, 1, 3, "3s-t"),
            (12, 3, 5, "4s"),
        ],
    )
    def test_congruence_guard(self, n, s, t, name):
        assert dict(_edge_congruences(n, s, t))[name] == 0
        chosen = circulant_schedule(n, s, t)
        assert chosen is None or chosen[0] != "edges(s)"

    @pytest.mark.parametrize("n,s,t", [(10, 5, 2), (12, 3, 5), (10, 1, 3), (10, 2, 4)])
    def test_violations_break_statically(self, n, s, t):
        # Each of these congruence failures gives the free edge a second
        # maximal coface, so every pair is already invalid in the full complex.
        pairs = paper_edge_pairs(n, s, t)
        k = nbhd(n, s, t)
        assert not any(is_free(k, sg, tu) for sg, tu in pairs)

    def test_doubled_simplices_break_sequentially(self):
        # 2(s+t) == n makes N(k) and N(k+n/2) the same simplex.  Every pair
        # then verifies against the full complex, but the schedule revisits
        # each coface once, so the replay must fail halfway through.
        n, s, t = 12, 1, 5
        pairs = paper_edge_pairs(n, s, t)
        k = nbhd(n, s, t)
        assert all(is_free(k, sg, tu) for sg, tu in pairs)
        states = reference_replay(k, pairs)
        assert states[-1] is None
        assert len(states) - 2 == n // 2
        assert apply_pairs(k, pairs[: n // 2]) is not None
        assert apply_pairs(k, pairs) is None

    def test_guard_matches_schedule_on_every_fold_free_instance(self):
        # The edge-schedule lemma, exhaustively for n = 5..40 in both
        # generator orders: the congruences refuse exactly the schedules
        # that stop at a pair that is not free, each with tau = N(k) in the
        # circulant, and circulant_schedule offers the paper's pairs of the
        # first order they admit.
        held = refused = 0
        for n, s, t in admissible_triples(5, 40):
            g = circulant(n, (s, t))
            if find_fold(g) is not None:
                continue
            k = neighborhood_complex(g)
            admitted = []
            for label, a, b in (("edges(s)", s, t), ("edges(t)", t, s)):
                expect = paper_edge_pairs(n, a, b)
                assert [tau for _, tau in expect] == [g.neighborhood(v) for v in range(n)]
                applies = apply_pairs(k, expect) is not None
                assert applies == edges_admitted(n, a, b), (n, a, b)
                if applies:
                    admitted.append((label, expect))
                    held += 1
                else:
                    refused += 1
            chosen = circulant_schedule(n, s, t)
            if admitted:
                assert chosen == admitted[0], (n, s, t)
            else:
                assert chosen is None or chosen[0] == "triangles", (n, s, t)
        assert (held, refused) == (4123, 623)

    def test_valid_schedule_applies_fully(self):
        n, s, t = 13, 2, 3
        _, pairs = circulant_schedule(n, s, t)
        k = nbhd(n, s, t)
        cur = reference_replay(k, pairs)[-1]
        assert cur.f_vector() == (13, 39, 26)
        assert replay(k, pairs) == cur


class TestTriangleSchedule:
    def test_families_only(self):
        # Both edge forms of (10, 1, 3) are refused (3s - t and 3t + s
        # vanish), and it lies in neither triangle family.
        assert not edges_admitted(10, 1, 3) and not edges_admitted(10, 3, 1)
        assert circulant_schedule(10, 1, 3) is None

    def test_zero_generator_rejected(self):
        # A plain ValueError, no subclass of it.
        with pytest.raises(ValueError) as exc:
            circulant_schedule(12, 0, 3)
        assert type(exc.value) is ValueError

    def test_tripled_generator_family(self):
        label, pairs = circulant_schedule(12, 1, 3)
        assert label == "triangles"
        assert len(pairs) == 12
        assert pairs[0] == ((1, 3, 9), (1, 3, 9, 11))

    def test_three_fifths_family(self):
        label, pairs = circulant_schedule(12, 3, 5)
        assert label == "triangles"
        assert pairs[0] == ((3, 5, 9), (3, 5, 7, 9))

    @pytest.mark.parametrize("n,s,t", [(12, 1, 3), (12, 3, 5), (24, 2, 6)])
    def test_schedule_verifies_stepwise(self, n, s, t):
        label, pairs = circulant_schedule(n, s, t)
        assert label == "triangles"
        k = nbhd(n, s, t)
        cur = reference_replay(k, pairs)[-1]
        assert len(cur.faces(3)) == 0
        assert replay(k, pairs) == cur


class TestCirculantStrategy:
    @pytest.mark.parametrize(
        "n,s,t,schedule",
        [
            (13, 2, 3, "edges(s)"),
            (15, 1, 4, "edges(s)"),
            (8, 2, 3, "edges(t)"),
            (12, 1, 3, "triangles"),
            (12, 3, 5, "triangles"),
        ],
    )
    def test_schedule_selection(self, n, s, t, schedule):
        tr = collapse_core(nbhd(n, s, t), strategy="circulant", circulant=(n, s, t))
        assert tr.schedule == schedule
        assert tr.strategy == "circulant"

    def test_falls_back_to_generic_when_a_pair_is_not_free(self, monkeypatch):
        # The sixth pair repeats the fifth, whose tau is gone by then.  The
        # generic strategy then collapses the whole complex, as if no
        # schedule had been offered.
        n, s, t = 13, 2, 3
        k = nbhd(n, s, t)
        label, pairs = circulant_schedule(n, s, t)
        broken = pairs[:5] + [pairs[4]] + pairs[6:]
        assert apply_pairs(k, pairs[:5]) is not None
        assert apply_pairs(k, broken) is None
        monkeypatch.setattr(collapse, "circulant_schedule", lambda *nst: (label, broken))
        tr = collapse_core(k, strategy="circulant", circulant=(n, s, t))
        generic = collapse_core(k)
        assert (tr.strategy, tr.schedule) == ("circulant", None)
        assert (tr.pairs, tr.core) == (generic.pairs, generic.core)
        assert tr.pairs[:5] != tuple(pairs[:5])

    def test_falls_back_to_generic_when_no_schedule(self):
        # Both edge forms die on a congruence here, yet the complex still
        # collapses generically down to a hexagon.
        n, s, t = 12, 1, 5
        tr = collapse_core(nbhd(n, s, t), strategy="circulant", circulant=(n, s, t))
        assert tr.schedule is None
        assert len(tr.pairs) == 18
        assert tr.core.f_vector() == (6, 6)

    def test_closed_pseudomanifold_has_no_pairs(self):
        # Doubled-sphere components admit no free face at all.
        n, s, t = 10, 1, 3
        tr = collapse_core(nbhd(n, s, t), strategy="circulant", circulant=(n, s, t))
        assert tr.schedule is None
        assert tr.pairs == ()
        assert tr.core.f_vector() == (10, 20, 20, 10)

    @pytest.mark.parametrize("n,s,t", [(13, 2, 3), (12, 1, 3), (8, 2, 3), (20, 3, 5)])
    def test_replay_reproduces_core(self, n, s, t):
        k = nbhd(n, s, t)
        tr = collapse_core(k, strategy="circulant", circulant=(n, s, t))
        assert SimplicialComplex(apply_pairs(k, tr.pairs), antichain=True) == tr.core

    @pytest.mark.parametrize("n,s,t", [(13, 2, 3), (12, 1, 3), (9, 1, 3), (16, 4, 5)])
    def test_matches_generic_homology(self, n, s, t):
        k = nbhd(n, s, t)
        a = collapse_core(k, strategy="circulant", circulant=(n, s, t))
        b = collapse_core(k)
        assert homology(a.core) == homology(b.core)

    def test_known_core_sizes(self):
        tr = collapse_core(nbhd(13, 2, 3), strategy="circulant", circulant=(13, 2, 3))
        assert tr.core.f_vector() == (13, 39, 26)
        tr = collapse_core(nbhd(12, 1, 3), strategy="circulant", circulant=(12, 1, 3))
        assert tr.core.f_vector() == (12, 30, 24)


def random_pairs(k, rng, count):
    """Pairs drawn from the complex: faces of maximal simplices against
    maximal simplices or their faces, plus a few non-faces."""
    maximal = k.maximal_simplices
    verts = list(k.vertices()) + [99]
    out = []
    for _ in range(count):
        tau = list(rng.choice(maximal))
        if len(tau) > 1 and rng.random() < 0.3:
            tau.pop(rng.randrange(len(tau)))
        src = tau if rng.random() < 0.8 else list(rng.choice(maximal))
        sigma = rng.sample(src, rng.randint(0, len(src)))
        if rng.random() < 0.1:
            sigma.append(rng.choice(verts))
        rng.shuffle(sigma)
        out.append((sigma, tau))
    return out


def outcome(k, sigma, tau):
    """True or False as apply_pairs takes or refuses the single pair, both
    checked against the reference, or "not a face" when it is refused
    because sigma or tau is no face of k."""
    free = step(k, (sigma, tau)) is not None
    if not free and not all(k.maximal_cofaces(face) for face in (sigma, tau)):
        return "not a face"
    return free


class TestVerifyPairMatchesReference:
    def test_random_complexes(self):
        # The pairs as drawn: sigma unsorted and with repeats at times.
        rng = random.Random(0)
        seen = set()
        for seed in range(400):
            k = SimplicialComplex(random_family(seed))
            if not k.maximal_simplices:
                continue
            for sigma, tau in random_pairs(k, rng, 12):
                seen.add(outcome(k, tuple(sigma), tuple(tau)))
        assert seen == {True, False, "not a face"}

    def test_pipeline_traces(self, pipeline_inputs):
        rng = random.Random(1)
        replayed = 0
        for start, trace in pipeline_inputs["traces"]:
            if len(start.maximal_simplices) > 200:
                continue
            k = start
            for sigma, tau in trace.pairs:
                assert is_free(k, sigma, tau)
                for sg, tu in random_pairs(k, rng, 2):
                    step(k, (tuple(sg), tuple(tu)))
                k = step(k, (sigma, tau))
                replayed += 1
            assert k == trace.core
        assert replayed > 1000


def sweep_traces(lo, hi):
    """(complex, trace) of reduce_to_core on every admissible circulant
    with lo <= n <= hi, as verify runs it."""
    for n, s, t in admissible_triples(lo, hi):
        _, k, trace = reduce_to_core(circulant(n, (s, t)), (n, s, t))
        yield k, trace


class TestReplayEveryTrace:
    def test_sweep_and_graph_traces_replay_to_their_cores(self, run):
        start = time.perf_counter()
        traces = list(sweep_traces(5, 40))
        traces += [reduce_to_core(g)[1:] for g in run.graph_pool(run.FULL, 0)]
        made = time.perf_counter()
        assert len(traces) == 2469 + 41
        for k, trace in traces:
            assert SimplicialComplex(apply_pairs(k, trace.pairs), antichain=True) == trace.core
        done = time.perf_counter()
        # The budget: replaying costs less than folding, building and
        # collapsing did, about 0.55 s against 1.6 s on a 2-vCPU VM with
        # Python 3.11.  A ratio holds on a slower or traced run too.
        assert done - made < made - start, (done - made, made - start)

    def test_reference_replays_every_schedule_trace(self):
        traces = pairs = 0
        for k, trace in sweep_traces(5, 25):
            if trace.schedule is None:
                continue
            assert reference_replay(k, trace.pairs)[-1] == trace.core
            traces += 1
            pairs += len(trace.pairs)
        assert (traces, pairs) == (525, 12373)

    def test_corrupted_generic_trace_is_refused(self):
        # Each pair in turn keeps its tau, still maximal when reached, and
        # takes as sigma a vertex of tau that another maximal simplex
        # shares then: only the free-face test can refuse it.
        k = nbhd(9, 1, 3)
        pairs = list(collapse_core(k).pairs)
        states = reference_replay(k, pairs)
        assert states[-1] is not None
        assert len(pairs) == 24
        for i, (_, tau) in enumerate(pairs):
            shared = [v for v in tau if len(states[i].star(v)) > 1]
            bad = ((shared[0],), tau)
            assert reference_collapse_step(states[i], bad) is None
            assert apply_pairs(k, pairs[:i]) is not None
            assert apply_pairs(k, pairs[:i] + [bad] + pairs[i + 1 :]) is None


class ReferenceEngine:
    """The collapse engine before the free-face heap: it scans the whole
    face -> cofaces map for every pair."""

    def __init__(self, k):
        self.maximal = set(k.maximal_simplices)
        self.cofaces = {}
        for m in self.maximal:
            self._register(m)

    def _register(self, m):
        for r in range(1, len(m)):
            for f in combinations(m, r):
                self.cofaces.setdefault(f, set()).add(m)

    def is_free_pair(self, sigma, tau):
        return tau in self.maximal and self.cofaces.get(sigma) == {tau}

    def collapse(self, sigma, tau):
        self.maximal.remove(tau)
        for r in range(1, len(tau)):
            for f in combinations(tau, r):
                cfs = self.cofaces[f]
                cfs.discard(tau)
                if not cfs:
                    del self.cofaces[f]
        for x in sigma:
            cand = tuple(v for v in tau if v != x)
            if cand and cand not in self.cofaces:
                self.maximal.add(cand)
                self._register(cand)

    def find_free_generic(self):
        best = None
        for f, cfs in self.cofaces.items():
            if len(cfs) == 1:
                tau = next(iter(cfs))
                if best is None or (-len(tau), f) < (-len(best[1]), best[0]):
                    best = (f, tau)
        return best


def reference_collapse_core(k, strategy="generic", circulant=None):
    """(pairs, core, schedule) as collapse_core computes them, with a full
    engine for the offered schedule and a full scan per generic pair."""
    eng = ReferenceEngine(k)
    pairs, schedule = [], None
    chosen = circulant_schedule(*circulant) if strategy == "circulant" else None
    if chosen is not None:
        label, sched = chosen
        trial = ReferenceEngine(k)
        for pair in sched:
            if not trial.is_free_pair(*pair):
                break
            trial.collapse(*pair)
        else:
            eng, schedule = trial, label
            pairs.extend(sched)
    while (pair := eng.find_free_generic()) is not None:
        eng.collapse(*pair)
        pairs.append(pair)
    return tuple(pairs), SimplicialComplex(eng.maximal), schedule


def assert_matches_reference(k, strategy="generic", circulant=None):
    tr = collapse_core(k, strategy=strategy, circulant=circulant)
    assert (tr.pairs, tr.core, tr.schedule) == reference_collapse_core(k, strategy, circulant)
    return tr


class TestEngineMatchesReference:
    def test_random_complexes(self):
        rng = random.Random(2)
        pairs = 0
        for seed in range(400):
            k = SimplicialComplex(random_family(seed))
            pairs += len(assert_matches_reference(k).pairs)
            n = rng.randint(5, 14)
            t = rng.randint(2, n // 2)
            assert_matches_reference(k, "circulant", (n, rng.randint(1, t - 1), t))
        assert pairs > 2000

    def test_pipeline_calls(self, pipeline_inputs):
        schedules = set()
        for k, strategy, circ in pipeline_inputs["collapse_calls"]:
            schedules.add(assert_matches_reference(k, strategy, circ).schedule)
        assert schedules == {None, "edges(s)", "edges(t)", "triangles"}

    def test_analyze_graph_inputs(self, bench_stages):
        graphs = [random_sparse_graph(seed) for seed in range(40)]
        rec = bench_stages.record(lambda: [classify.analyze_graph(g) for g in graphs])
        assert len(rec["collapses"]) == 40
        pairs = sum(len(assert_matches_reference(*call).pairs) for call, *_ in rec["collapses"])
        assert pairs > 500

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_perfbench_graph_pools(self, run, bench_stages, seed):
        pool = run.graph_pool(run.FULL, seed)
        rec = bench_stages.record(lambda: [classify.analyze_graph(g) for g in pool])
        assert len(rec["collapses"]) == len(pool)
        pairs = sum(len(assert_matches_reference(*call).pairs) for call, *_ in rec["collapses"])
        assert pairs > 1000


def assert_engine_matches_fresh(eng):
    """The engine's maximal set, face map and next pair are those of an
    engine built from scratch on the complex it now holds."""
    fresh = ReferenceEngine(SimplicialComplex(eng.maximal))
    assert eng.maximal == fresh.maximal
    assert eng.cofaces == fresh.cofaces
    assert eng.find_free_generic() == fresh.find_free_generic()


class TestEngineSwap:
    """One collapse swaps tau for its kept candidates in each face's
    coface set; the state must equal a fresh engine's on the result."""

    def collapsed(self, maximal, sigma, tau):
        k = SimplicialComplex(maximal)
        assert is_free(k, sigma, tau)
        eng = _Engine(k)
        eng.collapse(sigma, tau)
        assert SimplicialComplex(eng.maximal) == step(k, (sigma, tau))
        assert_engine_matches_fresh(eng)
        return eng

    def test_edge_in_tetrahedron_one_candidate_absorbed(self):
        # tau - 0 = (1, 2, 3) lies in (1, 2, 3, 4) and is absorbed;
        # tau - 1 = (0, 2, 3) is kept.
        eng = self.collapsed([(0, 1, 2, 3), (1, 2, 3, 4)], (0, 1), (0, 1, 2, 3))
        assert eng.maximal == {(0, 2, 3), (1, 2, 3, 4)}
        assert eng.cofaces[(2, 3)] == {(0, 2, 3), (1, 2, 3, 4)}
        assert (0, 2, 3) not in eng.cofaces

    def test_vertex_sigma_keeps_its_one_candidate(self):
        eng = self.collapsed([(0, 1, 2, 3)], (0,), (0, 1, 2, 3))
        assert eng.maximal == {(1, 2, 3)}
        assert set(eng.cofaces) == {(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)}

    def test_candidate_absorbed_below_the_top_dimension(self):
        # The triangles are maximal below the tetrahedron's dimension;
        # collapsing (4,) out of (4, 5, 6) leaves (5, 6), which lies in the
        # triangle (5, 6, 7), so nothing is kept and tau is only removed.
        eng = self.collapsed([(0, 1, 2, 3), (4, 5, 6), (5, 6, 7)], (4,), (4, 5, 6))
        assert eng.maximal == {(0, 1, 2, 3), (5, 6, 7)}
        assert eng.cofaces[(5, 6)] == {(5, 6, 7)}
        assert (4,) not in eng.cofaces

    def test_whole_runs_match_fresh_engines(self):
        for seed in range(60):
            eng = _Engine(SimplicialComplex(random_family(seed)))
            while (pair := eng.find_free_generic()) is not None:
                eng.collapse(*pair)
                assert_engine_matches_fresh(eng)


def engine_starts(collapse_calls):
    """Each complex collapse_core was called on, and the core that the
    schedule offered for it leaves when it applies: what an engine can
    start from."""
    for k, strategy, circ in collapse_calls:
        yield k
        chosen = circulant_schedule(*circ) if strategy == "circulant" else None
        applied = None if chosen is None else apply_pairs(k, chosen[1])
        if applied is not None:
            yield SimplicialComplex(applied, antichain=True)


class TestEngineStart:
    """The engine reads each vertex's cofaces off the star index and
    registers only larger faces; it must start where a reference engine
    that registers every proper face of every maximal simplex starts."""

    def assert_starts_like_reference(self, k):
        eng, ref = _Engine(k), ReferenceEngine(k)
        assert eng.maximal == ref.maximal
        assert eng.cofaces == ref.cofaces
        assert eng.find_free_generic() == ref.find_free_generic()
        return eng

    def test_pipeline_start_complexes(self, pipeline_inputs):
        calls = pipeline_inputs["collapse_calls"]
        starts = list(engine_starts(calls))
        for k in starts:
            self.assert_starts_like_reference(k)
        assert len(starts) > len(calls)

    def test_isolated_vertex_has_no_entry(self):
        eng = self.assert_starts_like_reference(SimplicialComplex([(0,), (1, 2, 3)]))
        assert (0,) not in eng.cofaces
        assert eng.cofaces[(1,)] == {(1, 2, 3)}
        assert eng.find_free_generic() == ((1,), (1, 2, 3))

    def test_two_points_have_no_proper_face(self):
        k = neighborhood_complex(complete_graph(2))
        assert k.maximal_simplices == ((0,), (1,))
        eng = self.assert_starts_like_reference(k)
        assert eng.cofaces == {}
        assert eng.find_free_generic() is None


class TestEngineBuilds:
    @pytest.fixture
    def builds(self, monkeypatch):
        count = [0]
        init = collapse._Engine.__init__

        def counting(self, k):
            count[0] += 1
            init(self, k)

        monkeypatch.setattr(collapse._Engine, "__init__", counting)
        return count

    def test_schedule_that_leaves_nothing_free_builds_none(self, builds):
        k = nbhd(13, 2, 3)
        tr = collapse_core(k, strategy="circulant", circulant=(13, 2, 3))
        assert tr.schedule == "edges(s)"
        assert builds[0] == 0
        assert (tr.pairs, tr.core, tr.schedule) == reference_collapse_core(
            k, "circulant", (13, 2, 3)
        )

    @pytest.mark.parametrize("n,s,t", [(9, 2, 3), (7, 1, 2)])
    def test_schedule_with_generic_finish_builds_one_engine(self, builds, n, s, t):
        k = nbhd(n, s, t)
        tr = collapse_core(k, strategy="circulant", circulant=(n, s, t))
        assert tr.schedule is not None
        assert len(tr.pairs) > n
        assert builds[0] == 1
        assert (tr.pairs, tr.core, tr.schedule) == reference_collapse_core(
            k, "circulant", (n, s, t)
        )

    def test_generic_builds_one_engine(self, builds):
        collapse_core(nbhd(11, 2, 3))
        assert builds[0] == 1

    def test_first_pair_rejection_builds_none(self, builds):
        # (13, 2, 3) is offered its edges(s) schedule, but the first edge is
        # no face of the complex of C_13(1, 5): only the generic engine is
        # built.
        k = nbhd(13, 1, 5)
        assert circulant_schedule(13, 2, 3)[0] == "edges(s)"
        tr = collapse_core(k, strategy="circulant", circulant=(13, 2, 3))
        assert tr.schedule is None
        assert builds[0] == 1
        assert (tr.pairs, tr.core, None) == reference_collapse_core(k, "circulant", (13, 2, 3))


class TestStarSchedule:
    @pytest.mark.parametrize(
        "pair",
        [
            ((1,), (1, 2)),  # tau is not maximal
            ((3,), (0, 1, 2)),  # sigma is a face, but not of tau
            ((1, 2), (0, 1, 2)),  # sigma lies in (1, 2, 3) as well
            ((), (0, 1, 2)),  # sigma is empty
        ],
    )
    def test_refuses_pairs_that_are_not_free(self, pair):
        k = SimplicialComplex([(0, 1, 2), (1, 2, 3)])
        assert not reference_verify_collapsible_pair(k, *pair)
        assert apply_pairs(k, [pair]) is None

    def test_free_pair_matches_collapse_step(self):
        k = SimplicialComplex([(0, 1, 2), (1, 2, 3)])
        pair = ((0,), (0, 1, 2))
        assert reference_verify_collapsible_pair(k, *pair)
        maximal = apply_pairs(k, [pair])
        assert SimplicialComplex(maximal) == reference_collapse_step(k, pair)

    def test_agrees_with_verify_pair_on_random_pairs(self):
        # The pairs as sorted vertex tuples, empty sigmas included.
        rng = random.Random(3)
        seen = set()
        for seed in range(300):
            k = SimplicialComplex(random_family(seed))
            if not k.maximal_simplices:
                continue
            for sigma, tau in random_pairs(k, rng, 8):
                sigma, tau = tuple(sorted(set(sigma))), tuple(sorted(set(tau)))
                seen.add(outcome(k, sigma, tau))
        assert seen == {True, False, "not a face"}


def engine_finds_free_face(k):
    return _Engine(k).find_free_generic() is not None


def screen_finds_free_face(k):
    return _has_free_face(SimplicialComplex(k.maximal_simplices, antichain=True))


class TestRidgeScreen:
    SPHERE = list(combinations(range(4), 3))

    @pytest.mark.parametrize(
        "extra,free",
        [
            ([], False),
            ([(3, 4)], True),  # a hanging edge: its end 4 is free
            ([(3, 4), (4, 5), (3, 5)], False),  # a hollow triangle at vertex 3
            ([(3, 4), (4, 5), (3, 5), (6,)], False),  # and an isolated point
        ],
    )
    def test_free_face_below_the_top(self, extra, free):
        """A 2-sphere has no free face; only the lower-dimensional maximal
        simplices attached to it can supply one."""
        k = SimplicialComplex(self.SPHERE + extra)
        assert engine_finds_free_face(k) == free
        assert screen_finds_free_face(k) == free

    def test_random_complexes(self):
        seen = set()
        for seed in range(400):
            k = SimplicialComplex(random_family(seed))
            for c in (k, collapse_core(k).core):
                free = engine_finds_free_face(c)
                assert screen_finds_free_face(c) == free
                seen.add(free)
        assert seen == {True, False}

    def test_pipeline_inputs(self, pipeline_inputs):
        seen = set()
        for c in engine_starts(pipeline_inputs["collapse_calls"]):
            free = engine_finds_free_face(c)
            assert screen_finds_free_face(c) == free
            seen.add(free)
        assert seen == {True, False}


class TestPipelineSample:
    def test_sample_meets_every_collapse_outcome(self, pipeline_inputs):
        """The recorded sweep sample reaches all four ways collapse_core
        can go: a schedule hit that leaves nothing free, a schedule hit
        with a generic finish, a circulant miss, and the fold path."""
        seen = set()
        calls = pipeline_inputs["collapse_calls"]
        for (k, strategy, circ), (_, trace) in zip(calls, pipeline_inputs["traces"]):
            if strategy == "generic":
                seen.add("fold path")
            elif trace.schedule is None:
                seen.add("circulant miss")
            else:
                label, sched = circulant_schedule(*circ)
                assert label == trace.schedule
                seen.add("generic finish" if len(trace.pairs) > len(sched) else "nothing free")
        assert seen == {"nothing free", "generic finish", "circulant miss", "fold path"}
