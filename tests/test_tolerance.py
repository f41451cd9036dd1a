"""The folded PMC computation and the scenario sweep are cross-checked
against the defining quantifier (every scenario of every size up to the
budget) on small graphs, so the fast paths never drift from the
definition they implement."""

import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_graphs, graphs, twin_graphs
from diagnoscope.diagnosis import (
    DiagModel,
    _diagnosability_cached,
    _find_indistinguishable,
    _search_differences,
    diagnosability,
    is_t_diagnosable,
)
from diagnoscope.families import (
    circulant,
    complete,
    complete_bipartite,
    cycle,
    hypercube,
    make_gamma,
    petersen,
    prism,
    random_t_connected,
    wheel,
    GammaSpec,
)
from diagnoscope.graphs import GraphError, automorphism_generators, bits_of, build_graph, delete_edges
from diagnoscope import diagnosis, tolerance
from diagnoscope.tolerance import (
    METHOD_BRUTE,
    METHOD_THEOREM,
    _pmc_break_table,
    _scenario_sweep,
    Facts,
    edge_tolerable_diagnosability,
    theoretical_bounds,
)
from diagnoscope.verification import default_corpus
from oracles import edge_tolerable_by_definition

PMC = DiagModel.PMC
MM = DiagModel.MMSTAR


def sweep_oracle(g, h, model):
    """Minimum diagnosability over all scenarios of size exactly min(h, m)."""
    size = min(h, g.m)
    return min(
        diagnosability(delete_edges(g, sc), model)
        for sc in combinations(g.edges, size)
    )


def reference_break_table(g):
    """The folded PMC table by a scan over every union U, frozen.

    For every candidate pair grouped as (U, D) with outside O = V - U, the
    pair is indistinguishable after deleting exactly the edges between O
    and D; it defeats t-diagnosability for all t >= |U| - floor(|D| / 2).
    Only pairs with breaking threshold at most delta + 1 can matter, so
    |U| <= 2 * (delta + 1) bounds the scan.  thresholds[r] is the minimum
    threshold at cost r and scenarios[r] the edge set of the first such
    pair in scan order (size ascending, then lexicographic U, then
    ascending D).
    """
    n = g.n
    delta = g.min_degree
    adj = g.adj_masks
    full = g.full_mask
    infinite = n + 2
    best = [infinite] * (delta + 1)
    witness: list = [None] * (delta + 1)
    max_u = min(2 * (delta + 1), n)
    cur_max = infinite  # pairs at or above every stored threshold cannot help
    for usize in range(1, max_u + 1):
        for combo in combinations(range(n), usize):
            u_mask = 0
            for v in combo:
                u_mask |= 1 << v
            o_mask = full ^ u_mask
            costs = {}
            cands = 0
            for v in combo:
                c = (adj[v] & o_mask).bit_count()
                if c <= delta:
                    costs[v] = c
                    cands |= 1 << v
            if not cands:
                continue
            if usize - (cands.bit_count() >> 1) >= cur_max:
                continue
            d_mask = 0
            while True:
                d_mask = (d_mask - cands) & cands
                if d_mask == 0:
                    break
                threshold = usize - (d_mask.bit_count() >> 1)
                if threshold >= cur_max:
                    continue
                r = 0
                rest = d_mask
                while rest:
                    low = rest & -rest
                    rest ^= low
                    r += costs[low.bit_length() - 1]
                    if r > delta:
                        break
                if r <= delta and threshold < best[r]:
                    best[r] = threshold
                    witness[r] = (u_mask, d_mask)
                    cur_max = max(best)
    scenarios = []
    for r in range(delta + 1):
        if witness[r] is None:
            scenarios.append(None)
            continue
        u_mask, d_mask = witness[r]
        o_mask = full ^ u_mask
        cut = []
        for v in bits_of(d_mask):
            for w in bits_of(adj[v] & o_mask):
                cut.append((v, w) if v < w else (w, v))
        scenarios.append(tuple(sorted(cut)))
    return tuple(best), tuple(scenarios)


def reference_sweep(g, size, model):
    """The serial scenario sweep over every size-``size`` scenario, frozen.

    Scans ``combinations(g.edges, size)`` in order and replaces the result
    only on a strictly smaller value, so it returns the minimum and the
    lexicographically first scenario attaining it.
    """
    best_val = None
    best_scenario = ()
    for scenario in combinations(g.edges, size):
        g2 = delete_edges(g, scenario)
        if best_val is None:
            best_val = diagnosability(g2, model)
            best_scenario = scenario
        else:
            if is_t_diagnosable(g2, best_val, model).diagnosable:
                continue
            t = best_val - 1
            while t > 0 and not is_t_diagnosable(g2, t, model).diagnosable:
                t -= 1
            best_val = t
            best_scenario = scenario
        if best_val == 0:
            break
    return best_val, best_scenario


def clear_caches():
    tolerance._tolerance_cached.cache_clear()
    _pmc_break_table.cache_clear()
    _diagnosability_cached.cache_clear()


def count_refutations(monkeypatch):
    """Route the sweep's engine calls through a counter; returns the list
    of thresholds it was called at."""
    calls = []

    def counting(adj, t, model, pairs=()):
        calls.append(t)
        return _find_indistinguishable(adj, t, model, pairs=pairs)

    monkeypatch.setattr(tolerance, "_find_indistinguishable", counting)
    return calls


def ascending_sweep(g, size, model):
    """The scenario sweep's (value, scenario) at ``size``, run level by level
    from t(G) with its own record, as a profile runs it; under PMC too, whose
    production values come from the fold."""
    pair, record, group = (diagnosability(g, model), ()), {}, []
    for level in range(1, size + 1):
        pair = _scenario_sweep(g, level, model, pair[0], record, group)
    return pair


def symmetric_graphs():
    for n in range(6, 11):
        steps = range(1, n // 2 + 1)
        for bits in range(1, 1 << len(steps)):
            yield circulant(n, [s for i, s in enumerate(steps) if (bits >> i) & 1])
    yield from (hypercube(d) for d in (2, 3, 4))
    yield from (complete(n) for n in (4, 5, 6))
    yield from (complete_bipartite(a, b) for a in range(1, 5) for b in range(a, 5))
    yield from (prism(k) for k in (3, 4, 5, 6))
    yield from (wheel(k) for k in (3, 4, 5, 6, 7))
    yield petersen()


gamma1_small = GammaSpec(1, 3, 4, core_edges=((0, 1), (0, 2), (1, 2)))


class TestValues:
    def test_q3_pmc_h1(self):
        assert edge_tolerable_diagnosability(hypercube(3), 1, PMC).value == 2

    def test_petersen_mm_h1(self):
        assert edge_tolerable_diagnosability(petersen(), 1, MM).value == 2

    def test_budget_at_min_degree_is_zero(self):
        for g in (hypercube(3), complete(4), wheel(5)):
            for model in (PMC, MM):
                result = edge_tolerable_diagnosability(g, g.min_degree, model)
                assert result.value == 0
                assert result.method == METHOD_BRUTE

    def test_budget_above_min_degree_uses_theorem(self):
        result = edge_tolerable_diagnosability(hypercube(3), 4, PMC)
        assert result.value == 0
        assert result.method == METHOD_THEOREM
        assert result.worst_scenario is None

    def test_negative_budget(self):
        with pytest.raises(GraphError):
            edge_tolerable_diagnosability(cycle(4), -1, PMC)

    def test_model_must_be_a_diag_model(self):
        # the engine tests ``model is MMSTAR``, so a string would silently get PMC values
        g = complete_bipartite(3, 4)
        calls = [
            lambda m: is_t_diagnosable(g, 2, m),
            lambda m: diagnosability(g, m),
            lambda m: edge_tolerable_diagnosability(g, 1, m),
            lambda m: theoretical_bounds(g, 1, m),
        ]
        for call in calls:
            for model in ("mm", "pmc", None):
                with pytest.raises(GraphError, match=repr(model)):
                    call(model)


class TestAgainstDefinition:
    small = [
        complete(4),
        cycle(5),
        build_graph(4, [(0, 1), (1, 2), (2, 3)]),
        complete_bipartite(2, 3),
        wheel(4),
    ]

    @pytest.mark.parametrize("model", [PMC, MM])
    def test_min_over_scenarios_equals_definition(self, model):
        for g in self.small:
            for h in range(0, 3):
                assert (
                    edge_tolerable_diagnosability(g, h, model).value
                    == edge_tolerable_by_definition(g, h, model)
                ), (g.edges, h, model)

    @given(graphs(2, 6), st.integers(min_value=0, max_value=2), st.sampled_from([PMC, MM]))
    @settings(max_examples=60, deadline=None)
    def test_matches_size_h_sweep(self, g, h, model):
        if h > g.min_degree:
            return
        assert edge_tolerable_diagnosability(g, h, model).value == sweep_oracle(g, h, model)

    @given(graphs(2, 6), st.integers(min_value=0, max_value=2))
    @settings(max_examples=60, deadline=None)
    def test_folded_pmc_equals_scenario_sweep(self, g, h):
        # the frozen sweep, since the production sweep starts from the fold's own t_{h-1}
        if h > g.min_degree:
            return
        folded = edge_tolerable_diagnosability(g, h, PMC).value
        swept, _ = reference_sweep(g, h, PMC)
        assert folded == swept


class TestFoldedTable:
    """The D-first table against the frozen union-first scan: the same
    thresholds and the same scenario edge sets, byte for byte."""

    def test_matches_reference_exhaustively(self):
        for n in range(1, 6):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            for bits in range(1 << len(pairs)):
                g = build_graph(n, [e for i, e in enumerate(pairs) if (bits >> i) & 1])
                assert _pmc_break_table(g) == reference_break_table(g), g.edges

    def test_matches_reference_on_random_graphs(self):
        rng = random.Random("pmc-break-table")
        for _ in range(300):
            n = rng.randrange(6, 11)
            p = rng.random()
            g = build_graph(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            )
            assert _pmc_break_table(g) == reference_break_table(g), g.edges

    def test_matches_reference_on_verify_corpus(self):
        for entry in default_corpus():
            assert _pmc_break_table(entry.graph) == reference_break_table(entry.graph), entry.name

    def test_matches_reference_where_doubled_count_prunes(self):
        # dense and symmetric graphs, where skipped vertices below max D
        # drop most D that the plain |N[D]| bound keeps
        gs = [complete_bipartite(a, b) for a in range(1, 6) for b in range(a, 6)]
        gs += [complete(n) for n in range(1, 9)]
        gs += [prism(k) for k in range(3, 7)] + [wheel(k) for k in range(3, 9)]
        gs += [hypercube(3), hypercube(4)]
        gs += [random_t_connected(n, t, seed) for n in range(8, 13) for t in range(2, 5) for seed in range(1, 5)]
        for g in gs:
            assert _pmc_break_table(g) == reference_break_table(g), g.edges

    def test_doubled_count_prunes_dense_graphs(self, monkeypatch):
        # the plain |N[D]| bound visited every D of K8,8 (65,535) and 5,488 of Q5
        visits = []

        def counting(adj, twins, visit):
            def counted(d_mask, closed):
                visits.append(d_mask)
                return visit(d_mask, closed)

            _search_differences(adj, twins, counted)

        monkeypatch.setattr(tolerance, "_search_differences", counting)
        _pmc_break_table.cache_clear()

        def star(center, leaves):
            return tuple((min(center, v), max(center, v)) for v in leaves)

        k88 = (
            (8, 8, 7, 6, 5, 4, 3, 2, 1),
            tuple(star(8, range(8 - r, 8)) for r in range(7)) + (star(0, range(9, 16)), star(0, range(8, 16))),
        )
        assert _pmc_break_table(complete_bipartite(8, 8)) == k88
        assert len(visits) <= 4000
        visits.clear()
        q5 = ((6, 5, 4, 3, 2, 1), tuple(star(0, (1 << i for i in range(5 - r, 5))) for r in range(6)))
        assert _pmc_break_table(hypercube(5)) == q5
        assert len(visits) <= 850

    @pytest.mark.parametrize("g, thresholds, most", [
        (complete(16), (8, *range(15, 0, -1)), 16),
        (complete_bipartite(16, 16), (16, *range(16, 0, -1)), 80),
    ])
    def test_twin_classes_prune_dense_graphs(self, g, thresholds, most, monkeypatch):
        # D-sets the fold visits once twins enter D, and Out, as a prefix
        # of their class; every D of K16 (65,535) and 1,142,571 of K16,16 before
        visits = []

        def counting(adj, twins, visit):
            def counted(d_mask, closed):
                visits.append(d_mask)
                return visit(d_mask, closed)

            _search_differences(adj, twins, counted)

        monkeypatch.setattr(tolerance, "_search_differences", counting)
        _pmc_break_table.cache_clear()
        assert _pmc_break_table(g)[0] == thresholds
        assert len(visits) <= most

    @pytest.mark.parametrize("h, value", [(0, 9), (1, 9), (2, 8)])
    def test_complete_bipartite_frontier(self, h, value):
        g = complete_bipartite(10, 10)
        result = edge_tolerable_diagnosability(g, h, PMC)
        assert result.value == value
        assert len(result.worst_scenario) == h
        assert diagnosability(delete_edges(g, result.worst_scenario), PMC) == value

    @pytest.mark.parametrize("dim", [5, 6])
    @pytest.mark.parametrize("h", [0, 1, 2])
    def test_hypercube_frontier(self, dim, h):
        g = hypercube(dim)
        result = edge_tolerable_diagnosability(g, h, PMC)
        assert result.value == dim - h
        assert len(result.worst_scenario) == h
        assert diagnosability(delete_edges(g, result.worst_scenario), PMC) == dim - h


class TestTwinClasses:
    """Twin-rich graphs, where the D-search and the fold's Out lists take
    each twin class as a prefix, against the frozen references."""

    def test_break_table_matches_reference(self):
        for name, g in twin_graphs():
            assert _pmc_break_table(g) == reference_break_table(g), name

    def test_tolerance_matches_definition(self):
        for name, g in twin_graphs():
            if g.n > 6:
                continue
            for h in range(3):
                for model in (PMC, MM):
                    assert edge_tolerable_diagnosability(g, h, model).value == (
                        edge_tolerable_by_definition(g, h, model)
                    ), (name, h, model)


class TestOrbitSweep:
    """The orbit-representative sweep against the frozen full sweep: the
    same (value, scenario) pair, byte for byte."""

    def check(self, g, h_max, max_scenarios=None):
        for h in range(0, min(g.min_degree, h_max) + 1):
            if max_scenarios is not None and comb(g.m, h) > max_scenarios:
                continue
            for model in (PMC, MM):
                assert ascending_sweep(g, h, model) == reference_sweep(g, h, model), (
                    g.edges,
                    h,
                    model,
                )

    def test_every_graph_up_to_five_vertices(self):
        for n in range(1, 6):
            for g in all_graphs(n):
                self.check(g, 2)

    def test_symmetric_families(self):
        # above degree 5 the frozen full sweep at h = 2 takes 2-6 s a graph
        for g in symmetric_graphs():
            self.check(g, 2 if g.min_degree <= 5 else 1)

    def test_verify_corpus(self):
        for entry in default_corpus():
            self.check(entry.graph, 3, max_scenarios=8192)

    @pytest.mark.parametrize(
        "g, h, orbits",
        [
            (hypercube(4), 2, 6),
            (hypercube(4), 3, 24),
            (petersen(), 3, 9),
            (complete_bipartite(4, 4), 3, 4),
            (hypercube(5), 2, 8),
            (hypercube(5), 3, 50),
        ],
        ids=["q4-h2", "q4-h3", "petersen-h3", "k44-h3", "q5-h2", "q5-h3"],
    )
    def test_one_scenario_per_orbit(self, g, h, orbits, monkeypatch):
        # an engine that never finds a witness, from an empty record at
        # target 0 (one scan at t = 1): the walk refutes the first member of
        # each orbit and records the whole orbit, so every scenario ends up
        # recorded
        calls = []
        monkeypatch.setattr(tolerance, "_find_indistinguishable", lambda adj, t, model, pairs=(): calls.append(t))
        record = {}
        with pytest.raises(AssertionError):
            _scenario_sweep(g, h, MM, 0, record, [])
        assert len(calls) == orbits
        assert set(record) == {sum(1 << i for i in c) for c in combinations(range(g.m), h)}

    def test_random_graphs(self):
        # the frozen sweep refutes every scenario, about 1 ms each; the cap
        # leaves out 14 of the 249 levels, all at h = 3 on dense graphs
        rng = random.Random("scenario-sweep")
        for _ in range(100):
            n = rng.randrange(6, 10)
            p = rng.random()
            g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
            self.check(g, 3, max_scenarios=2000)

    def test_level_that_does_not_drop(self):
        # the value holds at h = 1, so the floor at h = 2 is 1, not 0;
        # test_verify_corpus compares each level with the frozen sweep
        g = next(e.graph for e in default_corpus() if e.name == "gamma3-c")
        assert [edge_tolerable_diagnosability(g, h, MM).value for h in range(4)] == [2, 2, 1, 0]

    def test_cold_call_equals_ascending_run(self):
        rng = random.Random("cold-sweep")
        corpus = [e.graph for e in default_corpus() if e.name in ("gamma3-c", "hypercube-4", "petersen")]
        while len(corpus) < 13:
            n = rng.randrange(7, 10)
            g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6])
            if g.min_degree >= 3:
                corpus.append(g)
        for g in corpus:
            clear_caches()
            cold = edge_tolerable_diagnosability(g, 3, MM)
            clear_caches()
            ascending = [edge_tolerable_diagnosability(g, h, MM) for h in range(4)]
            assert cold == ascending[-1], g.edges

    def test_generators_only_on_demand(self, monkeypatch):
        # the first scenario leads its orbit, so a level it decides needs no group
        calls = []

        def counting(g):
            calls.append(g)
            return automorphism_generators(g)

        monkeypatch.setattr(tolerance, "automorphism_generators", counting)
        clear_caches()
        for g, h_max in ((hypercube(5), 4), (hypercube(6), 3)):
            for h in range(h_max + 1):
                edge_tolerable_diagnosability(g, h, MM)
        assert calls == []
        g = complete_bipartite(4, 4)  # the value does not drop, so the first scan sweeps every orbit
        for h in (1, 2):
            assert ascending_sweep(g, h, MM) == reference_sweep(g, h, MM)
        assert calls

    def test_subset_rule_skips_refutations(self, monkeypatch):
        # no automorphism, and the first minimizer is late in each scan: a
        # refutation per scenario made 19,172 engine calls at h = 0..2
        calls = count_refutations(monkeypatch)
        clear_caches()
        g = random_t_connected(40, 5, 1)
        results = [edge_tolerable_diagnosability(g, h, MM) for h in range(3)]
        assert [(r.value, r.worst_scenario) for r in results] == [
            (5, ()),
            (4, ((9, 35),)),
            (3, ((9, 35), (23, 35))),
        ]
        assert len(calls) <= 250

    @pytest.mark.parametrize(
        "n, seed, pinned",
        [
            (40, 1, ((9, 35), (23, 35), (35, 36), (35, 37))),
            (64, 8, ((10, 49), (24, 49), (25, 49), (27, 49))),
        ],
        ids=["n40-seed1", "n64-seed8"],
    )
    def test_asymmetric_frontier(self, n, seed, pinned, monkeypatch):
        # no automorphism: a sweep that visits every scenario before the
        # first minimizer gives these pairs in 7 and 14 s at h <= 3 and in
        # about 10 and 29 minutes at h <= 4; the prefix walk drops whole blocks
        calls = count_refutations(monkeypatch)
        clear_caches()
        g = random_t_connected(n, 5, seed)
        results = [edge_tolerable_diagnosability(g, h, MM) for h in range(5)]
        assert [(r.value, r.worst_scenario) for r in results] == [(5 - h, pinned[:h]) for h in range(5)]
        assert len(calls) <= 250

    def test_growth_mask_prunes_the_sweep(self, monkeypatch):
        # D-sets the MM* engine visits; before D grew only by the vertices a
        # closure allows: 13,931 over the h <= 1 sweep of
        # random_t_connected(16, 9, 3) and 16,438 over the verify corpus at
        # h <= 3 (9,499 when a closure as large as the best witness allows
        # every vertex it affords)
        visits = []

        def counting(adj, twins, visit):
            def counted(d_mask, closed):
                visits.append(d_mask)
                return visit(d_mask, closed)

            _search_differences(adj, twins, counted)

        monkeypatch.setattr(diagnosis, "_search_differences", counting)
        clear_caches()
        assert edge_tolerable_diagnosability(random_t_connected(16, 9, 3), 1, MM).value == 7
        assert len(visits) <= 3156
        visits.clear()
        clear_caches()
        for entry in default_corpus():
            for h in range(4):
                edge_tolerable_diagnosability(entry.graph, h, MM)
        assert len(visits) <= 9146

    def test_verify_corpus_refutations(self, monkeypatch):
        # the walk refutes what the orbit-by-orbit sweep refuted and no more
        calls = count_refutations(monkeypatch)
        clear_caches()
        for entry in default_corpus():
            for h in range(4):
                edge_tolerable_diagnosability(entry.graph, h, MM)
        assert len(calls) <= 788

    def test_generators_once_per_profile(self, monkeypatch):
        calls = []

        def counting(g):
            calls.append(g)
            return automorphism_generators(g)

        monkeypatch.setattr(tolerance, "automorphism_generators", counting)
        clear_caches()
        g = complete_bipartite(4, 4)  # every level sweeps more than one orbit
        for h in (1, 2, 3):
            edge_tolerable_diagnosability(g, h, MM)
        assert calls == [g]

    def test_profile_survives_another_graph(self, monkeypatch):
        # each (graph, model) keeps its own record, so sweeping Petersen in
        # between costs the last level nothing: one shared record made
        # 19,067 engine calls there, a plain ascending run makes 87
        calls = count_refutations(monkeypatch)
        clear_caches()
        g = random_t_connected(40, 5, 1)
        for h in (0, 1):
            edge_tolerable_diagnosability(g, h, MM)
        edge_tolerable_diagnosability(petersen(), 1, MM)
        calls.clear()
        result = edge_tolerable_diagnosability(g, 2, MM)
        assert (result.value, result.worst_scenario) == (3, ((9, 35), (23, 35)))
        assert len(calls) <= 100

    def test_q5_mm_frontier(self):
        # recorded from a sweep over every orbit, which takes about 36 s at h = 4
        g = hypercube(5)
        expected = {
            0: (5, ()),
            1: (4, ((0, 1),)),
            2: (3, ((0, 1), (0, 2))),
            3: (2, ((0, 1), (0, 2), (0, 4))),
            4: (1, ((0, 1), (0, 2), (0, 4), (0, 8))),
        }
        for h, pair in expected.items():
            assert ascending_sweep(g, h, MM) == pair

    def test_q6_mm_frontier(self):
        # recorded from a sweep over every orbit, which takes about 43 s at h = 3
        g = hypercube(6)
        expected = {
            0: (6, ()),
            1: (5, ((0, 1),)),
            2: (4, ((0, 1), (0, 2))),
            3: (3, ((0, 1), (0, 2), (0, 4))),
        }
        for h, pair in expected.items():
            assert ascending_sweep(g, h, MM) == pair


def complete_multipartite(*sizes):
    part = [i for i, size in enumerate(sizes) for _ in range(size)]
    n = len(part)
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if part[u] != part[v]])


# record sizes after MM* h = 0..min(delta, 3): a lost orbit image, or a
# scenario recorded outside the swept orbits, moves them
RECORD_SIZES = {
    "hypercube-3": 12, "hypercube-4": 0, "petersen": 0, "complete-5": 65, "complete-6": 180,
    "bipartite-3-3": 45, "bipartite-4-4": 136, "prism-5": 0, "circulant-8-1-2": 16, "wheel-9": 0,
    "gamma1-a": 377, "gamma1-b": 511, "gamma1-c": 353, "gamma2-a": 68, "gamma2-b": 113, "gamma2-c": 339,
    "gamma3-a": 16, "gamma3-b": 17, "gamma3-c": 57, "gamma4-a": 73, "gamma4-b": 64, "gamma4-c": 100,
    "gamma5-a": 113, "gamma5-b": 119, "gamma5-c": 104, "random-3conn-9-a": 0, "random-3conn-10-b": 22,
    "random-3conn-11-c": 29, "random-4conn-10-d": 12, "random-4conn-12-e": 31,
    "K5,5": 325, "K7": 371, "K2,2,2": 232, "K1,3,3": 120, "K3,3,3": 378,
}


class TestOrbitRecord:
    """The MM* profile's record is closed under Aut(G) and as large as
    before; the verify corpus holds K4,4, Q4 and Petersen."""

    def test_record_is_closed_under_the_generators(self):
        graphs = [(e.name, e.graph) for e in default_corpus()]
        graphs += [("K5,5", complete_bipartite(5, 5)), ("K7", complete(7))]
        graphs += [(f"K{a},{b},{c}", complete_multipartite(a, b, c)) for a, b, c in ((2, 2, 2), (1, 3, 3), (3, 3, 3))]
        clear_caches()
        sizes = {}
        for name, g in graphs:
            for h in range(min(g.min_degree, 3) + 1):
                edge_tolerable_diagnosability(g, h, MM)
            record = tolerance._tolerance_cached(g, MM)[1]
            sizes[name] = len(record)
            index = {e: i for i, e in enumerate(g.edges)}
            for perm in automorphism_generators(g):
                move = [index[tuple(sorted((perm[u], perm[v])))] for u, v in g.edges]
                for mask, t in record.items():
                    image = sum(1 << move[i] for i in bits_of(mask))
                    assert record.get(image) == t, (name, mask, perm)
        assert sizes == RECORD_SIZES


class TestWorstScenario:
    def test_golden_scenarios_q3(self):
        # frozen for determinism across runs and refactors
        pmc = edge_tolerable_diagnosability(hypercube(3), 1, PMC)
        assert (pmc.value, pmc.worst_scenario) == (2, ((0, 4),))
        mm = edge_tolerable_diagnosability(hypercube(3), 1, MM)
        assert (mm.value, mm.worst_scenario) == (2, ((0, 1),))

    @given(graphs(2, 6), st.integers(min_value=0, max_value=2), st.sampled_from([PMC, MM]))
    @settings(max_examples=50, deadline=None)
    def test_scenario_attains_value(self, g, h, model):
        if h > g.min_degree:
            return
        result = edge_tolerable_diagnosability(g, h, model)
        assert result.worst_scenario is not None
        assert len(result.worst_scenario) == min(h, g.m)
        assert diagnosability(delete_edges(g, result.worst_scenario), model) == result.value

    @given(graphs(2, 6), st.integers(min_value=1, max_value=2))
    @settings(max_examples=40, deadline=None)
    def test_mm_scenario_is_lex_min_minimizer(self, g, h):
        if h > g.min_degree:
            return
        result = edge_tolerable_diagnosability(g, h, MM)
        size = min(h, g.m)
        for sc in combinations(g.edges, size):
            if diagnosability(delete_edges(g, sc), MM) == result.value:
                assert sc == result.worst_scenario
                break


def first_scans(model):
    """(G, S, t_{h-1}, adjacency masks of G - S) for every scenario S of
    the first-scan tests' graphs, h = |S| <= min(delta, 3)."""
    inputs = [hypercube(3), petersen(), complete(5), complete(6), wheel(7)]
    inputs += [random_t_connected(n, t, seed) for n in range(6, 10) for t in (2, 3) for seed in range(4)]
    for g in inputs:
        for h in range(1, min(g.min_degree, 3) + 1):
            t = edge_tolerable_diagnosability(g, h - 1, model).value
            for scenario in combinations(g.edges, h):
                adj = list(g.adj_masks)
                for u, v in scenario:
                    adj[u] ^= 1 << v
                    adj[v] ^= 1 << u
                yield g, scenario, t, adj


class TestProperties:
    @given(graphs(2, 6), st.sampled_from([PMC, MM]))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_budget(self, g, model):
        values = [
            edge_tolerable_diagnosability(g, h, model).value
            for h in range(0, g.min_degree + 2)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))

    @given(graphs(2, 6), st.sampled_from([PMC, MM]))
    @settings(max_examples=40, deadline=None)
    def test_min_degree_upper_bound(self, g, model):
        delta = g.min_degree
        for h in range(0, delta + 1):
            assert edge_tolerable_diagnosability(g, h, model).value <= delta - h
        assert edge_tolerable_diagnosability(g, delta, model).value == 0

    @given(graphs(2, 6), st.integers(min_value=0, max_value=2))
    @settings(max_examples=40, deadline=None)
    def test_model_ordering(self, g, h):
        assert (
            edge_tolerable_diagnosability(g, h, MM).value
            <= edge_tolerable_diagnosability(g, h, PMC).value
        )

    @pytest.mark.parametrize("model, found", [(PMC, 734), (MM, 678)])
    def test_first_scan_witness_keeps_an_end_of_each_edge_outside(self, model, found):
        # At t = t_{h-1}, G - (S - e) is t-diagnosable for each e in S, so a
        # witness pair in G - S is told apart there only through e: some
        # tester or comparator outside U = F1 | F2 uses it.
        scenarios = witnesses = 0
        for g, scenario, t, adj in first_scans(model):
            scenarios += 1
            pair = _find_indistinguishable(adj, t, model)
            if pair is None:
                continue
            witnesses += 1
            union = pair[0] | pair[1]
            for u, v in scenario:
                assert not (union >> u & union >> v & 1), (g.edges, scenario, t, pair)
        assert (scenarios, witnesses) == (22488, found)  # not vacuous

    @pytest.mark.parametrize("model, found", [(PMC, 734), (MM, 678)])
    def test_first_scan_filter_finds_the_same_witness(self, model, found):
        # The sweep's first scan passes its scenario's edges as end pairs;
        # the engine drops only unions no witness has, so it returns the
        # same first witness, or None, as without them.
        witnesses = 0
        for g, scenario, t, adj in first_scans(model):
            pair = _find_indistinguishable(adj, t, model)
            pairs = tuple(1 << u | 1 << v for u, v in scenario)
            assert _find_indistinguishable(adj, t, model, pairs=pairs) == pair, (g.edges, scenario, t)
            witnesses += pair is not None
        assert witnesses == found

    @pytest.mark.parametrize("model", [PMC, MM])
    def test_sweep_filters_the_first_scan_only(self, monkeypatch, model):
        calls = []

        def recording(adj, t, model, pairs=()):
            calls.append((t, pairs, adj))
            return _find_indistinguishable(adj, t, model, pairs=pairs)

        monkeypatch.setattr(tolerance, "_find_indistinguishable", recording)
        scans = set()
        for g in (hypercube(3), petersen(), complete(6), wheel(7), random_t_connected(9, 3, 1)):
            value = diagnosability(g, model)
            for h in range(1, 3):
                first = value  # t_{h-1}
                calls.clear()
                value = _scenario_sweep(g, h, model, first, {}, [])[0]
                for t, pairs, adj in calls:
                    deleted = tuple(1 << u | 1 << v for u, v in g.edges if not adj[u] >> v & 1)
                    assert pairs == (deleted if t == first else ()), (g.edges, h, t)
                scans |= {t == first for t, _, _ in calls}
        assert scans == {False, True}  # both scans ran

    def test_budget_zero_is_diagnosability(self):
        for g in (hypercube(3), petersen(), wheel(5)):
            for model in (PMC, MM):
                assert edge_tolerable_diagnosability(g, 0, model).value == diagnosability(g, model)


class TestBounds:
    def test_petersen_pmc_h1_exact(self):
        report = theoretical_bounds(petersen(), 1, PMC)
        assert report.lower == report.upper == report.exact == 2
        assert report.lower_rule == "pmc_exact"

    def test_family1_mm_upper_only(self):
        g = make_gamma(gamma1_small)
        report = theoretical_bounds(g, 0, MM)
        assert report.upper == 3
        assert report.exact is None
        assert report.lower is None
        exclusion_rows = [c for c in report.conditions if c.rule == "family_exclusion"]
        assert exclusion_rows and not exclusion_rows[0].holds

    def test_q4_mm_h1_exact(self):
        report = theoretical_bounds(hypercube(4), 1, MM)
        assert report.exact == 3
        rules = {c.rule for c in report.conditions if c.holds}
        assert "mm_exact" in rules
        assert "family_shortcut" in rules

    def test_isolation_budget(self):
        report = theoretical_bounds(hypercube(3), 5, PMC)
        assert report.exact == 0
        assert report.lower_rule == "isolation"

    def test_mm_gap_budget_has_no_lower_rule(self):
        # budgets beyond floor((kappa-1)/2) are not covered by any rule
        report = theoretical_bounds(hypercube(4), 2, MM)
        assert report.exact is None
        assert report.lower is None
        assert report.upper == 2

    def test_disconnected_graph_has_no_upper_rule(self):
        g = build_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        report = theoretical_bounds(g, 1, PMC)
        assert report.upper is None

    def test_precomputed_facts_give_the_same_report(self):
        # analyze builds one Facts per graph and reuses it for every budget and model
        for entry in default_corpus():
            g = entry.graph
            facts = Facts(g)
            for model in (PMC, MM):
                for h in range(g.min_degree + 1):
                    assert theoretical_bounds(g, h, model, facts=facts) == theoretical_bounds(g, h, model)

    def test_pmc_bounds_never_run_the_recognizer(self, monkeypatch):
        def refuse(g, **kwargs):
            raise AssertionError("the PMC rules read no family recognition")

        monkeypatch.setattr(tolerance, "recognize_exceptional", refuse)
        for entry in default_corpus():
            for h in range(entry.graph.min_degree + 1):
                theoretical_bounds(entry.graph, h, PMC)

    @given(graphs(2, 6), st.integers(min_value=0, max_value=2), st.sampled_from([PMC, MM]))
    @settings(max_examples=50, deadline=None)
    def test_exact_bound_agrees_with_brute_force(self, g, h, model):
        report = theoretical_bounds(g, h, model)
        value = edge_tolerable_diagnosability(g, h, model).value
        if report.exact is not None:
            assert value == report.exact
        if report.lower is not None:
            assert value >= report.lower
        if report.upper is not None:
            assert value <= report.upper
