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

from conftest import all_graphs
from diagnoscope.diagnosis import DiagModel, _diagnosability_cached, diagnosability, is_t_diagnosable
from diagnoscope.families import (
    circulant,
    complete,
    complete_bipartite,
    cycle,
    hypercube,
    make_gamma,
    petersen,
    prism,
    wheel,
    GammaSpec,
)
from diagnoscope.graphs import GraphError, bits_of, build_graph, delete_edges
from diagnoscope import tolerance
from diagnoscope.tolerance import (
    METHOD_BRUTE,
    METHOD_THEOREM,
    _pmc_break_table,
    _orbit_scenarios,
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


@st.composite
def graphs(draw, min_n=1, max_n=6):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e in pairs if draw(st.booleans())]
    return build_graph(n, edges)


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

    @given(graphs(min_n=2), st.integers(min_value=0, max_value=2), st.sampled_from([PMC, MM]))
    @settings(max_examples=60, deadline=None)
    def test_matches_size_h_sweep(self, g, h, model):
        if h > g.min_degree:
            return
        assert edge_tolerable_diagnosability(g, h, model).value == sweep_oracle(g, h, model)

    @given(graphs(min_n=2), st.integers(min_value=0, max_value=2))
    @settings(max_examples=60, deadline=None)
    def test_folded_pmc_equals_scenario_sweep(self, g, h):
        if h > g.min_degree:
            return
        from diagnoscope.tolerance import _scenario_sweep

        folded = edge_tolerable_diagnosability(g, h, PMC).value
        swept, _ = _scenario_sweep(g, min(h, g.m), PMC)
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

    @pytest.mark.parametrize("dim", [5, 6])
    @pytest.mark.parametrize("h", [0, 1, 2])
    def test_hypercube_frontier(self, dim, h):
        g = hypercube(dim)
        result = edge_tolerable_diagnosability(g, h, PMC)
        assert result.value == dim - h
        assert len(result.worst_scenario) == h
        assert diagnosability(delete_edges(g, result.worst_scenario), PMC) == dim - h


class TestOrbitSweep:
    """The orbit-representative sweep against the frozen full sweep: the
    same (value, scenario) pair, byte for byte."""

    def check(self, g, h_max, max_scenarios=None):
        for h in range(0, min(g.min_degree, h_max) + 1):
            size = min(h, g.m)
            if max_scenarios is not None and comb(g.m, size) > max_scenarios:
                continue
            for model in (PMC, MM):
                assert _scenario_sweep(g, size, model) == reference_sweep(g, size, model), (
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
        ],
        ids=["q4-h2", "q4-h3", "petersen-h3", "k44-h3", "q5-h2"],
    )
    def test_one_scenario_per_orbit(self, g, h, orbits):
        assert len(list(_orbit_scenarios(g, h))) == orbits

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
        def clear():
            tolerance._tolerance_cached.cache_clear()
            _pmc_break_table.cache_clear()
            _diagnosability_cached.cache_clear()

        rng = random.Random("cold-sweep")
        corpus = [e.graph for e in default_corpus() if e.name in ("gamma3-c", "hypercube-4", "petersen")]
        while len(corpus) < 13:
            n = rng.randrange(7, 10)
            g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6])
            if g.min_degree >= 3:
                corpus.append(g)
        for g in corpus:
            clear()
            cold = edge_tolerable_diagnosability(g, 3, MM)
            clear()
            ascending = [edge_tolerable_diagnosability(g, h, MM) for h in range(4)]
            assert cold == ascending[-1], g.edges

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
            assert _scenario_sweep(g, h, MM) == pair

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
            assert _scenario_sweep(g, h, MM) == pair


class TestWorstScenario:
    def test_golden_scenarios_q3(self):
        # frozen for determinism across runs and refactors
        pmc = edge_tolerable_diagnosability(hypercube(3), 1, PMC)
        assert (pmc.value, pmc.worst_scenario) == (2, ((0, 4),))
        mm = edge_tolerable_diagnosability(hypercube(3), 1, MM)
        assert (mm.value, mm.worst_scenario) == (2, ((0, 1),))

    @given(graphs(min_n=2), st.integers(min_value=0, max_value=2), st.sampled_from([PMC, MM]))
    @settings(max_examples=50, deadline=None)
    def test_scenario_attains_value(self, g, h, model):
        if h > g.min_degree:
            return
        result = edge_tolerable_diagnosability(g, h, model)
        assert result.worst_scenario is not None
        assert len(result.worst_scenario) == min(h, g.m)
        assert diagnosability(delete_edges(g, result.worst_scenario), model) == result.value

    @given(graphs(min_n=2), st.integers(min_value=1, max_value=2))
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


class TestProperties:
    @given(graphs(min_n=2), st.sampled_from([PMC, MM]))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_budget(self, g, model):
        values = [
            edge_tolerable_diagnosability(g, h, model).value
            for h in range(0, g.min_degree + 2)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))

    @given(graphs(min_n=2), st.sampled_from([PMC, MM]))
    @settings(max_examples=40, deadline=None)
    def test_min_degree_upper_bound(self, g, model):
        delta = g.min_degree
        for h in range(0, delta + 1):
            assert edge_tolerable_diagnosability(g, h, model).value <= delta - h
        assert edge_tolerable_diagnosability(g, delta, model).value == 0

    @given(graphs(min_n=2), st.integers(min_value=0, max_value=2))
    @settings(max_examples=40, deadline=None)
    def test_model_ordering(self, g, h):
        assert (
            edge_tolerable_diagnosability(g, h, MM).value
            <= edge_tolerable_diagnosability(g, h, PMC).value
        )

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

    @given(graphs(min_n=2), st.integers(min_value=0, max_value=2), st.sampled_from([PMC, MM]))
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
