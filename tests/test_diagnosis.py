"""The decision engine is cross-validated against two references.

``reference_is_t_diagnosable`` is built directly from the per-pair
predicates: every pair of distinct subsets within the budget, checked one
by one; it shares no code with the engine beyond the Graph type.
``reference_first_witness`` is a frozen union-first enumerator that scans
every union U in witness order, so it pins the exact canonical witness
the engine must return; it shares only ``_mm_split``, which
test_engine_stress checks against exhaustive split enumeration."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_graphs, atlas_graphs, graphs, seeded_random_graphs, twin_graphs
from diagnoscope import diagnosis
from diagnoscope.diagnosis import (
    DiagModel,
    _before,
    _closures,
    _find_indistinguishable,
    _growth,
    _mm_split,
    _search_differences,
    diagnosability,
    diagnosability_cap,
    is_t_diagnosable,
)
from diagnoscope.families import (
    GammaSpec,
    circulant,
    complete,
    complete_bipartite,
    cycle,
    hypercube,
    make_gamma,
    petersen,
    random_gamma,
    random_t_connected,
    wheel,
)
from diagnoscope.graphs import GraphError, bits_of, build_graph, delete_edges, relabel
from oracles import distinguishable_mm, distinguishable_pmc

PMC = DiagModel.PMC
MM = DiagModel.MMSTAR


def subsets_up_to(n, t):
    out = []
    for size in range(0, min(t, n) + 1):
        out.extend(frozenset(c) for c in combinations(range(n), size))
    return out


def reference_distinguishable(g, f1, f2, model):
    if model is PMC:
        return distinguishable_pmc(g, f1, f2)
    return distinguishable_mm(g, f1, f2).distinguishable


def reference_indistinguishable_pair(g, t, model):
    """First pair of candidates of size <= t that the public pair
    predicates cannot tell apart, or None."""
    candidates = subsets_up_to(g.n, t)
    for i, f1 in enumerate(candidates):
        for f2 in candidates[i + 1:]:
            if not reference_distinguishable(g, f1, f2, model):
                return f1, f2
    return None


def reference_is_t_diagnosable(g, t, model):
    """Direct double-quantifier scan using the public pair predicates."""
    return reference_indistinguishable_pair(g, t, model) is None


def reference_first_witness(g, t, model):
    """First indistinguishable pair (f1, f2) as masks, or None.

    Scans every union U = F1 | F2 by ascending size, then
    lexicographically, and for each U every difference D = F1 ^ F2 in
    ascending submask order among the vertices not blocked by the outside
    set; the first pair found is the canonical witness.
    """
    n = g.n
    if t <= 0 or n == 0:
        return None
    adj = g.adj_masks
    full = g.full_mask
    mm = model is MM
    for usize in range(1, min(2 * t, n) + 1):
        min_d = max(1, 2 * (usize - t))
        for combo in combinations(range(n), usize):
            u_mask = sum(1 << v for v in combo)
            o_mask = full ^ u_mask
            blocked = 0
            for o in bits_of(o_mask):
                if not mm or adj[o] & o_mask:
                    blocked |= adj[o]
            cands = u_mask & ~blocked
            d_mask = 0
            while True:
                d_mask = (d_mask - cands) & cands
                if d_mask == 0:
                    break
                dsize = d_mask.bit_count()
                if dsize < min_d:
                    continue
                if mm:
                    split = _mm_split(adj, o_mask, d_mask, t - (usize - dsize))
                    if split is None:
                        continue
                    d1, d2 = split
                else:
                    d1 = sum(1 << v for v in list(bits_of(d_mask))[: dsize // 2])
                    d2 = d_mask ^ d1
                s_mask = u_mask ^ d_mask
                return tuple(sorted((s_mask | d1, s_mask | d2)))
    return None


def empty_graph(n):
    return build_graph(n, [])


class TestPmcPredicate:
    def test_path_distinguishable(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert distinguishable_pmc(g, {0}, {1})

    def test_no_edges_indistinguishable(self):
        assert not distinguishable_pmc(empty_graph(2), {0}, {1})

    def test_classic_min_degree_witness(self):
        g = hypercube(3)
        nbrs = g.neighbors(0)
        assert not distinguishable_pmc(g, nbrs, nbrs | {0})

    def test_identical_sets_error(self):
        with pytest.raises(GraphError):
            distinguishable_pmc(cycle(4), {1}, {1})


class TestMmPredicate:
    def test_inner_pair_of_p4(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        # outside vertices 0 and 3 have no outside neighbors; the
        # one-sided differences are singletons, so no condition fires
        check = distinguishable_mm(g, {1}, {2})
        assert not check.distinguishable
        assert check.condition is None

    def test_family1_core_pair(self):
        g = make_gamma(GammaSpec(1, 3, 4, core_edges=((0, 1), (0, 2), (1, 2))))
        check = distinguishable_mm(g, {0, 1}, {1, 2})
        assert not check.distinguishable

    def test_condition_one(self):
        g = complete(3)
        check = distinguishable_mm(g, set(), {0})
        assert check.distinguishable
        assert check.condition == 1

    def test_condition_two(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        check = distinguishable_mm(g, {0, 2}, set())
        assert check.distinguishable
        assert check.condition == 2

    def test_condition_three_mirrors_two(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        check = distinguishable_mm(g, set(), {0, 2})
        assert check.distinguishable
        assert check.condition == 3

    def test_identical_sets_error(self):
        with pytest.raises(GraphError):
            distinguishable_mm(cycle(4), {1}, {1})

    @given(graphs(2, 6), st.data())
    @settings(max_examples=80)
    def test_mm_distinguishable_implies_pmc_distinguishable(self, g, data):
        f1 = data.draw(st.sets(st.integers(0, g.n - 1), max_size=g.n))
        f2 = data.draw(st.sets(st.integers(0, g.n - 1), max_size=g.n))
        if f1 == f2:
            return
        if distinguishable_mm(g, f1, f2).distinguishable:
            assert distinguishable_pmc(g, f1, f2)


class TestIsTDiagnosable:
    def test_t0_vacuous(self):
        assert is_t_diagnosable(empty_graph(3), 0, PMC).diagnosable

    def test_q3_pmc_three(self):
        assert is_t_diagnosable(hypercube(3), 3, PMC).diagnosable

    def test_q3_pmc_four_witness(self):
        decision = is_t_diagnosable(hypercube(3), 4, PMC)
        assert not decision.diagnosable
        witness = decision.witness
        assert witness.f1 == hypercube(3).neighbors(0)
        assert witness.f2 == hypercube(3).neighbors(0) | {0}

    def test_negative_budget(self):
        with pytest.raises(GraphError):
            is_t_diagnosable(cycle(4), -1, PMC)

    def test_petersen_pmc_golden_witness(self):
        # frozen for determinism: the engine lands on the classic pair
        # around vertex 1 (its neighborhood versus neighborhood plus self)
        w = is_t_diagnosable(petersen(), 4, PMC).witness
        assert (sorted(w.f1), sorted(w.f2)) == ([0, 2, 6], [0, 1, 2, 6])
        assert petersen().neighbors(1) == w.f1

    def test_witness_is_genuinely_indistinguishable(self):
        for model in (PMC, MM):
            decision = is_t_diagnosable(cycle(5), 3, model)
            assert not decision.diagnosable
            w = decision.witness
            assert len(w.f1) <= 3 and len(w.f2) <= 3 and w.f1 != w.f2
            if model is PMC:
                assert not distinguishable_pmc(cycle(5), w.f1, w.f2)
            else:
                assert not distinguishable_mm(cycle(5), w.f1, w.f2).distinguishable

    @given(graphs(1, 6), st.integers(min_value=0, max_value=3), st.sampled_from([PMC, MM]))
    @settings(max_examples=120, deadline=None)
    def test_engine_matches_reference(self, g, t, model):
        engine = is_t_diagnosable(g, t, model)
        assert engine.diagnosable == reference_is_t_diagnosable(g, t, model)
        if not engine.diagnosable:
            w = engine.witness
            assert len(w.f1) <= t and len(w.f2) <= t and w.f1 != w.f2
            if model is PMC:
                assert not distinguishable_pmc(g, w.f1, w.f2)
            else:
                assert not distinguishable_mm(g, w.f1, w.f2).distinguishable

    @pytest.mark.parametrize("n", [4, 5])
    def test_engine_matches_reference_exhaustively(self, n):
        # every graph on n vertices, every budget, both models
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for bits in range(1 << len(pairs)):
            g = build_graph(n, [e for i, e in enumerate(pairs) if (bits >> i) & 1])
            for t in range(0, 4):
                for model in (PMC, MM):
                    assert (
                        is_t_diagnosable(g, t, model).diagnosable
                        == reference_is_t_diagnosable(g, t, model)
                    ), (g.edges, t, model)

    def test_first_witness_matches_reference_exhaustively(self):
        # every graph on at most 5 vertices, every budget up to 3, both models
        for n in range(1, 6):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            for bits in range(1 << len(pairs)):
                g = build_graph(n, [e for i, e in enumerate(pairs) if (bits >> i) & 1])
                for t in range(0, 4):
                    for model in (PMC, MM):
                        assert _find_indistinguishable(g.adj_masks, t, model) == (
                            reference_first_witness(g, t, model)
                        ), (g.edges, t, model)

    def test_first_witness_matches_reference_on_random_graphs(self):
        rng = random.Random("first-witness")
        for _ in range(300):
            n = rng.randrange(6, 11)
            p = rng.random()
            g = build_graph(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            )
            for t in range(1, 5):
                for model in (PMC, MM):
                    assert _find_indistinguishable(g.adj_masks, t, model) == (
                        reference_first_witness(g, t, model)
                    ), (g.edges, t, model)

    def test_first_witness_matches_reference_at_the_cap(self):
        # t = cap is where the search must refute everything and t = cap + 1
        # where it must find the first witness, so a prune that is too
        # strong shows up at one or the other
        rng = random.Random("first-witness-at-cap")
        for _ in range(300):
            n = rng.randrange(7, 11)
            p = rng.uniform(0.3, 0.9)
            g = build_graph(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            )
            cap = diagnosability_cap(g)
            for t in (cap, cap + 1):
                for model in (PMC, MM):
                    assert _find_indistinguishable(g.adj_masks, t, model) == (
                        reference_first_witness(g, t, model)
                    ), (g.edges, t, model)

    def test_first_witness_matches_references_on_dense_graphs(self):
        # dense graphs are where a vertex with three neighbors in D starts
        # in every MM* closure; at t = cap the search must refute every D
        # and at cap + 1 find the first witness
        rng = random.Random("dense-first-witness")
        gs = [complete_bipartite(a, b) for a in range(1, 7) for b in range(a, 7)]
        for _ in range(60):
            n = rng.randrange(6, 13)
            p = rng.uniform(0.6, 0.95)
            gs.append(build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]))
        for g in gs:
            cap = diagnosability_cap(g)
            for t in (cap, cap + 1):
                found = _find_indistinguishable(g.adj_masks, t, MM)
                assert found == reference_first_witness(g, t, MM), (g.edges, t)
                if g.n <= 9:
                    assert (found is None) == reference_is_t_diagnosable(g, t, MM), (g.edges, t)

    def test_three_neighbors_in_d_prune_dense_searches(self, monkeypatch):
        # D-sets the MM* search visits; before a vertex with three
        # neighbors in D started in every closure: 89,695 on K9,9 and 1,823
        # on random_t_connected(16, 9, 3). Q5 at t = 3 never has |D| > 2.
        # Before D grew only by the vertices a closure allows: 169 on
        # random_t_connected(16, 9, 3) and 63 on Q5
        visits = []

        def counting(adj, twins, visit):
            def counted(d_mask, closed):
                visits.append(d_mask)
                return visit(d_mask, closed)

            _search_differences(adj, twins, counted)

        monkeypatch.setattr(diagnosis, "_search_differences", counting)
        for g, t, most in [
            (complete_bipartite(9, 9), 7, 18_398),
            (random_t_connected(16, 9, 3), 7, 38),
            (hypercube(5), 3, 33),
        ]:
            visits.clear()
            assert _find_indistinguishable(g.adj_masks, t, MM) is None
            assert len(visits) <= most, g.edges

    def test_k9_9_mm_diagnosability(self):
        # no witness at t = 7; the one at t = 8 is in test_golden_witnesses.
        # Both measured on the engine that pruned only on |U| > 2t
        assert diagnosability(complete_bipartite(9, 9), MM) == 7

    @pytest.mark.parametrize("model", [PMC, MM])
    def test_q5_three_diagnosable(self, model):
        assert is_t_diagnosable(hypercube(5), 3, model).diagnosable

    def test_q5_pmc_six_witness(self):
        w = is_t_diagnosable(hypercube(5), 6, PMC).witness
        assert (sorted(w.f1), sorted(w.f2)) == ([1, 2, 4, 8, 16], [0, 1, 2, 4, 8, 16])

    def test_before_is_the_witness_order(self):
        # every pair of (U, D) masks on 4 vertices, so on every n <= 4
        def key(u, d):
            return u.bit_count(), tuple(bits_of(u)), d

        pairs = [(u, d) for u in range(16) for d in range(16)]
        for u, d in pairs:
            for u_old, d_old in pairs:
                assert _before(u, d, u_old, d_old) == (key(u, d) < key(u_old, d_old)), (u, d, u_old, d_old)

    @pytest.mark.parametrize("name, g", [
        *[(f"K{a},{b}", complete_bipartite(a, b)) for a in range(1, 6) for b in range(a, 6)],
        *[(f"wheel({k})", wheel(k)) for k in range(3, 9)],
        *[(f"C({n}; 1, {j})", circulant(n, (1, j))) for j in (2, 3) for n in range(j + 1, 11)],
        ("petersen", petersen()),
        *[(f"gamma{f}", random_gamma(f, 3, seed=101)[1]) for f in range(1, 6)],
    ])
    def test_first_witness_matches_reference_on_named_graphs(self, name, g):
        for t in range(diagnosability_cap(g) + 2):
            for model in (PMC, MM):
                assert _find_indistinguishable(g.adj_masks, t, model) == (
                    reference_first_witness(g, t, model)
                ), (t, model)

    @pytest.mark.parametrize("g, t, model, f1, f2", [
        (complete_bipartite(8, 8), 7, MM, [0, *range(2, 8)], [*range(1, 8)]),
        (complete_bipartite(9, 9), 8, MM, [0, *range(2, 9)], [*range(1, 9)]),
        (hypercube(6), 7, MM, [1, 2, 4, 8, 16, 32], [0, 1, 2, 4, 8, 16, 32]),
        (complete_bipartite(8, 8), 8, PMC, [*range(8)], [*range(8, 16)]),
        (random_gamma(1, 3, seed=101)[1], 3, MM, [1, 2], [0, 1, 2]),
    ])
    def test_golden_witnesses(self, g, t, model, f1, f2):
        assert _find_indistinguishable(g.adj_masks, t, model) == (g.vertex_mask(f1), g.vertex_mask(f2))

    @given(graphs(1, 6), st.integers(min_value=0, max_value=2), st.sampled_from([PMC, MM]))
    @settings(max_examples=60, deadline=None)
    def test_downward_monotonicity(self, g, t, model):
        if not is_t_diagnosable(g, t, model).diagnosable:
            assert not is_t_diagnosable(g, t + 1, model).diagnosable

    @given(graphs(2, 6), st.integers(min_value=0, max_value=2), st.data())
    @settings(max_examples=50, deadline=None)
    def test_edge_monotonicity(self, g, t, data):
        if g.m == 0:
            return
        scenario = [e for e in g.edges if data.draw(st.booleans())]
        shrunk = delete_edges(g, scenario)
        for model in (PMC, MM):
            if is_t_diagnosable(shrunk, t, model).diagnosable:
                assert is_t_diagnosable(g, t, model).diagnosable

    def test_one_edge_lowers_diagnosability_by_at_most_one(self):
        # t(G) - 1 <= t(G - e) <= t(G) for every edge, both models, by the
        # direct pair scan alone: every graph on at most 5 vertices, then
        # seeded random graphs on 6-8
        rng = random.Random("one-edge-bound")
        random_graphs = []
        for _ in range(200):
            n = rng.randrange(6, 9)
            p = rng.random()
            random_graphs.append(
                build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
            )
        for g in [g for n in range(1, 6) for g in all_graphs(n)] + random_graphs:
            for model in (PMC, MM):
                t = 0  # t(G), and a pair of size <= t + 1 that G cannot tell apart
                while (pair := reference_indistinguishable_pair(g, t + 1, model)) is None:
                    t += 1
                for e in g.edges:
                    shrunk = delete_edges(g, [e])
                    assert reference_is_t_diagnosable(shrunk, t - 1, model), (g.edges, e, model)
                    assert not reference_distinguishable(shrunk, *pair, model), (g.edges, e, model)


def enumerator_graphs():
    """Every graph on at most 5 vertices, then seeded random graphs on 6-7."""
    for n in range(1, 6):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for bits in range(1 << len(pairs)):
            yield build_graph(n, [e for i, e in enumerate(pairs) if (bits >> i) & 1])
    rng = random.Random("search-differences")
    for _ in range(40):
        n = rng.randrange(6, 8)
        yield build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])


class TestSearchDifferences:
    @staticmethod
    def search(g, keep):
        seen = []
        full = (1 << g.n) - 1
        _search_differences(g.adj_masks, g.twins,
                            lambda d, closed: seen.append((d, closed)) or (full if keep(d) else 0))
        return seen

    @staticmethod
    def twin_prefixes(g):
        """Every nonempty D in lexicographic order of its sorted vertices
        that holds a prefix of every twin class: with each vertex, D holds
        its smaller twins (u and v are twins when N(u) - v = N(v) - u)."""
        n = g.n
        smaller = [
            g.vertex_mask(u for u in range(v) if g.neighbors(u) - {v} == g.neighbors(v) - {u}) for v in range(n)
        ]
        every = sorted(range(1, 1 << n), key=lambda d: tuple(bits_of(d)))
        return [d for d in every if all(smaller[v] & d == smaller[v] for v in bits_of(d))]

    def test_visits_every_twin_prefix_once_in_lexicographic_order(self):
        twin_free = 0
        for g in enumerator_graphs():
            seen = self.search(g, lambda d: True)
            expected = self.twin_prefixes(g)
            assert [d for d, _ in seen] == expected, g.edges
            if len(expected) == (1 << g.n) - 1:  # a twin-free graph yields every set
                twin_free += 1
            for d, closed in seen:
                assert closed == d | g.vertex_mask(w for v in bits_of(d) for w in g.neighbors(v))
        assert twin_free >= 40

    def test_pruned_set_is_not_extended(self):
        rng = random.Random("search-differences-prune")
        for g in enumerator_graphs():
            pruned = {d for d in range(1, 1 << g.n) if rng.random() < 0.3}
            seen = [d for d, _ in self.search(g, lambda d: d not in pruned)]

            def extends_pruned(d):  # some proper prefix of D's sorted vertices is pruned
                vertices = list(bits_of(d))
                return any(g.vertex_mask(vertices[:k]) in pruned for k in range(1, len(vertices)))

            assert seen == [d for d in self.twin_prefixes(g) if not extends_pruned(d)], g.edges

    def test_grows_only_by_the_returned_mask(self):
        # D + w is visited exactly when D is and w is in D's mask
        rng = random.Random("search-differences-mask")
        for g in enumerator_graphs():
            masks = {d: rng.getrandbits(g.n) for d in range(1, 1 << g.n)}
            seen = []
            _search_differences(g.adj_masks, g.twins, lambda d, closed: seen.append(d) or masks[d])

            def grown_in_masks(d):  # each sorted prefix's next vertex is in the prefix's mask
                vertices = list(bits_of(d))
                return all(masks[g.vertex_mask(vertices[:k])] >> vertices[k] & 1 for k in range(1, len(vertices)))

            assert seen == [d for d in self.twin_prefixes(g) if grown_in_masks(d)], g.edges


class TestGrowth:
    def test_matches_its_definition(self):
        # every (max D, U, slack) on up to 12 vertices
        for n in range(1, 13):
            full = (1 << n) - 1
            for top in range(n):
                for u_mask in range(1 << n):
                    costs = [
                        (w, (u_mask >> top + 1 & (1 << w - top - 1) - 1).bit_count() + (not u_mask >> w & 1))
                        for w in range(top + 1, n)
                    ]
                    for slack in range(-1, n - top + 1):
                        expected = sum(1 << w for w, cost in costs if cost <= slack)
                        assert _growth(u_mask, top, slack, full) == expected, (n, top, u_mask, slack)


class TestTwinClasses:
    """The D-search takes each twin class as a prefix; the witness must
    still be the one the union-first scan finds, and the decision the
    direct pair scan's."""

    def test_first_witness_matches_references(self):
        for name, g in twin_graphs():
            cap = diagnosability_cap(g)
            for t in range(max(cap - 1, 0), cap + 2):
                for model in (PMC, MM):
                    found = _find_indistinguishable(g.adj_masks, t, model)
                    assert found == reference_first_witness(g, t, model), (name, t, model)
                    if g.n <= 9:
                        assert (found is None) == reference_is_t_diagnosable(g, t, model), (name, t, model)

    def test_twin_classes_prune_complete_bipartite_search(self, monkeypatch):
        # D-sets the MM* search visits in diagnosability(K12,12), which
        # decides t = 1..11; 620,065 before twins entered D as a prefix
        visits = []

        def counting(adj, twins, visit):
            def counted(d_mask, closed):
                visits.append(d_mask)
                return visit(d_mask, closed)

            _search_differences(adj, twins, counted)

        monkeypatch.setattr(diagnosis, "_search_differences", counting)
        diagnosis._diagnosability_cached.cache_clear()
        assert diagnosability(complete_bipartite(12, 12), MM) == 10
        assert len(visits) <= 122


class TestClosures:
    @staticmethod
    def reference_mm_closures(g, d_mask):
        """D | (Gamma(D) - Out) | N(Out) over every independent Out inside
        Gamma(D) that holds no vertex with three neighbors in D."""
        adj = g.adj_masks
        gamma = d_mask
        for v in bits_of(d_mask):
            gamma |= adj[v]
        gamma ^= d_mask
        free = sum(1 << x for x in bits_of(gamma) if (adj[x] & d_mask).bit_count() < 3)
        found = set()
        out = 0
        while True:  # every submask of free
            if all(not adj[x] & out for x in bits_of(out)):
                u_mask = d_mask | gamma & ~out
                for x in bits_of(out):
                    u_mask |= adj[x]
                found.add(u_mask)
            out = (out - free) & free
            if not out:
                return found

    def test_mm_closures_keep_every_vertex_with_three_neighbors_in_d(self):
        rng = random.Random("mm-closures")
        gs = list(enumerator_graphs())
        for _ in range(30):
            n = rng.randrange(6, 9)
            gs.append(build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.7]))
        for g in gs:
            adj = g.adj_masks
            for d_mask in range(1, 1 << g.n):
                closed = d_mask
                for v in bits_of(d_mask):
                    closed |= adj[v]
                closures = _closures(adj, d_mask, closed, 0, 2 * g.n, g.n, True)
                for u_mask in closures:
                    outside = g.full_mask ^ u_mask
                    assert all((adj[x] & d_mask).bit_count() <= 2 for x in bits_of(outside)), (g.edges, d_mask)
                assert len(set(closures)) == len(closures)
                assert set(closures) == self.reference_mm_closures(g, d_mask), (g.edges, d_mask)


class TestDiagnosability:
    def test_q3_pmc(self):
        assert diagnosability(hypercube(3), PMC) == 3

    def test_petersen_mm(self):
        assert diagnosability(petersen(), MM) == 3

    @pytest.mark.parametrize("dim", [5, 6])
    @pytest.mark.parametrize("model", [PMC, MM])
    def test_hypercube_frontier(self, dim, model):
        assert diagnosability(hypercube(dim), model) == dim

    def test_single_vertex(self):
        assert diagnosability(complete(1), PMC) == 0
        assert diagnosability(complete(1), MM) == 0

    def test_two_isolated_vertices(self):
        assert diagnosability(empty_graph(2), PMC) == 0

    @staticmethod
    def ascending(g, model):
        t = 0
        while t < diagnosability_cap(g) and is_t_diagnosable(g, t + 1, model).diagnosable:
            t += 1
        return t

    @pytest.mark.parametrize("model", [PMC, MM])
    def test_top_down_equals_ascending_search(self, model):
        # the top-down search jumps below each witness's larger set
        for g in atlas_graphs(6) + seeded_random_graphs(300, 2, 12, seed=7007):
            assert diagnosability(g, model) == self.ascending(g, model), g.edges

    @given(graphs(1, 6), st.sampled_from([PMC, MM]))
    @settings(max_examples=60, deadline=None)
    def test_cap_is_respected_and_unforced(self, g, model):
        t = diagnosability(g, model)
        cap = diagnosability_cap(g)
        assert 0 <= t <= cap
        # the cap is sound on its own: the next budget above min degree or
        # half the order always fails by direct scan, no cap involved
        assert not is_t_diagnosable(g, g.min_degree + 1, model).diagnosable
        assert not is_t_diagnosable(g, (g.n - 1) // 2 + 1, model).diagnosable

    @given(graphs(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_model_ordering(self, g):
        assert diagnosability(g, MM) <= diagnosability(g, PMC)

    @given(graphs(2, 6), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_isomorphism_invariance(self, g, rng):
        perm = list(range(g.n))
        rng.shuffle(perm)
        for model in (PMC, MM):
            assert diagnosability(relabel(g, perm), model) == diagnosability(g, model)
