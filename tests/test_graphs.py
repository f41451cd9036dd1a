import copy
import pickle
import random
from math import factorial

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_graphs, graphs
from diagnoscope.families import (
    GammaSpec,
    complete,
    complete_bipartite,
    cycle,
    hypercube,
    make_gamma,
    petersen,
    random_gamma,
)
from diagnoscope.graphs import (
    CapExceededError,
    GraphError,
    automorphism_generators,
    build_graph,
    delete_edges,
    relabel,
)
from oracles import induced_subgraph


def empty_graph(n):
    return build_graph(n, [])


class TestBuildGraph:
    def test_path(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert sorted(g.degrees) == [1, 1, 2]

    def test_dedup_symmetric_pair(self):
        g = build_graph(4, [(0, 1), (1, 0)])
        assert g.edges == ((0, 1),)

    def test_endpoint_out_of_range(self):
        with pytest.raises(GraphError, match=r"\(0, 2\)"):
            build_graph(2, [(0, 2)])

    def test_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            build_graph(3, [(1, 1)])

    def test_cap(self):
        with pytest.raises(CapExceededError):
            build_graph(65, [])

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("DIAGNOSCOPE_CAP", "10")
        with pytest.raises(CapExceededError):
            build_graph(11, [])
        build_graph(10, [])

    def test_cap_argument_override(self, monkeypatch):
        monkeypatch.setenv("DIAGNOSCOPE_CAP", "128")
        assert build_graph(70, []).n == 70

    def test_adjacency_symmetric(self):
        g = build_graph(4, [(0, 2), (1, 3), (2, 3)])
        for u in range(4):
            for v in range(4):
                assert ((g.adj_masks[u] >> v) & 1) == ((g.adj_masks[v] >> u) & 1)

    def test_edge_count_equals_half_degree_sum(self):
        g = build_graph(5, [(0, 1), (0, 2), (3, 4)])
        assert sum(g.degrees) == 2 * g.m


class TestDeleteEdges:
    def test_triangle_to_path(self):
        g = delete_edges(complete(3), [(0, 1)])
        assert set(g.edges) == {(0, 2), (1, 2)}

    def test_identity(self):
        g = cycle(4)
        assert delete_edges(g, []) == g

    def test_cycle_to_path(self):
        g = delete_edges(cycle(4), [(0, 3)])
        assert sorted(g.degrees) == [1, 1, 2, 2]

    def test_non_edge_error(self):
        with pytest.raises(GraphError, match="not an edge"):
            delete_edges(cycle(4), [(0, 2)])

    @given(graphs(0, 8), st.data())
    @settings(max_examples=50)
    def test_delete_then_readd(self, g, data):
        if g.m == 0:
            return
        subset = [e for e in g.edges if data.draw(st.booleans())]
        shrunk = delete_edges(g, subset)
        restored = build_graph(g.n, list(shrunk.edges) + subset)
        assert restored == g


class TestInducedSubgraph:
    def test_k4_minus_vertex(self):
        sub, remap = induced_subgraph(complete(4), [0, 1, 2])
        assert sub == complete(3)
        assert remap == {0: 0, 1: 1, 2: 2}

    def test_path_endpoints(self):
        sub, _ = induced_subgraph(build_graph(3, [(0, 1), (1, 2)]), [0, 2])
        assert sub == empty_graph(2)

    def test_identity(self):
        g = cycle(5)
        sub, _ = induced_subgraph(g, range(5))
        assert sub == g

    @given(graphs(0, 8), st.data())
    @settings(max_examples=50)
    def test_adjacency_preserved(self, g, data):
        keep = sorted({v for v in range(g.n) if data.draw(st.booleans())})
        sub, remap = induced_subgraph(g, keep)
        for u in keep:
            for v in keep:
                if u < v:
                    assert g.has_edge(u, v) == sub.has_edge(remap[u], remap[v])


class TestDegreeProfile:
    def test_hypercube(self):
        g = hypercube(3)
        assert g.min_degree == 3
        assert g.degrees == (3,) * 8
        assert g.is_regular

    def test_join_core_block(self):
        g = make_gamma(GammaSpec(1, 3, 4, core_edges=((0, 1), (0, 2), (1, 2))))
        assert g.min_degree == 3
        assert g.degrees == (6, 6, 6, 3, 3, 3, 3)
        assert not g.is_regular

    def test_single_vertex(self):
        g = complete(1)
        assert g == empty_graph(1)
        assert g.min_degree == 0
        assert g.is_regular

    def test_empty_graph_error(self):
        with pytest.raises(GraphError):
            empty_graph(0).min_degree
        with pytest.raises(GraphError):
            empty_graph(0).is_regular


class TestRelabel:
    @given(graphs(0, 6), st.randoms(use_true_random=False))
    @settings(max_examples=40)
    def test_roundtrip(self, g, rng):
        perm = list(range(g.n))
        rng.shuffle(perm)
        inverse = [0] * g.n
        for old, new in enumerate(perm):
            inverse[new] = old
        assert relabel(relabel(g, perm), inverse) == g

    def test_bad_permutation(self):
        with pytest.raises(GraphError):
            relabel(complete(3), [0, 0, 1])


def test_graph_value_semantics():
    a = build_graph(3, [(0, 1)])
    b = build_graph(3, [(1, 0)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != build_graph(4, [(0, 1)])


def test_has_edge():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert g.has_edge(0, 1) and g.has_edge(1, 0) and g.has_edge(2, 1)
    assert not g.has_edge(0, 2) and not g.has_edge(1, 1)
    for u, v in ((-1, 0), (0, -1), (-1, -2), (0, 3), (3, 0), (2, 99), (-5, 99)):
        assert not g.has_edge(u, v)


@pytest.mark.parametrize(
    "g", [complete(4), petersen(), build_graph(5, [(0, 1), (0, 2), (3, 4)]), build_graph(0, [])]
)
def test_graph_survives_pickle_and_deepcopy(g):
    # protocols 0 and 1 cannot pickle a slotted class; 2 and up, the default, can
    copies = [pickle.loads(pickle.dumps(g, p)) for p in range(2, pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies + [copy.deepcopy(g)]:
        assert other == g and hash(other) == hash(g)
        assert other.adj_masks == g.adj_masks and other.twins == g.twins and other.edges == g.edges


def group_order(g, gens):
    """Size of the group the permutations generate, closed by BFS."""
    identity = tuple(range(g.n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        perm = frontier.pop()
        for gen in gens:
            image = tuple(gen[v] for v in perm)
            if image not in seen:
                seen.add(image)
                frontier.append(image)
    return len(seen)


def chain_order(n, gens):
    """Order of the group the permutations generate, by Schreier-Sims: a
    base and strong generating set, then the product of the basic orbit
    lengths (Holt, Eick & O'Brien, Handbook of Computational Group Theory,
    4.4.2).  Permutations compose left to right, as maps v -> p[v]."""
    identity = tuple(range(n))

    def then(p, q):
        return tuple(map(q.__getitem__, p))

    def inverse(p):
        out = [0] * n
        for v, w in enumerate(p):
            out[w] = v
        return tuple(out)

    def moved(p):
        return next(v for v in range(n) if p[v] != v)

    strong, base = [], []
    for p in gens:
        if p != identity:
            strong.append(p)
            if all(p[b] == b for b in base):
                base.append(moved(p))
    trans = [None] * len(base)

    def sift(p, level):
        for i in range(level, len(base)):
            x = p[base[i]]
            if x not in trans[i]:
                return p, i
            p = then(p, inverse(trans[i][x]))
        return p, len(base)

    i = len(base) - 1
    while i >= 0:
        level_gens = [s for s in strong if all(s[b] == b for b in base[:i])]
        t = trans[i] = {base[i]: identity}
        queue = [base[i]]
        for x in queue:
            for s in level_gens:
                if s[x] not in t:
                    t[s[x]] = then(t[x], s)
                    queue.append(s[x])
        found = None
        for x, u in t.items():
            for s in level_gens:
                residue, j = sift(then(then(u, s), inverse(t[s[x]])), i + 1)
                if residue != identity:
                    found = residue, j
                    break
            if found:
                break
        if found is None:
            i -= 1
            continue
        residue, j = found
        strong.append(residue)
        if j == len(base):
            base.append(moved(residue))
            trans.append(None)
        i = j
    order = 1
    for t in trans:
        order *= len(t)
    return order


def complete_multipartite(*sizes):
    part = [i for i, size in enumerate(sizes) for _ in range(size)]
    n = len(part)
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if part[u] != part[v]])


def disjoint_cliques(m, k):
    return build_graph(m * k, [(b * k + i, b * k + j) for b in range(m) for i in range(k) for j in range(i + 1, k)])


def networkx_order(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges)
    return sum(1 for _ in nx.algorithms.isomorphism.GraphMatcher(nxg, nxg).isomorphisms_iter())


def seeded_graphs(count):
    rng = random.Random("automorphisms")
    for _ in range(count):
        n = rng.randrange(6, 11)
        p = rng.uniform(0.25, 0.75)
        yield build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


class TestAutomorphismGenerators:
    """The generated group against networkx's VF2 automorphism count, and
    against the known orders of standard families."""

    def check(self, g, order):
        gens = automorphism_generators(g)
        for perm in gens:
            assert sorted(perm) == list(range(g.n))
            assert relabel(g, perm) == g, (g.edges, perm)
        assert group_order(g, gens) == order, g.edges

    def test_every_graph_up_to_five_vertices(self):
        for n in range(6):
            for g in all_graphs(n):
                self.check(g, networkx_order(g))

    def test_seeded_random_graphs(self):
        for g in seeded_graphs(100):
            self.check(g, networkx_order(g))

    def test_verify_corpus(self):
        from diagnoscope.verification import default_corpus

        for entry in default_corpus():
            self.check(entry.graph, networkx_order(entry.graph))

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_hypercube_order(self, dim):
        self.check(hypercube(dim), 2**dim * factorial(dim))

    def test_petersen_order(self):
        self.check(petersen(), 120)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_complete_order(self, n):
        self.check(complete(n), factorial(n))

    @pytest.mark.parametrize("n", range(3, 11))
    def test_cycle_order(self, n):
        self.check(cycle(n), 2 * n)

    def test_asymmetric_graph_has_no_generators(self):
        # the smallest asymmetric graphs have six vertices
        g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 4), (4, 5), (1, 4)])
        assert networkx_order(g) == 1
        assert automorphism_generators(g) == ()


class TestTwinGenerators:
    """Twin-heavy graphs, where twin transpositions stand in for most of
    the leaf searches: each generator is an automorphism, there are at
    most n - 1, and they generate the whole group."""

    def check(self, g, order):
        gens = automorphism_generators(g)
        assert len(gens) <= max(g.n - 1, 0)
        for perm in gens:
            assert sorted(perm) == list(range(g.n))
            assert relabel(g, perm) == g, (g.edges, perm)
        assert chain_order(g.n, gens) == order, g.edges

    @pytest.mark.parametrize("n", range(1, 8))
    def test_complete(self, n):
        self.check(complete(n), networkx_order(complete(n)))

    def test_complete_bipartite(self):
        for a in range(1, 5):
            for b in range(a, 5):
                g = complete_bipartite(a, b)
                self.check(g, networkx_order(g))

    @pytest.mark.parametrize("sizes", [(2, 2, 2), (1, 3, 3)])
    def test_complete_multipartite(self, sizes):
        g = complete_multipartite(*sizes)
        self.check(g, networkx_order(g))

    def test_seeded_family_instances(self):
        count = 0
        for family in (1, 2, 3, 4, 5):
            for delta in (3, 4):
                for seed in (1, 2, 3):
                    _, g = random_gamma(family, delta, seed=seed)
                    assert g.n <= 12
                    self.check(g, networkx_order(g))
                    count += 1
        assert count == 30

    @pytest.mark.parametrize("m, k", [(2, 3), (3, 3), (4, 3), (3, 4), (4, 4), (6, 2), (5, 1)])
    def test_disjoint_cliques(self, m, k):
        # VF2 enumerates all (k!)^m * m! automorphisms, too many here
        self.check(disjoint_cliques(m, k), factorial(k) ** m * factorial(m))

    def test_chain_order_against_closure(self):
        # the order routine itself, against closing the group by BFS
        shift = tuple(range(1, 6)) + (0,)
        swap = (1, 0) + tuple(range(2, 6))
        flip = tuple((-v) % 6 for v in range(6))
        assert chain_order(6, [shift, swap]) == factorial(6)
        assert chain_order(6, [shift, flip]) == 12
        assert chain_order(6, [flip, flip]) == 2
        assert chain_order(6, []) == 1
        for g in (petersen(), hypercube(3), complete_bipartite(2, 3), disjoint_cliques(2, 3), cycle(7)):
            gens = automorphism_generators(g)
            assert chain_order(g.n, gens) == group_order(g, gens)
