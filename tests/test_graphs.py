import random
from math import factorial

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagnoscope.families import complete, cycle, hypercube, petersen
from diagnoscope.graphs import (
    CapExceededError,
    GraphError,
    automorphism_generators,
    build_graph,
    complement,
    degree_profile,
    delete_edges,
    induced_subgraph,
    join,
    relabel,
    star_1,
    star_r,
)


def empty_graph(n):
    return build_graph(n, [])


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e in pairs if draw(st.booleans())]
    return build_graph(n, edges)


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

    def test_cap_argument_override(self):
        assert build_graph(70, [], cap=128).n == 70

    def test_adjacency_symmetric(self):
        g = build_graph(4, [(0, 2), (1, 3), (2, 3)])
        for u in range(4):
            for v in range(4):
                assert ((g.adj_masks[u] >> v) & 1) == ((g.adj_masks[v] >> u) & 1)

    def test_edge_count_equals_half_degree_sum(self):
        g = build_graph(5, [(0, 1), (0, 2), (3, 4)])
        assert sum(g.degrees) == 2 * g.m


class TestComplement:
    def test_empty_to_complete(self):
        assert complement(empty_graph(4)) == complete(4)
        assert complement(empty_graph(4)).m == 6

    def test_five_cycle_self_complementary(self):
        co = complement(cycle(5))
        # isomorphic to a 5-cycle: 5 edges, 2-regular, connected
        assert co.m == 5
        assert set(co.degrees) == {2}
        from diagnoscope.connectivity import is_connected

        assert is_connected(co)

    @given(graphs())
    @settings(max_examples=60)
    def test_involution(self, g):
        assert complement(complement(g)) == g


class TestJoin:
    def test_k22_is_c4(self):
        g = join(empty_graph(2), empty_graph(2))
        assert g.edge_set == {(0, 2), (0, 3), (1, 2), (1, 3)}

    def test_edge_count(self):
        g = join(complete(3), empty_graph(4))
        assert g.n == 7
        assert g.m == 3 + 12

    def test_identity(self):
        g = build_graph(3, [(0, 2)])
        assert join(empty_graph(0), g) == g
        assert join(g, empty_graph(0)) == g

    @given(graphs(max_n=5), graphs(max_n=5))
    @settings(max_examples=40)
    def test_edge_count_formula(self, g, h):
        assert join(g, h).m == g.m + h.m + g.n * h.n


class TestStarR:
    def test_empty_cross(self):
        assert star_r(complete(1), complete(1), []) == empty_graph(2)

    def test_full_cross_k1_k1(self):
        assert star_r(complete(1), complete(1), [(0, 0)]) == complete(2)

    def test_c4_from_two_edges(self):
        g = star_r(complete(2), complete(2), [(0, 0), (1, 1)])
        assert g.edge_set == {(0, 1), (2, 3), (0, 2), (1, 3)}

    def test_bad_cross_pair(self):
        with pytest.raises(GraphError, match="right endpoint"):
            star_r(complete(2), complete(2), [(0, 5)])
        with pytest.raises(GraphError, match="left endpoint"):
            star_r(complete(2), complete(2), [(3, 0)])


class TestStar1:
    def test_star_plus_pendant_edge(self):
        g = star_1(empty_graph(3), complete(2), {0: 0, 1: 0, 2: 0})
        assert g.edge_set == {(0, 3), (1, 3), (2, 3), (3, 4)}

    def test_single_vertex(self):
        assert star_1(empty_graph(1), complete(1), {0: 0}) == complete(2)

    def test_p4(self):
        g = star_1(empty_graph(2), complete(2), {0: 0, 1: 1})
        # path 0-2-3-1
        assert g.edge_set == {(0, 2), (2, 3), (1, 3)}

    def test_partial_assignment(self):
        with pytest.raises(GraphError, match="not total"):
            star_1(empty_graph(2), complete(2), {0: 0})

    @given(graphs(max_n=4), st.integers(min_value=1, max_value=3), st.data())
    @settings(max_examples=40)
    def test_every_left_vertex_gets_one_right_neighbor(self, g, hn, data):
        h = empty_graph(hn)
        assign = [data.draw(st.integers(min_value=0, max_value=hn - 1)) for _ in range(g.n)]
        joined = star_1(g, h, assign)
        for v in range(g.n):
            right = [w for w in range(g.n, g.n + hn) if joined.has_edge(v, w)]
            assert len(right) == 1


class TestDeleteEdges:
    def test_triangle_to_path(self):
        g = delete_edges(complete(3), [(0, 1)])
        assert g.edge_set == {(0, 2), (1, 2)}

    def test_identity(self):
        g = cycle(4)
        assert delete_edges(g, []) == g

    def test_cycle_to_path(self):
        g = delete_edges(cycle(4), [(0, 3)])
        assert sorted(g.degrees) == [1, 1, 2, 2]

    def test_non_edge_error(self):
        with pytest.raises(GraphError, match="not an edge"):
            delete_edges(cycle(4), [(0, 2)])

    @given(graphs(), st.data())
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

    @given(graphs(), st.data())
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
        prof = degree_profile(hypercube(3))
        assert prof.min_degree == 3
        assert prof.degrees == (3,) * 8
        assert prof.is_regular

    def test_join_core_block(self):
        g = join(complete(3), empty_graph(4))
        prof = degree_profile(g)
        assert prof.min_degree == 3
        assert prof.degrees == (3, 3, 3, 3, 6, 6, 6)
        assert not prof.is_regular

    def test_single_vertex(self):
        prof = degree_profile(complete(1))
        assert prof == degree_profile(empty_graph(1))
        assert prof.min_degree == 0
        assert prof.is_regular

    def test_empty_graph_error(self):
        with pytest.raises(GraphError):
            degree_profile(empty_graph(0))


class TestRelabel:
    @given(graphs(max_n=6), st.randoms(use_true_random=False))
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


def networkx_order(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges)
    return sum(1 for _ in nx.algorithms.isomorphism.GraphMatcher(nxg, nxg).isomorphisms_iter())


def all_graphs(max_n):
    for n in range(0, max_n + 1):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for bits in range(1 << len(pairs)):
            yield build_graph(n, [e for i, e in enumerate(pairs) if (bits >> i) & 1])


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
        for g in all_graphs(5):
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
