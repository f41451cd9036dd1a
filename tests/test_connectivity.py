import random
from collections import deque
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import atlas_graphs, graphs, seeded_random_graphs
from diagnoscope.connectivity import (
    _kappa_value,
    internally_disjoint_paths,
    is_connected,
    max_common_neighbors,
    vertex_connectivity,
)
from diagnoscope.families import (
    GammaSpec,
    complete,
    complete_bipartite,
    cycle,
    hypercube,
    make_gamma,
    petersen,
    random_t_connected,
)
from diagnoscope.graphs import GraphError, build_graph, delete_edges
from diagnoscope.verification import default_corpus
from oracles import delete_vertices, induced_subgraph


# --- independent oracles -----------------------------------------------------


def brute_kappa(g):
    """Minimum size of a vertex set whose removal disconnects the graph,
    by exhaustive subset enumeration; n - 1 for complete graphs."""
    if not is_connected(g):
        return 0
    for size in range(0, g.n - 1):
        for cut in combinations(range(g.n), size):
            if not is_connected(delete_vertices(g, cut)):
                return size
    return g.n - 1


def brute_lex_min_cut(g, kappa):
    """First size-kappa subset, in lexicographic order, that disconnects the
    graph or leaves a single vertex."""
    for cut in combinations(range(g.n), kappa):
        rest = delete_vertices(g, cut)
        if rest.n == 1 or not is_connected(rest):
            return set(cut)
    return set()


def brute_separating_cut(g, u, v):
    """Minimum vertex cut separating non-adjacent u, v, by enumeration."""
    others = [w for w in range(g.n) if w not in (u, v)]
    for size in range(0, len(others) + 1):
        for cut in combinations(others, size):
            rest, remap = induced_subgraph(g, [w for w in range(g.n) if w not in cut])
            # connectivity between remapped u and v
            seen = 1 << remap[u]
            frontier = seen
            while frontier:
                nxt = 0
                for w in range(rest.n):
                    if (frontier >> w) & 1:
                        nxt |= rest.adj_masks[w]
                frontier = nxt & ~seen
                seen |= frontier
            if not (seen >> remap[v]) & 1:
                return size
    raise AssertionError("adjacent pair passed to brute_separating_cut")


class ReferenceSplitFlow:
    """The vertex-split flow network the library used before its flows ran
    on adjacency bitmasks, frozen: node 2v is the in-half of v and 2v+1 its
    out-half, every arc lives in an adjacency list, and each augmenting
    path is a breadth-first search over those lists."""

    def __init__(self, g, s, t):
        self.n = g.n
        self.s_node = 2 * s + 1
        self.t_node = 2 * t
        # arc record: [to, remaining capacity, index of reverse arc, original capacity]
        self.adj = [[] for _ in range(2 * g.n)]
        big = g.n + 1
        for v in range(g.n):
            cap = big if v in (s, t) else 1
            self._add(2 * v, 2 * v + 1, cap)
        for u, v in g.edges:
            self._add(2 * u + 1, 2 * v, 1)
            self._add(2 * v + 1, 2 * u, 1)

    def _add(self, u, v, cap):
        self.adj[u].append([v, cap, len(self.adj[v]), cap])
        self.adj[v].append([u, 0, len(self.adj[u]) - 1, 0])

    def max_flow(self):
        flow = 0
        while self._augment():
            flow += 1
        return flow

    def _augment(self):
        parent = {self.s_node: None}
        queue = deque([self.s_node])
        while queue:
            u = queue.popleft()
            if u == self.t_node:
                break
            for idx, arc in enumerate(self.adj[u]):
                if arc[1] > 0 and arc[0] not in parent:
                    parent[arc[0]] = (u, idx)
                    queue.append(arc[0])
        if self.t_node not in parent:
            return False
        node = self.t_node
        while parent[node] is not None:
            u, idx = parent[node]
            arc = self.adj[u][idx]
            arc[1] -= 1
            self.adj[arc[0]][arc[2]][1] += 1
            node = u
        return True

    def flow_paths(self):
        carrying = [dict() for _ in range(2 * self.n)]
        for u in range(2 * self.n):
            for to, remaining, _rev, original in self.adj[u]:
                if original > 0 and original - remaining > 0:
                    carrying[u][to] = original - remaining
        paths = []
        while carrying[self.s_node]:
            path = [self.s_node // 2]
            node = self.s_node
            while node != self.t_node:
                to = min(carrying[node])
                carrying[node][to] -= 1
                if carrying[node][to] == 0:
                    del carrying[node][to]
                node = to
                if node % 2 == 0 and node != self.t_node:
                    path.append(node // 2)
                    nxt = node + 1
                    carrying[node][nxt] -= 1
                    if carrying[node][nxt] == 0:
                        del carrying[node][nxt]
                    node = nxt
            path.append(self.t_node // 2)
            paths.append(tuple(path))
        return paths


def reference_disjoint_paths(g, u, v):
    """(count, paths) of the split-network extraction, frozen."""
    net = ReferenceSplitFlow(g, u, v)
    count = net.max_flow()
    return count, tuple(net.flow_paths())


def reference_kappa(g):
    """The Esfahanian-Hakimi pair list with one uncapped split-network flow
    per pair, frozen."""
    if g.m == g.n * (g.n - 1) // 2:
        return g.n - 1
    if not is_connected(g):
        return 0
    v0 = min(range(g.n), key=lambda v: (g.degrees[v], v))
    best = g.degrees[v0]
    nbrs = g.adj_masks[v0]
    for u in range(g.n):
        if u != v0 and not (nbrs >> u) & 1:
            best = min(best, ReferenceSplitFlow(g, v0, u).max_flow())
    nbr_list = [v for v in range(g.n) if (nbrs >> v) & 1]
    for i, a in enumerate(nbr_list):
        for b in nbr_list[i + 1:]:
            if not g.has_edge(a, b):
                best = min(best, ReferenceSplitFlow(g, a, b).max_flow())
    return best


def reference_witness_cut(g):
    """The prefix-greedy cut, frozen: extend the prefix by the smallest
    vertex whose deletion lowers the connectivity of the rest by one."""
    kappa = reference_kappa(g)
    if g.m == g.n * (g.n - 1) // 2 or kappa == 0:
        return frozenset()
    prefix = []
    while len(prefix) < kappa:
        for v in range(g.n):
            if v not in prefix and reference_kappa(delete_vertices(g, prefix + [v])) <= kappa - len(prefix) - 1:
                prefix.append(v)
                break
    return frozenset(prefix)


ATLAS = atlas_graphs(7)


two_triangles = build_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
bridged_triangles = build_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])


class TestVertexConnectivity:
    def test_complete(self):
        report = vertex_connectivity(complete(5))
        assert report.kappa == 4
        assert report.witness_cut == frozenset()
        assert report.maximally_connected

    def test_petersen(self):
        assert vertex_connectivity(petersen()).kappa == 3
        assert brute_kappa(petersen()) == 3

    def test_disconnected(self):
        report = vertex_connectivity(two_triangles)
        assert report.kappa == 0
        assert report.witness_cut == frozenset()

    def test_hypercubes_match_brute_force(self):
        for dim in (2, 3, 4):
            g = hypercube(dim)
            assert vertex_connectivity(g).kappa == brute_kappa(g) == dim

    def test_q3_golden_witness_cut(self):
        # frozen: the lexicographically smallest 3-cut isolates vertex 1
        assert vertex_connectivity(hypercube(3)).witness_cut == frozenset({0, 3, 5})

    def test_single_vertex(self):
        assert vertex_connectivity(complete(1)).kappa == 0

    def test_empty_graph_error(self):
        with pytest.raises(GraphError):
            vertex_connectivity(build_graph(0, []))

    @given(graphs(1, 7))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, g):
        assert vertex_connectivity(g).kappa == brute_kappa(g)

    @given(graphs(2, 7))
    @settings(max_examples=40, deadline=None)
    def test_witness_is_lex_min_cut(self, g):
        report = vertex_connectivity(g)
        if report.kappa == 0 or g.m == g.n * (g.n - 1) // 2:
            assert report.witness_cut == frozenset()
            return
        assert report.witness_cut == brute_lex_min_cut(g, report.kappa)
        rest = delete_vertices(g, report.witness_cut)
        assert rest.n == 1 or not is_connected(rest)

    @given(graphs(1, 7))
    @settings(max_examples=60, deadline=None)
    def test_kappa_at_most_min_degree(self, g):
        assert vertex_connectivity(g).kappa <= g.min_degree


class TestMatchesReference:
    """kappa and the witness cut against the frozen split-network code."""

    def check(self, g):
        report = vertex_connectivity(g)
        assert report.kappa == _kappa_value(g) == reference_kappa(g)
        assert report.witness_cut == reference_witness_cut(g)

    def test_atlas(self):
        for g in ATLAS:  # every graph on 1..7 vertices
            self.check(g)

    def test_seeded_random(self):
        for g in seeded_random_graphs(300, 7, 14, seed=6006):
            self.check(g)

    def test_default_corpus(self):
        for entry in default_corpus():
            self.check(entry.graph)

    def test_complete_bipartite(self):
        for a in range(1, 9):
            for b in range(a, 9):
                self.check(complete_bipartite(a, b))



class TestCappedKappa:
    """``_kappa_value(g, cap)`` is min(kappa, cap) for every cap in 0..n."""

    @staticmethod
    def check(g):
        kappa = _kappa_value(g)
        for cap in range(g.n + 1):
            assert _kappa_value(g, cap) == min(kappa, cap), (g.edges, cap)

    def test_atlas_up_to_six_vertices(self):
        for g in atlas_graphs(6):
            self.check(g)

    def test_seeded_random(self):
        sample = seeded_random_graphs(300, 2, 12, seed=7007)
        assert any(not is_connected(g) for g in sample)
        for g in sample:
            self.check(g)


class TestFrontier:
    """Values measured with the split-network code, which takes seconds to
    minutes on these graphs."""

    def test_hypercubes(self):
        assert _kappa_value(hypercube(5)) == 5
        report = vertex_connectivity(hypercube(6))
        assert report.kappa == 6
        assert report.witness_cut == frozenset({0, 3, 5, 9, 17, 33})

    def test_complete_bipartite_32_32(self):
        report = vertex_connectivity(complete_bipartite(32, 32))
        assert report.kappa == 32
        assert report.witness_cut == frozenset(range(32))

    def test_random_t_connected_64(self):
        assert _kappa_value(random_t_connected(64, 6, 1)) == 9


class TestDisjointPaths:
    def test_opposite_corners_of_c4(self):
        family = internally_disjoint_paths(cycle(4), 0, 2)
        assert family.count == 2
        assert sorted(family.paths) == [(0, 1, 2), (0, 3, 2)]

    def test_hypercube_antipodal(self):
        family = internally_disjoint_paths(hypercube(3), 0, 7)
        assert family.count == 3

    def test_path_endpoints(self):
        family = internally_disjoint_paths(build_graph(3, [(0, 1), (1, 2)]), 0, 2)
        assert family.count == 1
        assert family.paths == ((0, 1, 2),)

    def test_same_vertex_error(self):
        with pytest.raises(GraphError):
            internally_disjoint_paths(cycle(4), 1, 1)

    def test_disconnected_pair(self):
        family = internally_disjoint_paths(two_triangles, 0, 3)
        assert family.count == 0
        assert family.paths == ()

    def test_augmenting_path_backs_over_a_used_vertex(self):
        # the first unit runs 0-6-3-7-1; the second enters 7 from 2 and must
        # cancel 3 -> 7, cross 3's split arc backwards and cancel 6 -> 3
        g = build_graph(9, [(0, 6), (0, 8), (1, 5), (1, 7), (2, 7), (2, 8),
                            (3, 6), (3, 7), (4, 5), (4, 6), (5, 7)])
        family = internally_disjoint_paths(g, 0, 1)
        assert (family.count, family.paths) == reference_disjoint_paths(g, 0, 1)
        assert family.paths == ((0, 6, 4, 5, 1), (0, 8, 2, 7, 1))

    def test_same_families_as_reference(self):
        small = [g for g in ATLAS if g.n <= 6]
        for g in small + seeded_random_graphs(100, 5, 12, seed=6007):
            for u in range(g.n):
                for v in range(g.n):
                    if u != v:
                        family = internally_disjoint_paths(g, u, v)
                        assert (family.count, family.paths) == reference_disjoint_paths(g, u, v)

    @given(graphs(2, 7), st.data())
    @settings(max_examples=60, deadline=None)
    def test_paths_realize_count_and_are_disjoint(self, g, data):
        u = data.draw(st.integers(min_value=0, max_value=g.n - 1))
        v = data.draw(st.integers(min_value=0, max_value=g.n - 1).filter(lambda x: x != u))
        family = internally_disjoint_paths(g, u, v)
        assert len(family.paths) == family.count
        interior_seen = set()
        for p in family.paths:
            assert p[0] == u and p[-1] == v
            for a, b in zip(p, p[1:]):
                assert g.has_edge(a, b)
            interior = set(p[1:-1])
            assert len(interior) == len(p) - 2
            assert not (interior & interior_seen)
            interior_seen |= interior

    @given(graphs(2, 7), st.data())
    @settings(max_examples=40, deadline=None)
    def test_menger_value_for_nonadjacent_pairs(self, g, data):
        non_adjacent = [
            (u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if not g.has_edge(u, v)
        ]
        if not non_adjacent:
            return
        u, v = data.draw(st.sampled_from(non_adjacent))
        assert internally_disjoint_paths(g, u, v).count == brute_separating_cut(g, u, v)

    @given(graphs(2, 7))
    @settings(max_examples=40, deadline=None)
    def test_kappa_is_min_over_nonadjacent_pairs(self, g):
        non_adjacent = [
            (u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if not g.has_edge(u, v)
        ]
        kappa = vertex_connectivity(g).kappa
        if not non_adjacent:
            assert kappa == g.n - 1
            return
        assert kappa == min(
            internally_disjoint_paths(g, u, v).count for u, v in non_adjacent
        )


class TestWhitneyAndEdgeDeletion:
    @given(graphs(3, 7))
    @settings(max_examples=40, deadline=None)
    def test_two_connected_graphs_have_two_disjoint_paths_everywhere(self, g):
        if vertex_connectivity(g).kappa < 2:
            return
        for u in range(g.n):
            for v in range(u + 1, g.n):
                assert internally_disjoint_paths(g, u, v).count >= 2

    def test_edge_deletion_lower_bound_seeded(self):
        rng = random.Random(6021)
        corpus = [hypercube(3), petersen(), complete(5), cycle(6)]
        for _ in range(60):
            g = rng.choice(corpus)
            kappa = vertex_connectivity(g).kappa
            size = rng.randrange(0, kappa + 1)
            scenario = rng.sample(list(g.edges), size)
            assert vertex_connectivity(delete_edges(g, scenario)).kappa >= kappa - size


class TestMaximallyConnected:
    def test_hypercube(self):
        assert vertex_connectivity(hypercube(4)).maximally_connected

    def test_bridged_triangles(self):
        # min degree 2 but a cut vertex: not maximally connected
        assert bridged_triangles.min_degree == 2
        assert vertex_connectivity(bridged_triangles).kappa == 1
        assert not vertex_connectivity(bridged_triangles).maximally_connected

    def test_complete(self):
        assert vertex_connectivity(complete(6)).maximally_connected


class TestMaxCommonNeighbors:
    def test_complete(self):
        report = max_common_neighbors(complete(4))
        assert report.value == 2
        assert report.pair == (0, 1)

    def test_hypercube(self):
        assert max_common_neighbors(hypercube(3)).value == 2

    def test_core_join_block(self):
        g = make_gamma(GammaSpec(1, 3, 4, core_edges=((0, 1), (0, 2), (1, 2))))
        report = max_common_neighbors(g)
        # two core vertices share the third core vertex and the whole block
        assert report.value == 5
        assert report.pair == (0, 1)

    def test_petersen(self):
        assert max_common_neighbors(petersen()).value == 1

    def test_too_small(self):
        with pytest.raises(GraphError):
            max_common_neighbors(complete(1))

    @given(graphs(2, 7))
    @settings(max_examples=40)
    def test_value_matches_direct_recount(self, g):
        report = max_common_neighbors(g)
        best = max(
            len(g.neighbors(u) & g.neighbors(v))
            for u in range(g.n)
            for v in range(u + 1, g.n)
        )
        assert report.value == best
        u, v = report.pair
        assert len(g.neighbors(u) & g.neighbors(v)) == best
