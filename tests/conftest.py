import random
from itertools import combinations

import networkx as nx
from hypothesis import strategies as st

from diagnoscope.families import complete, complete_bipartite
from diagnoscope.graphs import build_graph


def all_graphs(n):
    """Every labelled graph on exactly n vertices."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield build_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def atlas_graphs(max_n):
    """Every graph on 1..max_n vertices up to isomorphism (max_n <= 7), from
    the networkx graph atlas."""
    return [build_graph(h.number_of_nodes(), list(h.edges()))
            for h in nx.graph_atlas_g()[1:] if h.number_of_nodes() <= max_n]


def seeded_random_graphs(count, n_min, n_max, seed):
    """``count`` seeded G(n, p) graphs, n in n_min..n_max and p drawn per
    graph, so sparse disconnected graphs come with dense ones."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(n_min, n_max)
        p = rng.random()
        out.append(build_graph(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
    return out


@st.composite
def graphs(draw, min_n, max_n):
    """A labelled graph on min_n..max_n vertices, one boolean draw per pair."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    return build_graph(n, [p for p in combinations(range(n), 2) if draw(st.booleans())])


def planted_twins(rng):
    """A seeded random graph on 3-6 vertices with 1-4 planted twins, true
    (N[w] = N[v]) or false (N(w) = N(v)), now and then one or two
    isolated vertices, and labels shuffled so that no class is a run of
    consecutive vertices."""
    k = rng.randrange(3, 7)
    p = rng.uniform(0.4, 1.0)
    nbrs = [set() for _ in range(k)]
    for u, v in combinations(range(k), 2):
        if rng.random() < p:
            nbrs[u].add(v)
            nbrs[v].add(u)
    for _ in range(rng.randrange(1, 5)):
        v = rng.randrange(len(nbrs))
        w = len(nbrs)
        nbrs.append(set(nbrs[v]) | ({v} if rng.random() < 0.5 else set()))
        for x in nbrs[w]:
            nbrs[x].add(w)
    nbrs += [set() for _ in range(rng.choice((0, 0, 0, 0, 0, 0, 1, 2)))]
    label = list(range(len(nbrs)))
    rng.shuffle(label)
    return build_graph(len(nbrs), [(label[u], label[v]) for u in range(len(nbrs)) for v in nbrs[u] if u < v])


def twin_graphs():
    """(name, graph) pairs built from twin classes: K_{a,b} for a <= b <= 6,
    K1-K9, graphs with isolated vertices and 100 seeded planted-twin graphs."""
    out = [(f"K{a},{b}", complete_bipartite(a, b)) for a in range(1, 7) for b in range(a, 7)]
    out += [(f"K{n}", complete(n)) for n in range(1, 10)]
    out += [(f"{n} isolated", build_graph(n, [])) for n in range(1, 6)]
    out += [("K3 + 2 isolated", build_graph(5, [(1, 2), (1, 4), (2, 4)]))]
    out += [("K2,3 + 1 isolated", build_graph(6, [(0, u) for u in (2, 3, 5)] + [(4, u) for u in (2, 3, 5)]))]
    rng = random.Random("planted-twins")
    out += [(f"planted {i}", planted_twins(rng)) for i in range(100)]
    return out
