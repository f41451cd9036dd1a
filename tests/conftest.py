from itertools import combinations

from diagnoscope.graphs import build_graph


def all_graphs(n):
    """Every labelled graph on exactly n vertices."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield build_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
