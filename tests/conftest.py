from itertools import combinations

from hypothesis import strategies as st

from diagnoscope.graphs import build_graph


def all_graphs(n):
    """Every labelled graph on exactly n vertices."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield build_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


@st.composite
def graphs(draw, min_n, max_n):
    """A labelled graph on min_n..max_n vertices, one boolean draw per pair."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    return build_graph(n, [p for p in combinations(range(n), 2) if draw(st.booleans())])
