"""Seeded stress tests pinning the two subtlest engine pieces directly to
their defining semantics: the comparison-model split search against
exhaustive split enumeration through the public predicate, and the
folded PMC tolerance scan against the definitional scenario sweep on
graphs slightly larger than the property tests reach."""

import random
from itertools import combinations

from diagnoscope.diagnosis import DiagModel, _mm_split
from diagnoscope.graphs import bits_of, build_graph
from diagnoscope.tolerance import edge_tolerable_diagnosability
from oracles import distinguishable_mm, edge_tolerable_by_definition


def random_graph(rng, n, p=0.45):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return build_graph(n, edges)


def test_mm_split_matches_exhaustive_split_enumeration():
    """_mm_split finds a within-budget split iff some explicit split of D
    into (D1, D2) makes (S | D1, S | D2) indistinguishable per the public
    predicate; produced splits must themselves check out."""
    rng = random.Random("mm-split-stress")
    checked = produced = 0
    for _ in range(400):
        n = rng.randrange(4, 9)
        g = random_graph(rng, n)
        verts = list(range(n))
        rng.shuffle(verts)
        d_size = rng.randrange(1, min(5, n) + 1)
        s_size = rng.randrange(0, n - d_size + 1)
        d_list = sorted(verts[:d_size])
        s_list = sorted(verts[d_size:d_size + s_size])
        d_mask = sum(1 << v for v in d_list)
        s_mask = sum(1 << v for v in s_list)
        o_mask = g.full_mask & ~(d_mask | s_mask)
        t = rng.randrange(s_size + 1, s_size + d_size + 2)
        bound = t - s_size

        # condition (1) is split-independent; the split search assumes the
        # caller already ruled it out, so enforce that here
        blocked = 0
        for u in bits_of(o_mask):
            if g.adj_masks[u] & o_mask:
                blocked |= g.adj_masks[u]
        if d_mask & blocked:
            continue
        checked += 1

        expected = False
        for pattern in range(1 << d_size):
            d1 = {d_list[i] for i in range(d_size) if (pattern >> i) & 1}
            d2 = set(d_list) - d1
            if max(len(d1), len(d2)) > bound:
                continue
            f1 = set(s_list) | d1
            f2 = set(s_list) | d2
            if f1 == f2:
                continue
            if not distinguishable_mm(g, f1, f2).distinguishable:
                expected = True
                break

        split = _mm_split(g.adj_masks, o_mask, d_mask, bound)
        assert (split is not None) == expected, (g.edges, d_list, s_list, t)
        if split is not None:
            produced += 1
            part1, part2 = split
            assert part1 | part2 == d_mask and part1 & part2 == 0
            assert part1.bit_count() <= bound and part2.bit_count() <= bound
            f1 = set(s_list) | set(bits_of(part1))
            f2 = set(s_list) | set(bits_of(part2))
            assert not distinguishable_mm(g, f1, f2).distinguishable
    assert checked > 100 and produced > 20


def test_folded_pmc_matches_definition_on_seeded_graphs():
    rng = random.Random("pmc-folded-stress")
    for _ in range(10):
        g = random_graph(rng, 8, p=rng.uniform(0.3, 0.7))
        delta = g.min_degree
        for h in range(0, min(delta, 3) + 1):
            assert (
                edge_tolerable_diagnosability(g, h, DiagModel.PMC).value
                == edge_tolerable_by_definition(g, h, DiagModel.PMC)
            ), (g.edges, h)


def test_mm_sweep_matches_definition_on_seeded_graphs():
    rng = random.Random("mm-sweep-stress")
    for _ in range(8):
        g = random_graph(rng, 7, p=rng.uniform(0.35, 0.7))
        for h in range(0, min(g.min_degree, 2) + 1):
            assert (
                edge_tolerable_diagnosability(g, h, DiagModel.MMSTAR).value
                == edge_tolerable_by_definition(g, h, DiagModel.MMSTAR)
            ), (g.edges, h)
