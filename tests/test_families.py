import random
import re
import time
from itertools import combinations
from typing import Dict, Optional, Sequence, Tuple

import networkx as nx
import pytest

from diagnoscope.connectivity import max_common_neighbors, vertex_connectivity
from diagnoscope.diagnosis import DiagModel, diagnosability
from diagnoscope.families import (
    FAMILY_MIN_DELTA,
    _FAMILY_FIELDS,
    GammaSpec,
    RecognitionResult,
    RecognizedDecomposition,
    _draw_spec,
    _template_search,
    common_neighbor_shortcut,
    circulant,
    complete,
    complete_bipartite,
    cycle,
    gamma_vertex_count,
    hypercube,
    make_gamma,
    minimal_block_size,
    path,
    petersen,
    prism,
    random_gamma,
    random_t_connected,
    recognize_exceptional,
    wheel,
)
from diagnoscope.graphs import CapExceededError, Edge, Graph, GraphError, bits_of, build_graph
from oracles import rebuild_from_witness

K3_EDGES = ((0, 1), (0, 2), (1, 2))


# Frozen copy of the recognizer's per-family matchers before layouts and
# the make_gamma rebuild replaced them: each states its family's shape by
# hand and builds the GammaSpec field by field.


def reference_local_edges(g: Graph, block: Sequence[int]) -> Tuple[Edge, ...]:
    pos = {v: i for i, v in enumerate(block)}
    out = []
    for u, v in g.edges:
        if u in pos and v in pos:
            a, b = pos[u], pos[v]
            out.append((min(a, b), max(a, b)))
    return tuple(sorted(out))


def reference_match_family1(g: Graph, delta: int) -> Optional[RecognizedDecomposition]:
    n = g.n
    seen = set()
    for v in range(n):
        if g.degree(v) != delta:
            continue
        h_mask = g.adj_masks[v]
        if h_mask in seen:
            continue
        seen.add(h_mask)
        core = sorted(bits_of(h_mask))
        block = [u for u in range(n) if not (h_mask >> u) & 1]
        if len(block) < delta + 1:
            continue
        if all(g.adj_masks[u] == h_mask for u in block):
            spec = GammaSpec(1, delta, len(block), reference_local_edges(g, core))
            return RecognizedDecomposition(spec, tuple(core + block))
    return None


def reference_match_family2(g: Graph, delta: int) -> Optional[RecognizedDecomposition]:
    n = g.n
    l = n - delta - 1
    if l < delta + 1:
        return None
    for b0, b1 in g.edges:
        pair_mask = (1 << b0) | (1 << b1)
        groups: Dict[int, None] = {}
        for u in range(n):
            if (pair_mask >> u) & 1 or g.degree(u) != delta:
                continue
            nb = g.adj_masks[u]
            if (nb & pair_mask).bit_count() != 1:
                continue
            groups.setdefault(nb & ~pair_mask, None)
        for a_mask in sorted(groups):
            if a_mask.bit_count() != delta - 1 or a_mask & pair_mask:
                continue
            block = [
                u
                for u in range(n)
                if not (pair_mask >> u) & 1 and not (a_mask >> u) & 1
            ]
            if len(block) != l:
                continue
            ok = all(
                g.degree(u) == delta
                and (g.adj_masks[u] & pair_mask).bit_count() == 1
                and g.adj_masks[u] & ~pair_mask == a_mask
                for u in block
            )
            if not ok:
                continue
            core = sorted(bits_of(a_mask))
            pair = [b0, b1]
            assign = tuple(
                0 if g.has_edge(u, b0) else 1 for u in block
            )
            core_pair = tuple(
                (i, s)
                for i, c in enumerate(core)
                for s, b in enumerate(pair)
                if g.has_edge(c, b)
            )
            spec = GammaSpec(
                2,
                delta,
                l,
                reference_local_edges(g, core),
                core_pair_edges=core_pair,
                assign=assign,
            )
            return RecognizedDecomposition(spec, tuple(core + pair + block))
    return None


def reference_match_family3(g: Graph, delta: int) -> Optional[RecognizedDecomposition]:
    """Scan pairs of disjoint side pairs in lexicographic order.

    Each of the l = n - delta - 2 block vertices has degree delta,
    exactly one neighbour in each side pair, and the core as its other
    neighbours.  So a ``left`` pair is skipped when fewer than l
    degree-delta vertices outside it have exactly one neighbour in it, a
    ``right`` pair when fewer than l of those also have exactly one
    neighbour in it, and a core when fewer than l of the survivors have
    it as their neighbours off the sides.  Each test is necessary, so the
    first decomposition found is the one the unpruned scan finds.  The
    first two tests are one mask intersection each, at most O(n^4) in
    all; only pairs passing both pay an O(n) grouping pass.
    """
    n = g.n
    l = n - delta - 2
    if l < delta + 1 or delta < 3:
        return None
    adj = g.adj_masks
    low = sum(1 << u for u in range(n) if g.degree(u) == delta)
    two_sets = list(combinations(range(n), 2))
    masks = [(1 << a) | (1 << b) for a, b in two_sets]
    # the vertices outside each pair with exactly one neighbour in it
    once = [(adj[a] ^ adj[b]) & ~mask for (a, b), mask in zip(two_sets, masks)]
    for i, left in enumerate(two_sets):
        left_mask = masks[i]
        once_left = low & once[i]
        if once_left.bit_count() < l:
            continue
        rights = [
            j for j in range(i + 1, len(two_sets))
            if (once_left & once[j]).bit_count() >= l and not masks[j] & left_mask
        ]
        for j in rights:
            right, right_mask = two_sets[j], masks[j]
            sides = left_mask | right_mask
            groups: Dict[int, int] = {}
            for u in bits_of(once_left & once[j]):
                key = adj[u] & ~sides
                groups[key] = groups.get(key, 0) + 1
            for a_mask in sorted(key for key, size in groups.items() if size >= l):
                if a_mask.bit_count() != delta - 2 or a_mask & sides:
                    continue
                block = [
                    u
                    for u in range(n)
                    if not (sides >> u) & 1 and not (a_mask >> u) & 1
                ]
                if len(block) != l:
                    continue
                ok = all(
                    g.degree(u) == delta
                    and (g.adj_masks[u] & left_mask).bit_count() == 1
                    and (g.adj_masks[u] & right_mask).bit_count() == 1
                    and g.adj_masks[u] & ~sides == a_mask
                    for u in block
                )
                if not ok:
                    continue
                core = sorted(bits_of(a_mask))
                spec = GammaSpec(
                    3,
                    delta,
                    l,
                    reference_local_edges(g, core),
                    left_pair_edges=reference_local_edges(g, list(left)),
                    right_pair_edges=reference_local_edges(g, list(right)),
                    core_left_edges=tuple(
                        (ci, s)
                        for ci, c in enumerate(core)
                        for s, b in enumerate(left)
                        if g.has_edge(c, b)
                    ),
                    core_right_edges=tuple(
                        (ci, s)
                        for ci, c in enumerate(core)
                        for s, b in enumerate(right)
                        if g.has_edge(c, b)
                    ),
                    left_right_edges=tuple(
                        (a, b)
                        for a, x in enumerate(left)
                        for b, y in enumerate(right)
                        if g.has_edge(x, y)
                    ),
                    assign_left=tuple(0 if g.has_edge(u, left[0]) else 1 for u in block),
                    assign_right=tuple(0 if g.has_edge(u, right[0]) else 1 for u in block),
                )
                layout = list(left) + core + list(right) + block
                return RecognizedDecomposition(spec, tuple(layout))
    return None


def reference_match_family4(g: Graph, delta: int) -> Optional[RecognizedDecomposition]:
    n = g.n
    l = n - delta
    if l < delta + 1:
        return None
    for u1, u2 in g.edges:
        if g.degree(u1) not in (delta, delta + 1) or g.degree(u2) not in (delta, delta + 1):
            continue
        bridge_mask = (1 << u1) | (1 << u2)
        seen = set()
        for w in range(n):
            if (bridge_mask >> w) & 1 or g.degree(w) != delta:
                continue
            h_mask = g.adj_masks[w]
            if h_mask in seen or h_mask & bridge_mask:
                continue
            seen.add(h_mask)
            if h_mask.bit_count() != delta:
                continue
            block = [u for u in range(n) if not (h_mask >> u) & 1]
            if len(block) != l:
                continue
            others_ok = all(
                g.adj_masks[u] == h_mask for u in block if u not in (u1, u2)
            )
            if not others_ok:
                continue
            block_mask = g.full_mask & ~h_mask
            ok = True
            removed = []
            for slot, u in enumerate((u1, u2)):
                nb = g.adj_masks[u]
                if nb & block_mask != bridge_mask ^ (1 << u):
                    ok = False
                    break
                missing = h_mask & ~nb
                if missing.bit_count() > 1:
                    ok = False
                    break
                core = sorted(bits_of(h_mask))
                for c in bits_of(missing):
                    removed.append((core.index(c), slot))
            if not ok:
                continue
            core = sorted(bits_of(h_mask))
            spec = GammaSpec(
                4,
                delta,
                l,
                reference_local_edges(g, core),
                bridge=(block.index(u1), block.index(u2)),
                removed=tuple(sorted(removed)),
            )
            return RecognizedDecomposition(spec, tuple(core + block))
    return None


def reference_match_family5(g: Graph, delta: int) -> Optional[RecognizedDecomposition]:
    n = g.n
    l = n - delta - 1
    if l < delta + 2:
        return None
    cands = set()
    for v in range(n):
        deg = g.degree(v)
        nb = g.adj_masks[v]
        if deg == delta + 1:
            cands.add(nb)
        elif deg == delta:
            for w in range(n):
                if w != v and not (nb >> w) & 1:
                    cands.add(nb | (1 << w))
    for h_mask in sorted(cands):
        if h_mask.bit_count() != delta + 1:
            continue
        block = [u for u in range(n) if not (h_mask >> u) & 1]
        if len(block) != l:
            continue
        ok = all(
            g.adj_masks[u] & ~h_mask == 0 and g.degree(u) >= delta for u in block
        )
        if not ok:
            continue
        core = sorted(bits_of(h_mask))
        pos = {c: i for i, c in enumerate(core)}
        attach = tuple(
            tuple(pos[c] for c in sorted(bits_of(g.adj_masks[u]))) for u in block
        )
        spec = GammaSpec(5, delta, l, reference_local_edges(g, core), attach=attach)
        return RecognizedDecomposition(spec, tuple(core + block))
    return None


def reference_template_search(g, delta):
    """Frozen template search: every family matcher in index order."""
    matchers = (
        reference_match_family1,
        reference_match_family2,
        reference_match_family3,
        reference_match_family4,
        reference_match_family5,
    )
    for index, matcher in enumerate(matchers, start=1):
        found = matcher(g, delta)
        if found is not None:
            return index, found
    return None, None


def reference_recognize(g):
    """The recognizer's filters, then the frozen template search."""
    if g.n == 0:
        return RecognitionResult(False, None, None)
    delta = g.min_degree
    if delta < FAMILY_MIN_DELTA or g.n < 2 * delta + 1 or g.is_regular:
        return RecognitionResult(False, None, None)
    if common_neighbor_shortcut(delta, max_common_neighbors(g).value):
        return RecognitionResult(False, None, None)
    index, witness = reference_template_search(g, delta)
    return RecognitionResult(index is not None, index, witness)


# Frozen copy of the seeded spec draw before the block-layout table drove
# it: one branch per family, each drawing its fields in a hand-written
# order.


def reference_draw_spec(rng: random.Random, family: int, delta: int, l: int) -> GammaSpec:
    core = {1: delta, 2: delta - 1, 3: delta - 2, 4: delta, 5: delta + 1}[family]
    core_edges = tuple(
        (u, v) for u in range(core) for v in range(u + 1, core) if rng.random() < 0.5
    )
    if family == 1:
        return GammaSpec(1, delta, l, core_edges)
    if family == 2:
        cross = tuple(
            (c, s) for c in range(core) for s in (0, 1) if rng.random() < 0.5
        )
        assign = tuple(rng.randrange(2) for _ in range(l))
        return GammaSpec(2, delta, l, core_edges, core_pair_edges=cross, assign=assign)
    if family == 3:
        left = tuple([(0, 1)]) if rng.random() < 0.5 else ()
        right = tuple([(0, 1)]) if rng.random() < 0.5 else ()
        cl = tuple((c, s) for c in range(core) for s in (0, 1) if rng.random() < 0.3)
        cr = tuple((c, s) for c in range(core) for s in (0, 1) if rng.random() < 0.3)
        lr = tuple((a, b) for a in (0, 1) for b in (0, 1) if rng.random() < 0.3)
        al = tuple(rng.randrange(2) for _ in range(l))
        ar = tuple(rng.randrange(2) for _ in range(l))
        return GammaSpec(
            3,
            delta,
            l,
            core_edges,
            left_pair_edges=left,
            right_pair_edges=right,
            core_left_edges=cl,
            core_right_edges=cr,
            left_right_edges=lr,
            assign_left=al,
            assign_right=ar,
        )
    if family == 4:
        u1, u2 = sorted(rng.sample(range(l), 2))
        removed = []
        for slot in (0, 1):
            if rng.random() < 0.5:
                removed.append((rng.randrange(core), slot))
        return GammaSpec(
            4, delta, l, core_edges, bridge=(u1, u2), removed=tuple(removed)
        )
    attach = []
    for _ in range(l):
        size = delta if rng.random() < 0.5 else delta + 1
        attach.append(tuple(sorted(rng.sample(range(core), size))))
    return GammaSpec(5, delta, l, core_edges, attach=tuple(attach))


def differential_graphs():
    """Family draws, wheels up to 30 vertices, atlas graphs on at least 6
    vertices and seeded random graphs on 7-18 vertices."""
    for family in (1, 2, 3, 4, 5):
        for delta in (3, 4, 5):
            low = minimal_block_size(family, delta)
            for l in (low, low + 1, low + 2, low + 4):
                rng = random.Random(f"differential-{family}-{delta}-{l}")
                for _ in range(20):
                    yield make_gamma(_draw_spec(rng, family, delta, l))
    yield from (wheel(k) for k in range(3, 30))
    for nxg in nx.graph_atlas_g():
        if nxg.number_of_nodes() >= 6:
            yield build_graph(nxg.number_of_nodes(), nxg.edges())
    rng = random.Random("differential-random")
    for _ in range(1500):
        n = rng.randint(7, 18)
        p = rng.uniform(0.3, 0.8)
        yield build_graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def join_with_cycle(k, c):
    """K_k joined to a c-cycle: the cycle is ids k..k+c-1."""
    edges = list(combinations(range(k), 2))
    edges += [(k + i, k + (i + 1) % c) for i in range(c)]
    edges += [(i, k + j) for i in range(k) for j in range(c)]
    return build_graph(k + c, edges)


def sixty_vertex_instance(family, delta=5):
    """A seeded make_gamma instance of the family on 60 vertices with
    minimum degree exactly delta."""
    l = 60 - gamma_vertex_count(family, delta, 0)
    rng = random.Random(f"sixty-{family}")
    while True:
        g = make_gamma(_draw_spec(rng, family, delta, l))
        if g.min_degree == delta:
            return g


class TestMakeGamma:
    def test_family1_complete_core(self):
        g = make_gamma(GammaSpec(1, 3, 4, core_edges=K3_EDGES))
        assert g.n == 7
        assert g.m == 15
        assert g.min_degree == 3
        assert not g.is_regular

    def test_family4_no_removals(self):
        g = make_gamma(GammaSpec(4, 3, 4, core_edges=K3_EDGES, bridge=(0, 1)))
        base = make_gamma(GammaSpec(1, 3, 4, core_edges=K3_EDGES))
        assert g.m == base.m + 1
        # bridge endpoints gained the block-internal edge
        assert g.degree(3) == 4 and g.degree(4) == 4

    def test_family5_counts(self):
        attach = tuple((0, 1, 2) if i % 2 else (1, 2, 3) for i in range(5))
        core = tuple((u, v) for u in range(4) for v in range(u + 1, 4))
        g = make_gamma(GammaSpec(5, 3, 5, core_edges=core, attach=attach))
        assert g.n == 9
        assert g.m == 6 + 15

    def test_block_size_too_small(self):
        with pytest.raises(GraphError, match="l >= 4"):
            make_gamma(GammaSpec(1, 3, 3, core_edges=K3_EDGES))
        with pytest.raises(GraphError, match="l >= 5"):
            make_gamma(GammaSpec(5, 3, 4, attach=((0, 1, 2),) * 4))

    def test_family_index_out_of_range(self):
        with pytest.raises(GraphError, match="1..5"):
            make_gamma(GammaSpec(7, 3, 4))

    def test_delta_too_small(self):
        with pytest.raises(GraphError, match="delta >= 3"):
            make_gamma(GammaSpec(1, 2, 4))

    def test_family4_removal_limit(self):
        with pytest.raises(GraphError, match="at most one"):
            make_gamma(
                GammaSpec(4, 3, 4, core_edges=K3_EDGES, bridge=(0, 1),
                          removed=((0, 0), (1, 0)))
            )

    def test_family5_attach_range(self):
        with pytest.raises(GraphError, match="attach to 3 or 4"):
            make_gamma(GammaSpec(5, 3, 5, attach=((0, 1),) + ((0, 1, 2),) * 4))

    def test_family2_assign_must_be_total(self):
        with pytest.raises(GraphError, match="cover all"):
            make_gamma(GammaSpec(2, 3, 4, core_edges=((0, 1),), assign=(0, 1)))

    def test_family_fields(self):
        # derived from the layout table; the JSON spec reader relies on it
        assert _FAMILY_FIELDS == {
            1: (),
            2: ("core_pair_edges", "assign"),
            3: ("left_pair_edges", "right_pair_edges", "core_left_edges", "core_right_edges",
                "left_right_edges", "assign_left", "assign_right"),
            4: ("bridge", "removed"),
            5: ("attach",),
        }

    @pytest.mark.parametrize("family", [1, 2, 3, 4, 5])
    def test_vertex_count_formula(self, family):
        l = minimal_block_size(family, 3)
        _, g = random_gamma(family, 3, seed=7)
        assert g.n == gamma_vertex_count(family, 3, l)


class TestRandomGamma:
    @pytest.mark.parametrize("family", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_min_degree_and_roundtrip(self, family, seed):
        spec, g = random_gamma(family, 3, seed=seed)
        assert g.min_degree == 3
        assert make_gamma(spec) == g
        result = recognize_exceptional(g)
        assert result.member is True
        assert result.index == family

    @pytest.mark.parametrize("family", [1, 2, 3, 4, 5])
    def test_irregular(self, family):
        for seed in (11, 12, 13):
            _, g = random_gamma(family, 3, seed=seed)
            assert not g.is_regular

    @pytest.mark.parametrize("family", [1, 2, 3, 4, 5])
    def test_common_neighbor_floor(self, family):
        for seed in (21, 22):
            _, g = random_gamma(family, 3, seed=seed)
            assert max_common_neighbors(g).value >= 2  # delta - 1

    @pytest.mark.parametrize("family", [1, 2, 3, 4, 5])
    def test_common_neighbor_floor_delta4(self, family):
        _, g = random_gamma(family, 4, seed=31)
        assert g.min_degree == 4
        assert max_common_neighbors(g).value >= 4  # delta, by the stronger bound


    @pytest.mark.parametrize("family", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("delta", [3, 4])
    def test_draw_matches_reference(self, family, delta):
        # pins the seeded specs and the RNG calls behind them, so every
        # seeded instance and corpus graph keeps its bytes
        low = minimal_block_size(family, delta)
        for l in (low, low + 1, low + 2):
            for seed in range(50):
                ours, frozen = random.Random(seed), random.Random(seed)
                assert _draw_spec(ours, family, delta, l) == reference_draw_spec(frozen, family, delta, l)
                assert ours.getstate() == frozen.getstate()


class TestRecognizer:
    def test_witness_rebuilds_input(self):
        for family in (1, 2, 3, 4, 5):
            _, g = random_gamma(family, 3, seed=41)
            result = recognize_exceptional(g)
            assert result.member
            assert rebuild_from_witness(result.witness) == g

    def test_hypercube_not_member(self):
        result = recognize_exceptional(hypercube(3))
        assert result.member is False
        # the statistical shortcuts do not decide Q3; the template search does
        assert _template_search(hypercube(3), 3) == (None, None)

    def test_petersen_not_member(self):
        assert recognize_exceptional(petersen()).member is False

    def test_even_wheel_is_family3_member(self):
        # hub as the one-vertex core, two opposite rim pairs as the side
        # blocks, the remaining rim vertices as the independent block
        result = recognize_exceptional(wheel(8))
        assert result.member is True
        assert result.index == 3
        assert rebuild_from_witness(result.witness) == wheel(8)

    def test_odd_wheel_not_member(self):
        # an odd rim has no spanning independent block of the needed size
        assert recognize_exceptional(wheel(9)).member is False
        assert _template_search(wheel(9), 3) == (None, None)

    def test_low_degree_never_member(self):
        assert recognize_exceptional(cycle(6)).member is False

    def test_cap(self):
        # irregular, delta = 3 and C(G) = 2, so no cheap filter decides it;
        # the template search does
        g = wheel(20)
        assert g.n == 21
        assert recognize_exceptional(g) == RecognitionResult(False, None, None)
        assert reference_template_search(g, 3) == (None, None)

    @pytest.mark.parametrize(
        "g", [cycle(21), complete_bipartite(11, 11), hypercube(6)], ids=["c21", "k11-11", "q6"]
    )
    def test_regular_graph_above_cap_is_decided(self, g):
        assert recognize_exceptional(g) == RecognitionResult(False, None, None)

    def test_family1_hand_instance(self):
        g = make_gamma(GammaSpec(1, 3, 4, core_edges=K3_EDGES))
        result = recognize_exceptional(g)
        assert result.member and result.index == 1

    def test_family1_mm_diagnosability_drops(self):
        g = make_gamma(GammaSpec(1, 3, 4, core_edges=K3_EDGES))
        assert diagnosability(g, DiagModel.MMSTAR) < g.min_degree

    @pytest.mark.parametrize(
        "family,delta,l",
        [(1, 3, 6), (2, 3, 6), (3, 3, 6), (4, 3, 5), (5, 3, 7), (1, 4, 7), (5, 4, 8)],
    )
    def test_roundtrip_above_minimal_block(self, family, delta, l):
        spec, g = random_gamma(family, delta, l, seed=77)
        assert g.min_degree == delta
        result = recognize_exceptional(g)
        assert result.member and result.index == family
        assert rebuild_from_witness(result.witness) == g

    def test_large_block_shapes_coincide(self):
        # with the block two above minimal, a bridged instance is also a
        # valid decomposition under a smaller index: two block vertices
        # absorb into the side pairs; the smallest index is canonical
        core = tuple((u, v) for u in range(4) for v in range(u + 1, 4))
        g = make_gamma(GammaSpec(4, 4, 7, core_edges=core, bridge=(0, 6)))
        result = recognize_exceptional(g)
        assert result.member is True
        assert result.index < 4
        assert rebuild_from_witness(result.witness) == g


class TestPrunedFamily3Scan:
    def test_same_decisions_as_the_frozen_scan(self):
        total, graphs, hits = 0, 0, [0] * 6
        for g in differential_graphs():
            total += 1
            assert recognize_exceptional(g) == reference_recognize(g), g.edges
            delta = g.min_degree
            if delta >= 3:
                graphs += 1
                found = _template_search(g, delta)
                assert found == reference_template_search(g, delta), g.edges
                hits[found[0] or 0] += 1
        assert (total, graphs) == (3927, 2323) and min(hits[1:]) >= 90, hits

    def test_recognition_ignores_the_vertex_cap(self, monkeypatch):
        cases = [(1, make_gamma(GammaSpec(1, 3, 6, core_edges=K3_EDGES)))]
        cases += [(family, random_gamma(family, 3, seed=41)[1]) for family in (2, 3, 4, 5)]
        for family, g in cases:
            monkeypatch.setenv("DIAGNOSCOPE_CAP", str(g.n - 1))
            result = recognize_exceptional(g)
            assert (result.member, result.index) == (True, family)
            assert _template_search(g, g.min_degree) == reference_template_search(g, g.min_degree)

    @pytest.mark.parametrize("g", [wheel(63), join_with_cycle(3, 61)], ids=["wheel63", "k3-join-c61"])
    def test_non_member_at_the_vertex_cap(self, g):
        assert g.n == 64
        assert recognize_exceptional(g) == RecognitionResult(False, None, None)

    @pytest.mark.parametrize("family", [1, 2, 3, 4, 5])
    def test_sixty_vertex_instance_is_decided(self, family):
        g = sixty_vertex_instance(family)
        assert g.n == 60
        result = recognize_exceptional(g)
        assert result.member is True
        # a family-4 instance with l >= delta + 3 also fits a smaller index
        assert result.index == (2 if family == 4 else family)
        assert rebuild_from_witness(result.witness) == g

    @pytest.mark.parametrize("family", [1, 2, 3, 4, 5])
    def test_random_gamma_above_twenty_vertices(self, family):
        spec, g = random_gamma(family, 10, seed=1)
        assert g.n > 20
        result = recognize_exceptional(g)
        assert (result.member, result.index) == (True, family)
        assert rebuild_from_witness(result.witness) == g == make_gamma(spec)


class TestGenerators:
    def test_hypercube3(self):
        g = hypercube(3)
        assert (g.n, g.m) == (8, 12)
        assert g.is_regular and g.min_degree == 3
        assert vertex_connectivity(g).kappa == 3

    def test_complete_bipartite(self):
        g = complete_bipartite(3, 3)
        assert (g.n, g.m) == (6, 9)
        assert vertex_connectivity(g).kappa == 3

    def test_petersen(self):
        g = petersen()
        assert (g.n, g.m) == (10, 15)
        assert g.is_regular and g.min_degree == 3

    def test_cycle_path(self):
        assert cycle(5).m == 5
        assert path(4).m == 3
        with pytest.raises(GraphError):
            cycle(2)

    def test_circulant(self):
        g = circulant(8, (1, 2))
        assert g.is_regular and g.min_degree == 4
        with pytest.raises(GraphError):
            circulant(6, (0,))

    def test_prism_is_cycle_times_edge(self):
        g = prism(5)
        assert (g.n, g.m) == (10, 15)
        assert g.is_regular and g.min_degree == 3
        assert vertex_connectivity(g).kappa == 3

    def test_wheel_is_irregular_maximally_connected(self):
        g = wheel(8)
        assert not g.is_regular
        report = vertex_connectivity(g)
        assert report.kappa == report.delta == 3

    def test_random_t_connected(self):
        for seed in (1, 2, 3):
            g = random_t_connected(9, 3, seed)
            assert vertex_connectivity(g).kappa >= 3

    def test_random_t_connected_deterministic(self):
        assert random_t_connected(9, 3, 5) == random_t_connected(9, 3, 5)

    def test_random_t_connected_unsatisfiable(self):
        with pytest.raises(GraphError):
            random_t_connected(4, 4, 1)

    def test_generate_standard_dispatch(self):
        from diagnoscope.families import generate_standard

        assert generate_standard("hypercube", 3) == hypercube(3)
        assert generate_standard("circulant", 8, 1, 2) == circulant(8, (1, 2))
        assert generate_standard("petersen") == petersen()
        assert generate_standard("random-t-connected", 9, 3, seed=4) == random_t_connected(9, 3, 4)
        with pytest.raises(GraphError, match="unknown graph kind"):
            generate_standard("moebius", 5)
        with pytest.raises(GraphError, match="exactly"):
            generate_standard("cycle", 4, 5)


class TestOverCap:
    """Every sized constructor checks the vertex cap as soon as it knows n,
    so an over-cap size fails at once instead of building its edges."""

    @pytest.fixture(autouse=True)
    def default_cap(self, monkeypatch):
        monkeypatch.delenv("DIAGNOSCOPE_CAP", raising=False)

    @pytest.mark.parametrize("build, n", [
        (lambda: hypercube(40), "2^40"),
        (lambda: hypercube(10**12), "2^1000000000000"),
        (lambda: complete(10**8), "100000000"),
        (lambda: complete_bipartite(10**6, 10**6), "2000000"),
        (lambda: cycle(10**12), "1000000000000"),
        (lambda: path(10**12), "1000000000000"),
        (lambda: circulant(10**12, (1, 2)), "1000000000000"),
        (lambda: prism(10**12), "2000000000000"),
        (lambda: wheel(10**9), "1000000001"),
        (lambda: random_t_connected(10**5, 3, 1), "100000"),
        (lambda: make_gamma(GammaSpec(1, 3, 10**12)), "1000000000003"),
        (lambda: random_gamma(2, 3, 10**12, seed=1), "1000000000004"),
    ], ids=["hypercube-40", "hypercube-1e12", "complete", "bipartite", "cycle", "path",
            "circulant", "prism", "wheel", "random-t-connected", "make-gamma", "random-gamma"])
    def test_fails_at_once(self, build, n):
        start = time.perf_counter()
        message = re.escape(f"graph on {n} vertices exceeds the cap of 64")
        with pytest.raises(CapExceededError, match=f"^{message}$"):
            build()
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("cap", [0, 1, 2, 3, 7, 8, 9, 63, 64, 65])
    def test_hypercube_cap_boundary(self, monkeypatch, cap):
        monkeypatch.setenv("DIAGNOSCOPE_CAP", str(cap))
        for dim in range(8):
            if 1 << dim <= cap:
                assert hypercube(dim).n == 1 << dim
            else:
                with pytest.raises(CapExceededError):
                    hypercube(dim)

    def test_at_the_cap_builds(self):
        assert [g.n for g in (hypercube(6), cycle(64), wheel(63), prism(32), complete_bipartite(32, 32))] == [64] * 5
        assert make_gamma(GammaSpec(1, 3, 61)).n == 64

    @pytest.mark.parametrize("build, message", [
        (lambda: make_gamma(GammaSpec(9, 3, 10**12)), "family index must be 1..5"),
        (lambda: make_gamma(GammaSpec(1, 2, 10**12)), "require delta >= 3"),
        (lambda: make_gamma(GammaSpec(1, 3, 10**12, assign=(0,))), "does not use assign"),
        (lambda: random_gamma(9, 3, 10**12, seed=1), "family index must be 1..5"),
        (lambda: circulant(10**12, (10**12,)), "multiple"),
        (lambda: random_t_connected(10**5, 10**5, 1), "is 100000-connected"),
    ], ids=["family", "delta", "unused-field", "random-gamma-family", "circulant-step", "random-t-connected"])
    def test_shape_errors_come_first(self, build, message):
        with pytest.raises(GraphError, match=message) as info:
            build()
        assert not isinstance(info.value, CapExceededError)
