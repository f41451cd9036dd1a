import pytest

from diagnoscope.connectivity import max_common_neighbors, vertex_connectivity
from diagnoscope.diagnosis import DiagModel, diagnosability
from diagnoscope.families import (
    GammaSpec,
    _template_search,
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
    rebuild_from_witness,
    recognize_exceptional,
    wheel,
)
from diagnoscope.graphs import GraphError

K3_EDGES = ((0, 1), (0, 2), (1, 2))


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
        assert result.status == "decided"

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
        assert result.status == "decided"
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
        # irregular, delta = 3 and C(G) = 2, so no cheap filter decides it
        g = wheel(20)
        assert g.n == 21
        result = recognize_exceptional(g)
        assert result.status == "cap_exceeded"
        assert result.member is None
        assert recognize_exceptional(g, cap=25).status == "decided"

    @pytest.mark.parametrize(
        "g", [cycle(21), complete_bipartite(11, 11), hypercube(6)], ids=["c21", "k11-11", "q6"]
    )
    def test_regular_graph_above_cap_is_decided(self, g):
        result = recognize_exceptional(g)
        assert (result.member, result.status) == (False, "decided")

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
