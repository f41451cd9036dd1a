import json
import time

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs
from diagnoscope.families import _FAMILY_FIELDS, GammaSpec, complete, make_gamma, random_gamma
from diagnoscope.formats import (
    FormatError,
    emit_edge_list,
    emit_graph6,
    gamma_spec_from_json,
    parse_edge_list,
    parse_gamma_spec,
    parse_graph6,
)
from diagnoscope.graphs import CapExceededError, build_graph
from oracles import gamma_spec_to_json


class TestEdgeList:
    def test_path(self):
        g = parse_edge_list("3 2\n0 1\n1 2\n")
        assert g.edges == ((0, 1), (1, 2))

    def test_k4(self):
        text = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3"
        assert parse_edge_list(text) == complete(4)

    def test_comments_and_blanks(self):
        g = parse_edge_list("# a path\n\n3 2\n0 1\n# middle\n1 2\n")
        assert g.m == 2

    def test_self_loop_line_number(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_edge_list("2 1\n0 0\n")

    def test_out_of_range_line_number(self):
        with pytest.raises(FormatError, match="line 3"):
            parse_edge_list("2 2\n0 1\n0 5\n")

    def test_count_mismatch(self):
        with pytest.raises(FormatError, match="declared 3"):
            parse_edge_list("3 3\n0 1\n1 2\n")

    def test_duplicate_warns_and_dedups(self):
        with pytest.warns(UserWarning, match="duplicate"):
            g = parse_edge_list("3 2\n0 1\n1 0\n")
        assert g.m == 1

    def test_empty_input(self):
        with pytest.raises(FormatError, match="header"):
            parse_edge_list("# nothing\n")

    def test_cap(self):
        with pytest.raises(CapExceededError):
            parse_edge_list("100 0\n")

    @given(graphs(0, 9))
    @settings(max_examples=50)
    def test_roundtrip(self, g):
        assert parse_edge_list(emit_edge_list(g)) == g

    @given(graphs(0, 9))
    @settings(max_examples=50)
    def test_edge_list_to_graph6_chain_preserves_labeling(self, g):
        chained = emit_edge_list(parse_graph6(emit_graph6(parse_edge_list(emit_edge_list(g)))))
        assert parse_edge_list(chained) == g


class TestGraph6:
    def test_k4_is_c_tilde(self):
        assert parse_graph6("C~") == complete(4)
        assert emit_graph6(complete(4)) == "C~"

    def test_k2(self):
        assert parse_graph6("A_") == complete(2)
        assert emit_graph6(complete(2)) == "A_"

    def test_empty_graphs(self):
        assert parse_graph6("?").n == 0
        assert emit_graph6(build_graph(0, [])) == "?"
        assert parse_graph6("@").n == 1

    def test_header_allowed(self):
        assert parse_graph6(">>graph6<<C~") == complete(4)

    def test_large_n_header(self):
        g = build_graph(63, [(0, 62)])
        line = emit_graph6(g)
        assert line.startswith("~")
        assert parse_graph6(line) == g

    def test_bad_byte(self):
        with pytest.raises(FormatError, match="byte"):
            parse_graph6("C\x1f\x1f")

    def test_truncated(self):
        with pytest.raises(FormatError, match="truncated"):
            parse_graph6("D")  # n=5 needs bits

    def test_trailing(self):
        with pytest.raises(FormatError, match="trailing"):
            parse_graph6("C~~")

    def test_nonzero_padding(self):
        # n=2: one significant bit; set a padding bit
        with pytest.raises(FormatError, match="padding"):
            parse_graph6("A" + chr(63 + 1))

    def test_cap_checked_before_decoding(self):
        # 4,000 vertices: 1.3 MB of adjacency bits that took seconds to decode
        n = 4000
        line = "~" + "".join(chr(63 + (n >> shift & 63)) for shift in (12, 6, 0))
        line += "?" * ((n * (n - 1) // 2 + 5) // 6)
        start = time.perf_counter()
        with pytest.raises(CapExceededError, match="graph on 4000 vertices"):
            parse_graph6(line)
        assert time.perf_counter() - start < 1.0
        # a malformed length is still a format error, over the cap or not
        with pytest.raises(FormatError, match="truncated"):
            parse_graph6(line[:-1])

    @given(graphs(0, 9))
    @settings(max_examples=60)
    def test_roundtrip(self, g):
        assert parse_graph6(emit_graph6(g)) == g

    @given(graphs(0, 9))
    @settings(max_examples=60)
    def test_matches_networkx_reference(self, g):
        mine = emit_graph6(g)
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
        assert mine == theirs
        back = nx.from_graph6_bytes(mine.encode())
        assert {frozenset(e) for e in back.edges()} == {frozenset(e) for e in g.edges}


class TestGammaSpecJson:
    def test_roundtrip_all_families(self):
        for family in (1, 2, 3, 4, 5):
            spec, _ = random_gamma(family, 3, seed=55)
            payload = gamma_spec_to_json(spec)
            assert gamma_spec_from_json(json.loads(json.dumps(payload))) == spec

    def test_parse_text(self):
        spec = GammaSpec(1, 3, 4, core_edges=((0, 1),))
        text = json.dumps(gamma_spec_to_json(spec))
        assert parse_gamma_spec(text) == spec
        assert make_gamma(parse_gamma_spec(text)) == make_gamma(spec)

    @pytest.mark.parametrize("family, key", [
        (family, name) for family in _FAMILY_FIELDS for name in GammaSpec._fields[4:]
        if name not in _FAMILY_FIELDS[family]
    ])
    def test_key_the_family_does_not_use(self, family, key):
        # rejected even at its default value, which the spec could not tell from omitted
        default = json.loads(json.dumps(getattr(GammaSpec(family, 3, 4), key)))
        with pytest.raises(FormatError, match=f"^bad family spec: family {family} does not use {key}$"):
            gamma_spec_from_json({"family": family, "delta": 3, "l": 4, key: default})

    @pytest.mark.parametrize("family", sorted(_FAMILY_FIELDS))
    def test_own_keys_accepted_at_defaults(self, family):
        spec = GammaSpec(family, 3, 4)
        payload = {key: json.loads(json.dumps(getattr(spec, key))) for key in _FAMILY_FIELDS[family]}
        assert gamma_spec_from_json({"family": family, "delta": 3, "l": 4, **payload}) == spec

    def test_bad_json(self):
        with pytest.raises(FormatError, match="JSON"):
            parse_gamma_spec("not json")
        with pytest.raises(FormatError):
            parse_gamma_spec('{"family": 1}')
        with pytest.raises(FormatError, match="object"):
            parse_gamma_spec("[1, 2]")
