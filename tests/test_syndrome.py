import random
import re
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_graphs, graphs, seeded_random_graphs
from diagnoscope.diagnosis import DiagModel, is_t_diagnosable
from diagnoscope.families import complete, cycle, hypercube, petersen
from diagnoscope.graphs import GraphError, bits_of, build_graph
from diagnoscope.syndrome import (
    ALL_ONE,
    ALL_ZERO,
    AdversaryPolicy,
    SyndromeError,
    _options,
    _validate_shape,
    decode,
    entries,
    generate_syndrome,
    seeded_random,
)
from oracles import (
    confusing_syndrome,
    consistent_with,
    every_syndrome,
    fault_free_report,
    reference_generate,
    reference_options,
    unique_decoding_everywhere,
)

PMC = DiagModel.PMC
MM = DiagModel.MMSTAR


def reference_decode(g, syndrome, t, model):
    """The subset-enumeration decoder, frozen as the reference for
    ``decode`` (shape validation is left to ``decode``)."""
    outcomes = list(syndrome.items())
    found = []
    for size in range(0, min(t, g.n) + 1):
        for combo in combinations(range(g.n), size):
            faults = set(combo)
            ok = True
            for entry, bit in outcomes:
                if entry[0] not in faults and bit != fault_free_report(entry, model, faults):
                    ok = False
                    break
            if ok:
                found.append(frozenset(combo))
    return tuple(found)


def random_syndrome(g, model, rng):
    return {e: rng.getrandbits(1) for e in entries(g, model)}


def empty_graph(n):
    return build_graph(n, [])


class TestEntries:
    """The entry list read by definition: PMC, every ordered adjacent pair
    (tester, tested); MM*, every (comparator, u, v) with u < v both
    adjacent to the comparator."""

    @pytest.mark.parametrize("n", range(6))
    def test_every_graph_up_to_five_vertices(self, n):
        for g in all_graphs(n):
            pairs = [(u, v) for u in range(n) for v in range(n) if g.has_edge(u, v)]
            triples = [
                (w, u, v)
                for w in range(n)
                for u in range(n)
                for v in range(u + 1, n)
                if g.has_edge(w, u) and g.has_edge(w, v)
            ]
            assert entries(g, PMC) == sorted(pairs)
            assert entries(g, MM) == sorted(triples)


class TestGeneration:
    def test_no_faults_all_zero(self):
        for model, policy in ((PMC, ALL_ONE), (MM, ALL_ONE)):
            syn = generate_syndrome(hypercube(3), [], model, policy)
            assert set(syn.values()) == {0}

    def test_path_center_fault(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        syn = generate_syndrome(g, [1], PMC, ALL_ZERO)
        assert syn == {(0, 1): 1, (2, 1): 1, (1, 0): 0, (1, 2): 0}

    def test_star_center_fault_mm_all_one(self):
        g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        syn = generate_syndrome(g, [0], MM, ALL_ONE)
        assert syn == {(0, 1, 2): 1, (0, 1, 3): 1, (0, 2, 3): 1}

    def test_seeded_is_deterministic(self):
        g = cycle(5)
        a = generate_syndrome(g, [0, 2], MM, seeded_random(9))
        b = generate_syndrome(g, [0, 2], MM, seeded_random(9))
        assert a == b

    def test_exhaustive_stream_counts(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        stream = list(every_syndrome(g, [1], PMC))
        # the faulty center controls its two outgoing tests
        assert len(stream) == 4
        assert len({tuple(sorted(s.items())) for s in stream}) == 4

    @pytest.mark.parametrize("model", [PMC, MM])
    def test_built_in_entry_order(self, model):
        # the CLI prints the syndrome as built, so its order is the entry order
        rng = random.Random(f"order-{model.value}")
        for g in (hypercube(3), petersen(), cycle(5), empty_graph(3), hypercube(6)):
            faults = rng.sample(range(g.n), min(g.n, 3))
            for policy in (ALL_ZERO, ALL_ONE, seeded_random(5)):
                assert list(generate_syndrome(g, faults, model, policy)) == entries(g, model)

    def test_policy_validation(self):
        with pytest.raises(SyndromeError):
            AdversaryPolicy("coin_flip")
        with pytest.raises(SyndromeError):
            AdversaryPolicy("exhaustive")  # every completion is tests/oracles.py's every_syndrome
        with pytest.raises(SyndromeError):
            AdversaryPolicy("seeded_random")


class TestDecode:
    def test_all_zero_decodes_to_empty(self):
        g = hypercube(3)
        syn = generate_syndrome(g, [], PMC, ALL_ZERO)
        assert decode(g, syn, 3, PMC) == (frozenset(),)

    def test_single_fault_unique_at_diagnosable_budget(self):
        g = hypercube(3)
        syn = generate_syndrome(g, [5], PMC, seeded_random(3))
        assert decode(g, syn, 3, PMC) == (frozenset({5}),)

    def test_no_tests_leave_everything_consistent(self):
        g = empty_graph(2)
        syn = generate_syndrome(g, [], PMC, ALL_ZERO)
        assert decode(g, syn, 1, PMC) == (frozenset(), frozenset({0}), frozenset({1}))

    def test_shape_validation(self):
        g = cycle(4)
        syn = generate_syndrome(g, [], PMC, ALL_ZERO)
        with pytest.raises(SyndromeError):
            decode(g, syn, 1, MM)
        broken = {(0, 1): 1}
        with pytest.raises(SyndromeError, match="entries"):
            decode(g, broken, 1, PMC)
        bad_bit = {k: 2 for k in syn}
        with pytest.raises(SyndromeError, match="0 or 1"):
            decode(g, bad_bit, 1, PMC)

    @given(graphs(1, 5), st.data(), st.sampled_from([PMC, MM]))
    @settings(max_examples=60, deadline=None)
    def test_injected_faults_always_among_candidates(self, g, data, model):
        faults = data.draw(st.sets(st.integers(0, g.n - 1), max_size=min(3, g.n)))
        seed = data.draw(st.integers(0, 100))
        syn = generate_syndrome(g, faults, model, seeded_random(seed))
        candidates = decode(g, syn, len(faults), model)
        assert frozenset(faults) in candidates
        assert consistent_with(g, syn, faults, model)


class TestMMOptions:
    """``_options`` under MM* against the definition: a fault-free w allows
    X, a subset of N(w) with |X| <= t, iff each entry (w; u, v) reads 1
    exactly when u or v is in X."""

    @staticmethod
    def allowed(g, syndrome, w):
        nbrs = list(bits_of(g.adj_masks[w]))
        own = [(u, v, bit) for (c, u, v), bit in syndrome.items() if c == w]
        return [
            sum(1 << x for x in xs)
            for size in range(len(nbrs) + 1)
            for xs in combinations(nbrs, size)
            if all(bit == (u in xs or v in xs) for u, v, bit in own)
        ]

    def check(self, g, rng, seen):
        syndromes = [random_syndrome(g, MM, rng) for _ in range(2)]
        faults = rng.sample(range(g.n), rng.randint(0, g.n))
        for policy in (ALL_ZERO, ALL_ONE, seeded_random(rng.randrange(10**6))):
            syndromes.append(generate_syndrome(g, faults, MM, policy))
        for syn in syndromes:
            full = [self.allowed(g, syn, w) for w in range(g.n)]
            for t in range(g.n + 1):
                opts = _options(g, syn, t, True)
                for w in range(g.n):
                    want = [x for x in full[w] if x.bit_count() <= t]
                    assert sorted(opts[w]) == sorted(want), (g.edges, sorted(syn.items()), t, w)
            for w in range(g.n):
                seen.add((g.degree(w), bool(full[w])))

    def test_every_graph_up_to_five_vertices(self):
        rng, seen = random.Random("mm-options-small"), set()
        for n in range(1, 6):
            for g in all_graphs(n):
                self.check(g, rng, seen)
        # degrees 0, 1 and 2 each met, and random bits that no X fits
        assert {(0, True), (1, True), (2, True), (3, False), (4, False)} <= seen

    def test_seeded_random_graphs(self):
        rng, seen = random.Random("mm-options-random"), set()
        for _ in range(100):
            n = rng.randint(6, 9)
            p = rng.random()
            self.check(build_graph(n, [e for e in combinations(range(n), 2) if rng.random() < p]), rng, seen)
        assert any(not fits for _, fits in seen)

    def test_no_zero_order(self):
        # with no 0, N(w) first, then N(w) - y for y ascending
        g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        syn = generate_syndrome(g, [0], MM, ALL_ONE)
        assert _options(g, syn, 3, True)[0] == [0b1110, 0b1100, 0b1010, 0b0110]
        assert _options(g, syn, 2, True)[0] == [0b1100, 0b1010, 0b0110]


class TestShapeValidation:
    """Validation raises exactly where comparing the key set with the full
    entry list does, keys compared by equality, with the same messages."""

    MISMATCH = re.escape("syndrome entries do not match the graph's test structure")

    @pytest.mark.parametrize("model", [PMC, MM])
    def test_missing_entry(self, model):
        g = cycle(5)
        syn = generate_syndrome(g, [1], model, ALL_ONE)
        del syn[min(syn)]
        with pytest.raises(SyndromeError, match=self.MISMATCH):
            decode(g, syn, 1, model)
        with pytest.raises(SyndromeError, match=self.MISMATCH):
            consistent_with(g, syn, [1], model)

    @pytest.mark.parametrize("model, extra", [(PMC, (0, 2)), (MM, (0, 1, 2))])
    def test_extra_entry(self, model, extra):
        g = cycle(5)
        syn = generate_syndrome(g, [], model, ALL_ZERO)
        syn[extra] = 0
        with pytest.raises(SyndromeError, match=self.MISMATCH):
            decode(g, syn, 1, model)

    @pytest.mark.parametrize(
        "model, stray",
        [(PMC, (0, 2)), (PMC, (0, 0)), (PMC, (0, 5)), (PMC, (-1, 4)), (PMC, (0, 1, 4)),
         (MM, (0, 1, 2)), (MM, (0, 4, 1)), (MM, (0, 1, 1)), (MM, (5, 4, 1)), (MM, (0, -1, 4)), (MM, (0, 1))],
    )
    def test_non_adjacent_entry(self, model, stray):
        # same entry count, one key replaced by a key that is not an entry
        g = cycle(5)
        syn = generate_syndrome(g, [], model, ALL_ZERO)
        del syn[max(syn)]
        syn[stray] = 0
        with pytest.raises(SyndromeError, match=self.MISMATCH):
            decode(g, syn, 1, model)

    @pytest.mark.parametrize("model, other", [(PMC, MM), (MM, PMC)])
    def test_wrong_model(self, model, other):
        # 3-regular: both models have 3n entries, so only the key width rejects
        for g in (complete(4), petersen()):
            syn = generate_syndrome(g, [], other, ALL_ZERO)
            assert len(syn) == len(entries(g, model))
            with pytest.raises(SyndromeError, match=self.MISMATCH):
                decode(g, syn, 1, model)
            with pytest.raises(SyndromeError, match=self.MISMATCH):
                consistent_with(g, syn, [], model)

    @pytest.mark.parametrize("model", [PMC, MM])
    @pytest.mark.parametrize("bad", [[1], 2, None])
    def test_bad_bit_names_its_entry(self, model, bad):
        g = cycle(5)
        syn = generate_syndrome(g, [1], model, ALL_ONE)
        entry = sorted(syn)[2]
        syn[entry] = bad
        message = f"syndrome outcome for {entry} must be 0 or 1, got {bad}"
        with pytest.raises(SyndromeError, match=re.escape(message)):
            _validate_shape(g, syn, model)

    @pytest.mark.parametrize("model", [PMC, MM])
    def test_float_bits_rejected(self, model):
        # 1.0 == 1, so only the type tells a float bit from an int one
        g = cycle(4)
        syn = generate_syndrome(g, [1], model, ALL_ZERO)
        first = next(iter(syn))
        floats = {e: float(bit) for e, bit in syn.items()}
        message = f"syndrome outcome for {first} must be 0 or 1, got {floats[first]}"
        with pytest.raises(SyndromeError, match=re.escape(message)):
            decode(g, floats, 1, model)

    @pytest.mark.parametrize("model", [PMC, MM])
    def test_one_float_zero_among_int_zeros(self, model):
        # {0, 0.0} is {0}: the value set alone cannot see the float
        g = cycle(4)
        syn = generate_syndrome(g, [1], model, ALL_ZERO)
        entry = [e for e, bit in syn.items() if bit == 0][-1]
        syn[entry] = 0.0
        message = f"syndrome outcome for {entry} must be 0 or 1, got 0.0"
        with pytest.raises(SyndromeError, match=re.escape(message)):
            decode(g, syn, 1, model)

    @pytest.mark.parametrize("model", [PMC, MM])
    def test_bool_bits_decode(self, model):
        g = cycle(4)
        syn = generate_syndrome(g, [1], model, ALL_ZERO)
        bools = {e: bit == 1 for e, bit in syn.items()}
        assert set(bools.values()) == {True, False}  # both bits occur, as bools
        assert decode(g, bools, 1, model) == decode(g, syn, 1, model)

    @pytest.mark.parametrize("model", [PMC, MM])
    @pytest.mark.parametrize("syndrome", [None, [], [((0, 1), 0)], "0 1 0"])
    def test_not_a_dict(self, model, syndrome):
        with pytest.raises(SyndromeError, match="must be a dict"):
            decode(cycle(5), syndrome, 1, model)

    @pytest.mark.parametrize("model", ["pmc", "mm", None])
    def test_model_must_be_a_diag_model(self, model):
        # the dict does not name its model, so a stray model must not pick one
        g = cycle(5)
        with pytest.raises(GraphError, match="must be a DiagModel"):
            generate_syndrome(g, [], model, ALL_ZERO)
        with pytest.raises(GraphError, match="must be a DiagModel"):
            decode(g, generate_syndrome(g, [], PMC, ALL_ZERO), 1, model)

    @pytest.mark.parametrize("model", [PMC, MM])
    def test_agrees_with_entry_set_comparison(self, model):
        width = 2 if model is PMC else 3
        for n in range(1, 5):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            keys = list(product(range(-1, n + 1), repeat=width))
            for bits in range(1 << len(pairs)):
                g = build_graph(n, [e for i, e in enumerate(pairs) if (bits >> i) & 1])
                full = entries(g, model)
                variants = [full, full[1:], full[:-1]]
                variants += [full + [k] for k in keys]
                variants += [full[1:] + [k] for k in keys]
                for variant in variants:
                    syn = dict.fromkeys(variant, 0)
                    if set(variant) == set(full):
                        decode(g, syn, 1, model)
                    else:
                        with pytest.raises(SyndromeError, match=self.MISMATCH):
                            decode(g, syn, 1, model)

    @pytest.mark.parametrize("model", [PMC, MM])
    def test_entries_checked_before_bits(self, model):
        g = cycle(5)
        syn = generate_syndrome(g, [1], model, ALL_ONE)
        syn[min(syn)] = 2
        del syn[max(syn)]
        with pytest.raises(SyndromeError, match=self.MISMATCH):
            decode(g, syn, 1, model)


class TestKeyTypes:
    """A key matches the entry it equals: ids given as bools or floats
    decode exactly like the ints they equal, and a key equal to no entry is
    a shape mismatch, never another exception."""

    @pytest.mark.parametrize("model", [PMC, MM])
    def test_equal_ids_decode_like_ints(self, model):
        rng = random.Random(f"key-types-{model.value}")
        casts = [float, lambda x: bool(x) if x < 2 else x, lambda x: float(x) if rng.random() < 0.5 else x]
        for g in (cycle(5), complete(4), hypercube(3), petersen()):
            for size in range(4):
                syn = generate_syndrome(g, rng.sample(range(g.n), size), model, seeded_random(rng.randrange(10**6)))
                for t in range(4):
                    want = decode(g, syn, t, model)
                    for cast in casts:
                        keyed = {tuple(map(cast, e)): bit for e, bit in syn.items()}
                        assert {type(x) for key in keyed for x in key} != {int}
                        assert decode(g, keyed, t, model) == want
                        for faults in want:
                            assert consistent_with(g, keyed, faults, model)

    @pytest.mark.parametrize("model", [PMC, MM])
    @pytest.mark.parametrize("stray", [0.5, "0", None, (0,), float("nan"), 1j, True + 0.5])
    def test_unequal_ids_are_a_mismatch(self, model, stray):
        g = cycle(5)
        for where in range(3 if model is MM else 2):
            syn = generate_syndrome(g, [1], model, ALL_ONE)
            entry = max(syn)
            del syn[entry]
            syn[entry[:where] + (stray,) + entry[where + 1:]] = 0
            with pytest.raises(SyndromeError, match=TestShapeValidation.MISMATCH):
                decode(g, syn, 1, model)

    @pytest.mark.parametrize("model", [PMC, MM])
    @pytest.mark.parametrize("stray", [4, "04", None, frozenset({0, 4}), 4.0, (), ((0, 1), 1)])
    def test_non_tuple_keys_are_a_mismatch(self, model, stray):
        g = cycle(5)
        syn = generate_syndrome(g, [1], model, ALL_ONE)
        del syn[max(syn)]
        syn[stray] = 0
        with pytest.raises(SyndromeError, match=TestShapeValidation.MISMATCH):
            decode(g, syn, 1, model)


class TestMatchesFrozenReferences:
    """``generate_syndrome`` and ``_options`` against their one-pass forms
    in tests/oracles.py: syndrome items in order, option lists in order."""

    @staticmethod
    def check_generate(g, rng):
        for model in (PMC, MM):
            for size in range(g.n + 1):
                faults = rng.sample(range(g.n), size)
                for policy in (ALL_ZERO, ALL_ONE, seeded_random(rng.randrange(10**6))):
                    got = generate_syndrome(g, faults, model, policy)
                    want = reference_generate(g, faults, model, policy)
                    assert list(got.items()) == list(want.items()), (g.edges, model, faults, policy)

    @staticmethod
    def check_options(g, rng):
        for model in (PMC, MM):
            p = rng.random()  # sparse ones leave many MM* comparators all zero
            syn = {e: int(rng.random() < p) for e in entries(g, model)}
            generated = generate_syndrome(g, rng.sample(range(g.n), rng.randint(0, g.n)), model, ALL_ONE)
            for base in (syn, generated):
                for bits in (base, {e: bit == 1 for e, bit in base.items()}):
                    for t in range(g.n + 1):
                        got = _options(g, bits, t, model is MM)
                        assert got == reference_options(g, bits, t, model is MM), (g.edges, model, t)

    def test_every_graph_up_to_five_vertices(self):
        rng = random.Random("frozen-small")
        for n in range(6):
            for g in all_graphs(n):
                self.check_generate(g, rng)
                self.check_options(g, rng)

    def test_seeded_random_graphs(self):
        rng = random.Random("frozen-random")
        for g in seeded_random_graphs(200, 6, 10, "frozen-random-graphs"):
            self.check_generate(g, rng)
            self.check_options(g, rng)

    def test_q6(self):
        rng = random.Random("frozen-q6")
        self.check_generate(hypercube(6), rng)
        for _ in range(4):
            self.check_options(hypercube(6), rng)


class TestDecodeMatchesReference:
    @staticmethod
    def check(g, model, rng, generated):
        syndromes = [random_syndrome(g, model, rng)]
        for _ in range(generated):
            faults = rng.sample(range(g.n), rng.randint(0, min(g.n, 4)))
            syndromes.append(
                generate_syndrome(g, faults, model, seeded_random(rng.randrange(10**6)))
            )
        for syn in syndromes:
            for t in range(min(g.n, 4) + 1):
                assert decode(g, syn, t, model) == reference_decode(g, syn, t, model), (
                    g.n, g.edges, model, t, sorted(syn.items()),
                )

    @pytest.mark.parametrize("model", [PMC, MM])
    def test_every_graph_up_to_five_vertices(self, model):
        rng = random.Random(f"decode-small-{model.value}")
        for n in range(1, 6):
            for g in all_graphs(n):
                self.check(g, model, rng, generated=2)

    @pytest.mark.parametrize("model", [PMC, MM])
    def test_seeded_random_graphs(self, model):
        rng = random.Random(f"decode-random-{model.value}")
        for _ in range(300):
            n = rng.randint(6, 10)
            p = rng.random()
            g = build_graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
            self.check(g, model, rng, generated=1)


class TestDecodeFrontierQ6:
    """Q6 is 6-diagnosable under both models and not 7-diagnosable."""

    @pytest.mark.parametrize("model", [PMC, MM])
    def test_unique_at_diagnosability(self, model):
        g = hypercube(6)
        rng = random.Random(f"q6-{model.value}")
        for i in range(20):
            faults = frozenset(rng.sample(range(g.n), 6))
            for policy in (seeded_random(i), ALL_ZERO, ALL_ONE):
                syn = generate_syndrome(g, faults, model, policy)
                assert decode(g, syn, 6, model) == (faults,), (sorted(faults), policy)

    @pytest.mark.parametrize("model", [PMC, MM])
    def test_confusing_pair_beyond_diagnosability(self, model):
        g = hypercube(6)
        decision = is_t_diagnosable(g, 7, model)
        assert not decision.diagnosable
        w = decision.witness
        syn = confusing_syndrome(g, w.f1, w.f2, model)
        candidates = decode(g, syn, 7, model)
        assert set(candidates) == {w.f1, w.f2}
        assert len(candidates) == 2


class TestDiagnosabilityLink:
    def test_exhaustive_decode_uniqueness_matches_predicate_small(self):
        """Full operational check on tiny graphs: stream every adversary
        completion of every fault set and decode each syndrome."""
        graphs_small = [
            build_graph(3, [(0, 1), (1, 2)]),
            cycle(4),
            complete(4),
            build_graph(4, [(0, 1), (1, 2), (2, 3)]),
        ]
        for g in graphs_small:
            for model in (PMC, MM):
                for t in range(0, 3):
                    unique = True
                    for size in range(0, t + 1):
                        for faults in combinations(range(g.n), size):
                            for syn in every_syndrome(g, faults, model):
                                if len(decode(g, syn, t, model)) != 1:
                                    unique = False
                                    break
                            if not unique:
                                break
                        if not unique:
                            break
                    assert unique == is_t_diagnosable(g, t, model).diagnosable, (
                        g.edges, model, t,
                    )

    @given(graphs(1, 6), st.integers(0, 3), st.sampled_from([PMC, MM]))
    @settings(max_examples=60, deadline=None)
    def test_pairwise_compatibility_matches_predicate(self, g, t, model):
        assert unique_decoding_everywhere(g, t, model) == is_t_diagnosable(
            g, t, model
        ).diagnosable

    @given(graphs(2, 6), st.sampled_from([PMC, MM]))
    @settings(max_examples=60, deadline=None)
    def test_witness_pair_yields_confusing_syndrome(self, g, model):
        for t in range(1, 4):
            decision = is_t_diagnosable(g, t, model)
            if decision.diagnosable:
                continue
            w = decision.witness
            syn = confusing_syndrome(g, w.f1, w.f2, model)
            assert consistent_with(g, syn, w.f1, model)
            assert consistent_with(g, syn, w.f2, model)
            candidates = decode(g, syn, t, model)
            assert w.f1 in candidates and w.f2 in candidates
            break
