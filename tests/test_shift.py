import itertools
import random
import re
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sftlab.errors import GapTooSmall, NotPrimitive, WordsTooShort
from sftlab import cocycle, ergopt, experiments, gluing
from sftlab.experiments import run_experiment
from sftlab.measures import (MarkovMeasure, MeasurePath,
                             typical_separated_family)
from sftlab.shift import (GluedRows, Periodic, SftSpace, SymbolStream, Word,
                          bridge, check_rows, connector, delta_separated, dist,
                          glue, glue_rows, glue_spans, hamming, hamming_matrix,
                          separated_count)

from word_oracles import (PerSymbolStream, count_words_loop, iglue,
                          primitive_spaces, set_separated_count, tuple_dist,
                          tuple_hamming)


FULL2 = SftSpace.full_shift(2)
GOLDEN = SftSpace.golden_mean()


def brute_force_connectors(space, a, b, gap):
    """All admissible bridges of length gap-1 between a and b."""
    out = []
    if gap == 1:
        return [Word(())] if space.transition[a, b] else []
    for w in space.words(gap - 1):
        if space.transition[a, w[0]] and space.transition[w[len(w) - 1], b] \
                and space.is_admissible(w.symbols):
            out.append(w)
    return out


class TestWord:
    def test_numpy_symbols_normalised(self):
        w = Word(np.array([1, 0, 1], dtype=np.int32))
        assert w.symbols == (1, 0, 1)
        assert all(type(s) is int for s in w.symbols)

    def test_bad_symbols_raise(self):
        with pytest.raises(ValueError):
            Word(["x"])
        with pytest.raises(TypeError):
            Word([None])


class TestSftSpace:
    def test_full_shift_primitivity(self):
        assert FULL2.primitivity_index == 1
        assert FULL2.transition.all()

    def test_golden_mean_primitivity(self):
        # A^2 = [[2,1],[1,1]] is the first positive power
        assert GOLDEN.primitivity_index == 2

    def test_non_primitive_has_no_index(self):
        flip = SftSpace([[0, 1], [1, 0]])  # period-2, never primitive
        assert flip.primitivity_index is None

    def test_stranded_symbol_rejected(self):
        with pytest.raises(ValueError):
            SftSpace([[1, 1], [0, 0]])

    def test_empty_alphabet_rejected(self):
        # was accepted as m = 0, with an empty word_table(1)
        with pytest.raises(ValueError, match="at least one symbol"):
            SftSpace(np.zeros((0, 0)))

    def test_word_admissibility(self):
        GOLDEN.word([0, 1, 0, 0, 1])
        with pytest.raises(ValueError):
            GOLDEN.word([1, 1])

    def test_word_enumeration_counts(self):
        # golden mean word counts follow the Fibonacci recursion
        counts = [GOLDEN.count_words(n) for n in range(1, 8)]
        assert counts == [2, 3, 5, 8, 13, 21, 34]
        assert len(list(GOLDEN.words(5))) == 13

    def test_negative_word_length_raises(self):
        for length in (-1, -5):
            for call in (FULL2.words, FULL2.count_words):
                with pytest.raises(ValueError,
                                   match=f"must be non-negative, got {length}"):
                    call(length)
        assert list(FULL2.words(0)) == [Word(())]
        assert FULL2.count_words(0) == 1

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(st.just(GOLDEN), primitive_spaces()), st.integers(1, 6))
    def test_count_equals_loop_and_table(self, space, length):
        assert space.count_words(length) == count_words_loop(space, length) \
            == len(space.word_table(length))

    def test_json_round_trip(self):
        again = SftSpace.from_json(GOLDEN.to_json())
        assert again == GOLDEN


FLIP = SftSpace([[0, 1], [1, 0]])  # period 2, never primitive
_FLIP_MU = MarkovMeasure.periodic_orbit(FLIP, Word("01"))
_FLIP_F = ergopt.random_potential(FLIP, 2, 0)
_TWO_ORBITS = (_FLIP_MU, Word("0"), Word("1"), [(1,), (2,)], 64, 0)

# every entry point behind SftSpace.gap, called on FLIP, keyed by the name
# its NotPrimitive message gives
GATED = {
    "connector": lambda: connector(FLIP, 0, 1, 3),
    "glue_rows": lambda: glue_rows(FLIP, [Word("0"), Word("1")], 1, 3),
    "dense_tour": lambda: gluing.dense_tour(FLIP, 2),
    "GluingSchedule": lambda: gluing.GluingSchedule(FLIP, []),
    "build_gk_schedule": lambda: gluing.build_gk_schedule(FLIP, _FLIP_MU),
    "build_branch_tree": lambda: gluing.build_branch_tree(
        FLIP, MeasurePath([_FLIP_MU]), 0.1, 1, 0),
    "emit_chaotic_family": lambda: gluing.emit_chaotic_family(
        FLIP, *_TWO_ORBITS),
    "emit_dc1_family": lambda: gluing.emit_dc1_family(FLIP, *_TWO_ORBITS),
    "_emit_two_orbit": lambda: gluing._emit_two_orbit(
        FLIP, (Word("0"), Word("1")), [(1,)], [], 8),
    "beta": lambda: ergopt.beta(FLIP, _FLIP_F),
    "pressure": lambda: ergopt.pressure(FLIP, _FLIP_F),
    "equilibrium_state": lambda: ergopt.equilibrium_state(FLIP, _FLIP_F),
    "emit_lyapunov_family": lambda: cocycle.emit_lyapunov_family(
        cocycle.MatrixCocycle.constant(FLIP, np.eye(2)), FLIP, _FLIP_MU,
        None, 2, 0),
}


class TestPrimitiveGate:
    @pytest.mark.parametrize("who", GATED)
    def test_every_gated_entry_point_names_itself(self, who):
        with pytest.raises(NotPrimitive,
                           match=f"^{who} needs a primitive space$"):
            GATED[who]()

    @pytest.mark.parametrize("r", [3, 5])
    def test_equilibrium_block_space_never_computes_its_index(
            self, r, monkeypatch):
        computed = []
        index = SftSpace.primitivity_index.func

        def spy(space):
            computed.append(space)
            return index(space)

        prop = cached_property(spy)
        prop.__set_name__(SftSpace, "primitivity_index")
        monkeypatch.setattr(SftSpace, "primitivity_index", prop)
        block = ergopt.equilibrium_state(
            FULL2, ergopt.random_potential(FULL2, r, 123)).space
        assert block.m == 2 ** (r - 1)
        assert not any(s is block for s in computed)
        assert "primitivity_index" not in vars(block)
        # the (r-1)-block graph of the full shift joins any two nodes in
        # exactly r-1 steps, and the index is computed once, on first read
        assert block.primitivity_index == block.gap("a reader") == r - 1
        assert sum(s is block for s in computed) == 1


class TestDist:
    def test_equal_words(self):
        w = FULL2.word([0, 1, 0])
        assert dist(w, w) == 0.0

    def test_first_disagreement_at_three(self):
        assert dist(Word("0000"), Word("0001")) == 2.0 ** -3

    def test_disagree_at_zero(self):
        assert dist(Word("10"), Word("00")) == 1.0

    def test_ultrametric_on_random_triples(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            x, y, z = (Word(rng.integers(0, 2, 12).tolist()) for _ in range(3))
            assert dist(x, z) <= max(dist(x, y), dist(y, z)) + 1e-15


class TestSymbolArrays:
    """dist, hamming and delta_separated take a word or a 1-d symbol array
    (a family row, a sample_word draw) and give a word's result for its
    array, equal to the tuple walks they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2), max_size=12),
           st.lists(st.integers(0, 2), max_size=12), st.integers(0, 12),
           st.integers(-1, 13), st.floats(0.0, 1.0))
    def test_arrays_equal_their_words(self, xs, tail, keep, n, delta):
        ys = xs[:keep] + tail  # a shared prefix, then anything
        wx, wy = Word(xs), Word(ys)
        pairs = [(wx, wy), (np.array(xs, dtype=np.uint8), np.array(ys)),
                 (wx, np.array(ys, dtype=np.uint8))]
        want = tuple_dist(wx, wy)
        assert all(dist(x, y) == want for x, y in pairs)
        if len(xs) < n or len(ys) < n:
            for x, y in pairs:
                with pytest.raises(WordsTooShort):
                    hamming(x, y, n)
            return
        want = tuple_hamming(wx, wy, n)
        for x, y in pairs:
            assert hamming(x, y, n) == want and type(hamming(x, y, n)) is int
            assert delta_separated(x, y, n, delta) == (want >= delta * n)

    def test_family_rows(self):
        mu = MarkovMeasure.bernoulli(FULL2, [0.5, 0.5])
        fam = typical_separated_family(mu, 12, 0.25, 0.5, 7)
        x, y = fam[0], fam[1]
        assert isinstance(x, np.ndarray) and x.dtype == np.uint8
        assert dist(x, y) == dist(Word(x), Word(y))
        assert hamming(x, y, 12) == hamming(Word(x), Word(y), 12)
        assert delta_separated(x, y, 12, 0.25)


class TestSeparation:
    def test_identical_prefixes_collapse(self):
        pts = [Word("0000000"), Word("0001000")]
        # prefix length n+k-1 = 2: both start "00"
        assert separated_count(pts, 2, 1) == 1

    def test_spec_prefix_length(self):
        pts = list(FULL2.words(5))
        assert separated_count(pts, 5, 0) == 16  # distinct 4-prefixes

    def test_singleton(self):
        assert separated_count([Word("00000")], 3, 2) == 1

    def test_too_short(self):
        with pytest.raises(WordsTooShort):
            separated_count([Word("0")], 3, 1)
        with pytest.raises(WordsTooShort, match="length 2 < prefix length 3"):
            separated_count(np.zeros((4, 2), dtype=np.uint8), 3, 1)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([FULL2, SftSpace.full_shift(3), GOLDEN]),
           st.integers(1, 6), st.integers(0, 3), st.integers(0, 40),
           st.integers(0, 2**16))
    def test_matrix_equals_set_oracle(self, space, n, k, count, seed):
        # admissible rows, many sharing prefixes, so duplicates are common
        L = max(n + k - 1, 1)
        rng = np.random.default_rng(seed)
        table = space.word_table(L + 2)
        rows = table[rng.integers(0, len(table), count)]
        words = [Word(r) for r in rows.tolist()]
        want = set_separated_count(words, n, k)
        assert separated_count(rows.astype(space.symbol_dtype), n, k) == want
        assert separated_count(rows, n, k) == want
        assert separated_count(words, n, k) == want

    def test_counting_identity_against_metric_greedy(self):
        # greedy maximal selection under pairwise d_n comparisons is exact
        # for an ultrametric; k >= 1 keeps the two formulations equivalent
        rng = np.random.default_rng(11)
        for trial in range(50):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(1, 4))
            L = n + k - 1
            pts = [Word(rng.integers(0, 2, L + 3).tolist())
                   for _ in range(int(rng.integers(1, 25)))]

            def d_n(x, y):
                return max(dist(x[j:], y[j:]) for j in range(n))

            eps = 2.0 ** -k
            kept = []
            for w in pts:
                if all(d_n(w, v) > eps for v in kept):
                    kept.append(w)
            assert separated_count(pts, n, k) == len(kept)

    def test_delta_separated_examples(self):
        assert delta_separated(Word("0101"), Word("1010"), 4, 1.0)
        w = Word("0101")
        assert not delta_separated(w, w, 4, 0.01)
        assert delta_separated(Word("0011"), Word("0000"), 4, 0.5)


class TestConnector:
    def test_full_shift_direct(self):
        assert connector(FULL2, 0, 1, 1) == Word(())

    def test_golden_mean_one_one(self):
        # the only admissible length-1 bridge between two 1s
        assert brute_force_connectors(GOLDEN, 1, 1, 2) == [Word("0")]
        assert connector(GOLDEN, 1, 1, 2) == Word("0")

    def test_golden_mean_zero_zero_lex_min(self):
        bridges = brute_force_connectors(GOLDEN, 0, 0, 2)
        assert connector(GOLDEN, 0, 0, 2) == min(bridges, key=lambda w: w.symbols)
        assert connector(GOLDEN, 0, 0, 2) == Word("0")

    def test_lex_minimality_against_brute_force(self):
        for gap in (2, 3, 4):
            for a in range(2):
                for b in range(2):
                    bridges = brute_force_connectors(GOLDEN, a, b, gap)
                    assert bridges, (a, b, gap)
                    assert connector(GOLDEN, a, b, gap) == min(
                        bridges, key=lambda w: w.symbols)

    def test_splice_property(self):
        rng = np.random.default_rng(3)
        words = [w for w in GOLDEN.words(5)]
        for _ in range(100):
            u = words[rng.integers(len(words))]
            v = words[rng.integers(len(words))]
            gap = int(rng.integers(2, 5))
            w = connector(GOLDEN, u[len(u) - 1], v[0], gap)
            glued = u.symbols + w.symbols + v.symbols
            assert GOLDEN.is_admissible(glued)

    def test_errors(self):
        flip = SftSpace([[0, 1], [1, 0]])
        with pytest.raises(NotPrimitive):
            connector(flip, 0, 1, 3)
        with pytest.raises(GapTooSmall):
            connector(GOLDEN, 0, 0, 1)


def naive_glue(space, words, gap):
    """Oracle for glue: one connector call per junction, nothing memoised."""
    syms = []
    for w in words:
        if len(w) == 0:
            continue
        if syms:
            syms += connector(space, syms[-1], w[0], gap).symbols
        syms += w.symbols
    return Word(syms)


GLUE_SPACES = [GOLDEN, FULL2, SftSpace.full_shift(3),
               SftSpace([[0, 1, 0], [0, 0, 1], [1, 1, 1]])]


@st.composite
def glue_cases(draw):
    space = draw(st.sampled_from(GLUE_SPACES))
    gap = space.primitivity_index + draw(st.integers(0, 2))
    words = []
    for _ in range(draw(st.integers(0, 5))):
        syms = []
        for _ in range(draw(st.integers(0, 6))):
            options = space.successors(syms[-1]) if syms else range(space.m)
            syms.append(draw(st.sampled_from(list(options))))
        words.append(space.word(syms))
    return space, words, gap


class TestGlue:
    @settings(max_examples=300, deadline=None)
    @given(glue_cases())
    def test_matches_per_piece_connectors(self, case):
        space, words, gap = case
        expected = naive_glue(space, words, gap)
        assert glue(space, words, gap) == expected
        assert list(iglue(space, iter(words), gap)) == list(expected.symbols)
        assert space.is_admissible(expected.symbols)

    @settings(max_examples=300, deadline=None)
    @given(glue_cases())
    def test_spans_slice_back_each_word(self, case):
        space, words, gap = case
        glued = glue(space, words, gap).symbols
        spans = glue_spans([len(w) for w in words], gap)
        assert len(spans) == len(words)
        for w, (start, end) in zip(words, spans):
            assert glued[start:end] == w.symbols
        assert max([0, *(end for _, end in spans)]) == len(glued)

    def test_bridge_is_memoised_connector(self):
        space = SftSpace.golden_mean()
        first = bridge(space, 1, 1, 3)
        assert first == connector(space, 1, 1, 3).symbols
        assert bridge(space, 1, 1, 3) is first

    def test_errors_still_raise(self):
        flip = SftSpace([[0, 1], [1, 0]])
        assert glue(flip, [Word("01")], 3) == Word("01")  # no junction
        with pytest.raises(NotPrimitive):
            glue(flip, [Word("0"), Word("1")], 3)
        for _ in range(2):  # a failed lookup is not memoised
            with pytest.raises(GapTooSmall):
                glue(GOLDEN, [Word("0"), Word("0")], 1)

    def test_a_gap_below_the_index_raises_where_pieces_meet(self):
        # below the index a junction would hold a forbidden transition
        # (golden mean, gap 1: 0110) or the pieces would overlap (gap 0)
        for space, gap in ((GOLDEN, 1), (FULL2, 0)):
            words = [Word("01"), Word("10")]
            with pytest.raises(GapTooSmall, match=f"^gap {gap} < "):
                glue_rows(space, words, 1, gap)
            with pytest.raises(GapTooSmall, match=f"^gap {gap} < "):
                glue(space, words, gap)
        # one nonempty piece meets none: any gap from 1 glues, on any space
        assert glue(GOLDEN, [Word(()), Word("010"), Word(())], 1) == \
            Word("010")
        assert glue(FLIP, [Word("01")], 1) == Word("01")
        with pytest.raises(GapTooSmall, match="^gap 0 < 1$"):
            glue_rows(FULL2, [Word("01")], 1, 0)

    def test_a_negative_horizon_is_named(self):
        with pytest.raises(ValueError, match="^horizon must be "
                           "non-negative, got -3$"):
            GluedRows(GOLDEN, [Word("010")], 1, 2, horizon=-3)
        assert GluedRows(GOLDEN, [Word("010")], 1, 2, horizon=0).length == 0


# a primitive 3-symbol space (index 5) whose bridges, of four symbols,
# depend on both neighbours
SFT3 = SftSpace([[0, 1, 0], [1, 0, 1], [1, 0, 0]])


def admissible_symbols(draw, space, n):
    syms = []
    for _ in range(n):
        options = space.successors(syms[-1]) if syms else range(space.m)
        syms.append(draw(st.sampled_from(list(options))))
    return syms


class TestGlueRows:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_each_row_is_its_members_glue(self, data):
        # shared pieces as Words and 1-d arrays, per-member pieces as 2-d
        # arrays, empty ones among them; horizons from 0 past the end, so
        # inside bridges and pieces
        space = data.draw(st.sampled_from([FULL2, GOLDEN, SFT3]))
        gap = space.primitivity_index
        members = data.draw(st.integers(0, 4))
        pieces, words = [], [[] for _ in range(members)]
        for _ in range(data.draw(st.integers(0, 5))):
            n = data.draw(st.integers(0, 5))
            kind = data.draw(st.sampled_from(["word", "array", "rows"]))
            shared = admissible_symbols(data.draw, space, n)
            if kind == "rows":
                rows = [admissible_symbols(data.draw, space, n)
                        for _ in range(members)]
                pieces.append(np.array(rows, dtype=space.symbol_dtype
                                       ).reshape(members, n))
            else:
                rows = [shared] * members
                pieces.append(Word(shared) if kind == "word"
                              else np.array(shared, dtype=int))
            for member, row in zip(words, rows):
                member.append(Word(row))
        spans = glue_spans([p.shape[-1] if isinstance(p, np.ndarray)
                            else len(p) for p in pieces], gap)
        length = max([0, *(end for _, end in spans)])
        horizon = data.draw(st.one_of(st.none(), st.integers(0, length + 2)))
        got = glue_rows(space, pieces, members, gap, horizon)
        cut = length if horizon is None else min(length, horizon)
        assert got.shape == (members, cut)
        assert got.dtype == space.symbol_dtype and not got.flags.writeable
        for row, member in zip(got, words):
            assert Word(row.tolist()) == glue(space, member, gap)[:cut]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_a_window_is_a_slice_of_the_whole(self, data):
        # periodic runs, shared and per member, glue as their cycles
        # repeated; every window, inside bridges and pieces and across
        # them, is the slice of the whole rows
        space = data.draw(st.sampled_from([FULL2, GOLDEN, SFT3]))
        gap = space.primitivity_index
        members = data.draw(st.integers(0, 3))
        lazy, whole = [], []
        for _ in range(data.draw(st.integers(0, 5))):
            n, period = data.draw(st.integers(0, 12)), data.draw(
                st.integers(1, 3))
            kind = data.draw(st.sampled_from(["shared", "rows"]))
            shape = (members, period) if kind == "rows" else (period,)
            cycle = np.array([data.draw(st.integers(0, space.m - 1))
                              for _ in range(int(np.prod(shape)))],
                             dtype=int).reshape(shape)
            run = cycle[..., np.arange(n) % period]
            whole.append(run)
            lazy.append(Periodic(cycle, n) if data.draw(st.booleans())
                        else run)
        horizon = data.draw(st.one_of(st.none(), st.integers(0, 80)))
        rows = GluedRows(space, lazy, members, gap, horizon)
        want = glue_rows(space, whole, members, gap, horizon)
        assert rows.length == want.shape[1]
        for _ in range(4):
            lo = data.draw(st.integers(0, rows.length))
            hi = data.draw(st.integers(lo, rows.length))
            got = rows.window(lo, hi)
            assert got.dtype == space.symbol_dtype and not got.flags.writeable
            assert np.array_equal(got, want[:, lo:hi])

    def test_a_horizon_inside_a_bridge(self):
        # SFT3 bridges are four symbols: "0" + bridge + "1", cut after two
        # symbols of the bridge
        whole = glue(SFT3, [Word("0"), Word("1")], 5)
        rows = glue_rows(SFT3, [Word("0"), np.array([[1], [1]])], 2, 5, 3)
        assert rows.tolist() == [list(whole.symbols[:3])] * 2

    def test_a_forbidden_transition_names_the_row_and_position(self):
        rows = np.array([[0, 1, 0], [0, 1, 1]])
        with pytest.raises(ValueError, match="^member '011' has a forbidden "
                           "transition 1->1 at position 2$"):
            check_rows(GOLDEN, "member", rows)
        with pytest.raises(ValueError, match="^anchor '011' has a forbidden "
                           "transition 1->1 at position 2$"):
            check_rows(GOLDEN, "anchor", Word("011").to_array()[None])
        check_rows(GOLDEN, "member", rows[:1])
        check_rows(GOLDEN, "anchor", np.empty((1, 0), dtype=np.uint8))

    def test_a_piece_needs_one_row_per_member(self):
        with pytest.raises(ValueError, match="one row per member"):
            glue_rows(FULL2, [np.zeros((2, 3), dtype=np.uint8)], 3, 1)


class TestConnectorProperty:
    @settings(max_examples=150, deadline=None)
    @given(primitive_spaces(), st.data())
    def test_lex_smallest_bridge(self, space, data):
        gap = space.primitivity_index + data.draw(st.integers(0, 1))
        a = data.draw(st.integers(0, space.m - 1))
        b = data.draw(st.integers(0, space.m - 1))
        bridges = brute_force_connectors(space, a, b, gap)
        assert bridges
        assert connector(space, a, b, gap) == min(
            bridges, key=lambda w: w.symbols)


def pairwise_delta_separated(words, n, delta):
    """Oracle for the vectorised pairwise check: every pair separately."""
    return all(delta_separated(words[i], words[j], n, delta)
               for i in range(len(words)) for j in range(i + 1, len(words)))


class TestHammingMatrix:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 12), st.data())
    def test_equals_pairwise_hamming(self, m, n, data):
        words = [Word(data.draw(st.lists(st.integers(0, m - 1), min_size=n,
                                         max_size=n + 3)))
                 for _ in range(data.draw(st.integers(0, 6)))]
        H = hamming_matrix(words, n)
        assert H.shape == (len(words), len(words))
        assert H.tolist() == [[hamming(x, y, n) for y in words] for x in words]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 12), st.integers(0, 8),
           st.integers(0, 2 ** 32 - 1))
    def test_symbol_matrix_equals_pairwise_hamming(self, m, n, k, seed):
        # random rows of a symbol matrix, some symbols absent
        X = np.random.default_rng(seed).integers(0, m, size=(k, n + 2),
                                                  dtype=np.uint8)
        words = [Word(row) for row in X.tolist()]
        assert hamming_matrix(X, n).tolist() == [
            [hamming(x, y, n) for y in words] for x in words]

    def test_too_short_named(self):
        with pytest.raises(WordsTooShort):
            hamming_matrix([Word("01"), Word("0")], 2)

    def test_prop3_1_pairwise_check_equals_loop(self, monkeypatch):
        for n, eta, delta in [(18, 0.3, 0.05), (12, 0.25, 0.1),
                              (10, 0.4, 0.3)]:
            params = {"n": n, "eta": eta, "delta": delta}
            got = run_experiment("prop3_1_family", 5, params).details
            fam = list(map(Word, typical_separated_family(
                MarkovMeasure.bernoulli(FULL2, [0.5, 0.5]), n, delta, eta,
                seed=5)[:400]))
            assert got["pairwise_checked"] == len(fam)
            assert got["pairwise_ok"] == pairwise_delta_separated(fam, n, delta)
        # a family with one pair too close, as the greedy search never emits
        close = [Word("0000000000"), Word("1111100000"), Word("1111100001")]
        monkeypatch.setattr(experiments.measures, "typical_separated_family",
                            lambda *a, **k: np.array(close, dtype=np.uint8))
        got = run_experiment("prop3_1_family", 5, {"n": 10, "delta": 0.2})
        assert got.details["pairwise_ok"] is False
        assert not pairwise_delta_separated(close, 10, 0.2)


class TestToArray:
    def test_uint8_unless_a_symbol_exceeds_255(self):
        a = Word([0, 3, 255]).to_array()
        assert a.dtype == np.uint8 and a.tolist() == [0, 3, 255]
        b = Word([0, 256]).to_array()
        assert b.dtype == np.int64 and b.tolist() == [0, 256]
        assert Word(()).to_array().shape == (0,)


def walk_words(space, seed, bad_at=None):
    """An infinite random walk on a space, cut into random words (some
    empty, Words and int arrays in turn); with bad_at set, the symbol at
    that walk position, unless it starts a word, is replaced by one the
    symbol before it may not reach, if there is one."""
    rng = random.Random(seed)
    a, pos = rng.randrange(space.m), 0
    for k in itertools.count():
        word = []
        for _ in range(rng.randrange(0, 9)):
            if pos == bad_at and word:
                banned = [b for b in range(space.m)
                          if not space.transition[word[-1], b]]
                a = banned[0] if banned else a
            word.append(a)
            pos += 1
            a = rng.choice(space.successors(a))
        yield Word(word) if k % 2 else np.array(word, dtype=int)


@st.composite
def stream_cases(draw):
    """A space, its gap, a finite word list (empty words, Words and arrays
    among them, at least one nonempty) and horizons on, beside and between
    the edges of the words and bridges of its first two rounds."""
    space = draw(st.sampled_from([FULL2, GOLDEN, SFT3]))
    gap = space.primitivity_index + draw(st.integers(0, 1))
    words = []
    for _ in range(draw(st.integers(1, 5))):
        syms = admissible_symbols(draw, space, draw(st.integers(0, 6)))
        words.append(Word(syms) if draw(st.booleans())
                     else np.array(syms, dtype=int))
    if not any(len(w) for w in words):
        words.append(Word([draw(st.integers(0, space.m - 1))]))
    spans = glue_spans([len(w) for w in words * 2], gap)
    edges = sorted({e + d for span in spans for e in span for d in (-1, 0, 1)
                    if e + d >= 0})
    horizons = draw(st.lists(st.one_of(st.sampled_from(edges),
                                       st.integers(0, 2 * edges[-1])),
                             min_size=1, max_size=8))
    return space, gap, words, horizons


class TestSymbolStream:
    def test_prefix_property(self):
        def factory():
            while True:
                yield Word("01")
                yield Word(())

        stream = SymbolStream(FULL2, factory, 1, label="alt")
        short = stream.materialize(5)
        long = stream.materialize(11)
        assert long[:5].tolist() == short.tolist()
        assert Word(short) == Word("01010")
        assert short.dtype == np.uint8 and not short.flags.writeable

    @settings(max_examples=300, deadline=None)
    @given(stream_cases())
    def test_equals_the_iglue_oracle(self, case):
        # the stream repeats its words; every call, growing or shrinking,
        # is the prefix of the oracle's walk over the same words
        space, gap, words, horizons = case
        stream = SymbolStream(space, lambda: itertools.cycle(words), gap)
        want = list(itertools.islice(
            iglue(space, itertools.cycle(words), gap), max(horizons)))
        for h in horizons:
            got = stream.materialize(h)
            assert got.dtype == space.symbol_dtype and not got.flags.writeable
            assert got.tolist() == want[:h]

    def test_materialize_pulls_only_the_words_it_needs(self):
        # golden mean, gap 2: 10 [0] 10 [0] 10, so 7 symbols end inside the
        # third word, and 5 end the second
        pulled = []

        def factory():
            for k in itertools.count():
                pulled.append(k)
                yield Word("10")

        stream = SymbolStream(GOLDEN, factory, 2)
        assert stream.materialize(5).tolist() == [1, 0, 0, 1, 0]
        assert pulled == [0, 1]
        assert stream.materialize(7).tolist() == [1, 0, 0, 1, 0, 0, 1]
        assert pulled == [0, 1, 2]
        stream.materialize(3)
        assert pulled == [0, 1, 2]

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(GLUE_SPACES), st.integers(0, 2**16),
           st.lists(st.integers(0, 300), min_size=1, max_size=8))
    def test_prefix_property_random_walks(self, space, seed, horizons):
        gap = space.primitivity_index
        stream = SymbolStream(space, lambda: walk_words(space, seed), gap)
        reference = SymbolStream(space, lambda: walk_words(space, seed), gap
                                 ).materialize(max(horizons))
        for h in horizons:
            assert stream.materialize(h).tolist() == reference[:h].tolist()

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([FULL2, SftSpace.full_shift(3), GOLDEN]),
           st.integers(0, 2**16),
           st.lists(st.integers(0, 200), min_size=1, max_size=6),
           st.one_of(st.none(), st.integers(0, 150)))
    def test_equals_per_symbol_oracle(self, space, seed, horizons, bad_at):
        # full shifts and the golden mean (primitivity index 2); the glued
        # words are checked once glued, so a call fails exactly when it
        # reaches the bad symbol, and names its transition and position
        gap = space.primitivity_index
        words = lambda: walk_words(space, seed, bad_at)  # noqa: E731
        oracle = PerSymbolStream(space, lambda: iglue(space, words(), gap),
                                 label="walk")
        try:
            oracle.materialize(1000)
            error = None
        except ValueError as exc:
            error = re.search(r"transition (\d+->\d+) at position (\d+)$",
                              str(exc)).groups()
        good = Word(oracle._buf)  # the symbols before a bad one
        stream = SymbolStream(space, words, gap, label="walk")
        for h in horizons:
            try:
                got = stream.materialize(h)
            except ValueError as exc:
                lo, step, t = re.fullmatch(
                    r"stream 'walk' window \[(\d+), \d+\) '\d*' has a "
                    r"forbidden transition (\d+->\d+) at position (\d+)",
                    str(exc)).groups()
                assert (step, str(int(lo) + int(t))) == error
                assert h > len(good)
                return
            assert h <= len(good) and Word(got) == good[:h]

    def test_admissibility_enforced(self):
        def bad():
            yield Word("01")
            yield Word("011")  # 01 [0] 011: 1->1 enters position 5
            yield Word("0")

        stream = SymbolStream(GOLDEN, bad, 2, label="bad")
        assert Word(stream.materialize(5)) == Word("01001")
        with pytest.raises(ValueError, match=r"^stream 'bad' window \[4, 6\) "
                           r"'11' has a forbidden transition 1->1 at "
                           r"position 1$"):
            stream.materialize(6)

    def test_symbol_outside_alphabet_named(self):
        for word in (Word((0, 2)), np.array([0, -1])):
            stream = SymbolStream(FULL2, lambda: iter([Word("1"), word]), 1)
            with pytest.raises(ValueError, match=f"symbol {word[1]} outside "
                               f"the alphabet at position 2"):
                stream.materialize(3)

    def test_negative_horizon_named(self):
        stream = SymbolStream(FULL2, lambda: itertools.repeat(Word("0")), 1)
        with pytest.raises(ValueError, match="horizon must be non-negative"):
            stream.materialize(-1)
        assert stream.materialize(0).shape == (0,)

    def test_concurrent_materialization(self):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        # more threads than cores, switching often, over a buffer that
        # grows (and is replaced) while other threads hold views of it
        stream = SymbolStream(
            FULL2, lambda: itertools.cycle([Word("01"), Word("1")]), 1)
        horizons = [50, 200, 10, 400, 100, 33, 380, 77] * 8
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                words = list(pool.map(stream.materialize, horizons,
                                      timeout=60))
        finally:
            sys.setswitchinterval(interval)
        longest = stream.materialize(400)
        assert longest.tolist() == ([0, 1, 1] * 134)[:400]
        for h, w in zip(horizons, words):
            assert w.tolist() == longest[:h].tolist()
