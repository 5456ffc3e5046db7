import itertools
import math
import re
from collections import Counter
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sftlab import measures
from sftlab.analysis import empirical
from sftlab.errors import (DepthExceedsEmpirical, ShortFamily, SftLabError,
                           SpaceMismatch, StationaryNotUnique)
from sftlab.measures import (EmpiricalMeasure, MarkovMeasure, MeasurePath,
                             _batch_weak_star, cylinder_weights,
                             interpolate, ks_entropies, ks_entropy,
                             markov_measures, refine_path,
                             sample_word, sample_words_batch,
                             typical_separated_family, weak_star_counts,
                             weak_star_dist, window_counts)
from sftlab.shift import SftSpace, Word, delta_separated, word_columns

from dict_empirical import DictEmpiricalMeasure, dict_empirical, freq
import measure_oracles
from measure_oracles import (chunked_block_counts, closure_is_ergodic,
                             loop_weak_star_counts, loop_weak_star_dist,
                             offset_window_counts, one_draw_sample_word,
                             per_matrix_measure, per_measure_entropy,
                             per_step_sample_word)
from word_oracles import window_columns, word_typical_separated_family

FULL2 = SftSpace.full_shift(2)
GOLDEN = SftSpace.golden_mean()
PHI = (1 + math.sqrt(5)) / 2


def parry_measure(space):
    """Measure of maximal entropy from the transition matrix's Perron data,
    computed here independently with a dense eigensolve."""
    A = space.transition.astype(float)
    lam = max(abs(np.linalg.eigvals(A)))
    w, v = np.linalg.eig(A)
    r = np.real(v[:, np.argmax(np.real(w))])
    r = np.abs(r)
    Q = A * r[None, :] / (lam * r[:, None])
    Q = Q / Q.sum(axis=1, keepdims=True)
    return MarkovMeasure(space, Q)


class TestMarkovMeasure:
    def test_row_sums_validated(self):
        with pytest.raises(ValueError):
            MarkovMeasure(FULL2, [[0.6, 0.3], [0.5, 0.5]])

    def test_support_inside_transitions(self):
        with pytest.raises(ValueError):
            MarkovMeasure(GOLDEN, [[0.5, 0.5], [0.5, 0.5]])

    def test_stationarity_enforced(self):
        with pytest.raises(ValueError):
            MarkovMeasure(FULL2, [[0.9, 0.1], [0.1, 0.9]],
                          stationary=[0.9, 0.1])

    def test_period_two_chain_stationary(self):
        mu = MarkovMeasure(SftSpace.full_shift(3),
                           [[0, 1, 0], [0.5, 0, 0.5], [0, 1, 0]])
        assert mu.stationary == pytest.approx([0.25, 0.5, 0.25], abs=1e-15)

    def test_transient_state_gets_no_mass(self):
        mu = MarkovMeasure(FULL2, [[0.5, 0.5], [0.0, 1.0]])
        assert mu.stationary == pytest.approx([0.0, 1.0], abs=1e-15)

    def test_two_closed_classes_rejected(self):
        with pytest.raises(StationaryNotUnique, match="more than one closed"):
            MarkovMeasure(SftSpace.full_shift(3),
                          [[1, 0, 0], [0.5, 0, 0.5], [0, 0, 1]])
        assert issubclass(StationaryNotUnique, SftLabError)

    def test_cylinder_probabilities(self):
        mu = MarkovMeasure.bernoulli(FULL2, [0.25, 0.75])
        assert mu.cylinder_prob((1, 1, 0)) == pytest.approx(0.75 * 0.75 * 0.25)

    def test_periodic_orbit_measure(self):
        mu = MarkovMeasure.periodic_orbit(FULL2, Word("01"))
        assert mu.cylinder_prob((0, 1, 0)) == pytest.approx(0.5)
        assert mu.cylinder_prob((1, 1)) == 0.0
        with pytest.raises(ValueError):
            MarkovMeasure.periodic_orbit(FULL2, Word("010"))

    def test_json_round_trip(self):
        mu = MarkovMeasure.bernoulli(FULL2, [0.3, 0.7])
        again = MarkovMeasure.from_json(FULL2, mu.to_json())
        assert np.allclose(again.stochastic, mu.stochastic)


@st.composite
def charged_supports(draw):
    """(stochastic, stationary) whose only use is their positive entries: a
    support graph drawn at random, periodic (edges only from class i mod d
    to the next, around an n-cycle) or reducible (upper triangular), and a
    random nonempty set of charged states."""
    kind = draw(st.sampled_from(["random", "periodic", "reducible"]))
    d = draw(st.integers(2, 3))
    n = d * draw(st.integers(1, 3)) if kind == "periodic" \
        else draw(st.integers(1, 7))
    bits = np.array(draw(st.lists(st.booleans(), min_size=n * n,
                                  max_size=n * n)), dtype=bool).reshape(n, n)
    i, j = np.indices((n, n))
    if kind == "periodic":
        bits = (bits & ((j - i) % d == 1)) | ((j - i) % n == 1 % n)
    elif kind == "reducible":
        bits &= i <= j
    charged = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    assume(charged.any())
    return bits.astype(float), charged / charged.sum()


class TestErgodicity:
    @settings(max_examples=300, deadline=None)
    @given(charged_supports())
    def test_sweeps_equal_the_closure(self, support):
        mu = SimpleNamespace(stochastic=support[0], stationary=support[1])
        assert MarkovMeasure.is_ergodic.fget(mu) == closure_is_ergodic(mu)

    @pytest.mark.parametrize("mu, ergodic", [
        (MarkovMeasure.bernoulli(FULL2, [0.3, 0.7]), True),
        (MarkovMeasure.periodic_orbit(SftSpace.full_shift(3), Word("012")),
         True),
        (MarkovMeasure(FULL2, np.eye(2), [0.5, 0.5]), False),
        (MarkovMeasure(FULL2, np.eye(2), [1.0, 0.0]), True),
    ], ids=["bernoulli", "period-3 orbit", "two fixed points", "one of them"])
    def test_measures(self, mu, ergodic):
        assert mu.is_ergodic == closure_is_ergodic(mu) == ergodic


class TestEntropy:
    def test_fair_coin(self):
        mu = MarkovMeasure.bernoulli(FULL2, [0.5, 0.5])
        assert ks_entropy(mu) == pytest.approx(math.log(2), abs=1e-14)

    def test_point_mass(self):
        mu = MarkovMeasure.periodic_orbit(FULL2, Word("0"))
        assert ks_entropy(mu) == 0.0

    def test_parry_measure_golden_mean(self):
        # the maximal entropy equals the log Perron root of the transitions
        mu = parry_measure(GOLDEN)
        assert ks_entropy(mu) == pytest.approx(math.log(PHI), abs=1e-12)
        assert math.log(PHI) == pytest.approx(0.4812, abs=5e-5)

    def test_bernoulli_analytic_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            p = rng.uniform(0.05, 0.95)
            mu = MarkovMeasure.bernoulli(FULL2, [1 - p, p])
            expected = -p * math.log(p) - (1 - p) * math.log(1 - p)
            assert ks_entropy(mu) == pytest.approx(expected, abs=1e-12)


# full shifts, the golden mean and a primitive 3-symbol SFT
STACK_SPACES = [FULL2, SftSpace.full_shift(3), SftSpace.full_shift(4), GOLDEN,
                SftSpace([[0, 1, 0], [0, 0, 1], [1, 1, 1]])]


@st.composite
def markov_stacks(draw):
    """A space and a stack of 1-6 stochastic matrices supported inside its
    transitions, whose rows may have zero entries."""
    space = draw(st.sampled_from(STACK_SPACES))
    weight = st.one_of(st.just(0.0), st.floats(0.01, 10.0))
    stack = []
    for _ in range(draw(st.integers(1, 6))):
        W = np.array([[draw(weight) if a else 0.0 for a in row]
                      for row in space.transition])
        for i in np.flatnonzero(W.sum(axis=1) == 0):
            W[i, space.successors(i)[0]] = 1.0
        stack.append(W / W.sum(axis=1, keepdims=True))
    return space, np.array(stack)


def assert_rows_equal(mus, oracles):
    assert len(mus) == len(oracles)
    for mu, want in zip(mus, oracles):
        for name in ("stochastic", "stationary", "_row_cum", "_pi_cum"):
            assert np.array_equal(getattr(mu, name), getattr(want, name)), name


class TestMarkovMeasureStack:
    @settings(max_examples=200, deadline=None)
    @given(markov_stacks())
    def test_equals_per_matrix_oracle(self, case):
        space, Q = case
        unique = []
        for i, row in enumerate(Q):
            try:
                unique.append(per_matrix_measure(space, row))
            except StationaryNotUnique:
                where = rf" \(row {i}\)" if len(Q) > 1 else ""
                with pytest.raises(
                        StationaryNotUnique,
                        match=f"more than one closed.*unique{where}$"):
                    markov_measures(space, Q)
                return
        assert_rows_equal(markov_measures(space, Q), unique)
        pi = np.array([mu.stationary for mu in unique])
        assert_rows_equal(markov_measures(space, Q, pi), [
            per_matrix_measure(space, q, p) for q, p in zip(Q, pi)])
        assert_rows_equal([MarkovMeasure(space, q) for q in Q], unique)
        assert ks_entropies(markov_measures(space, Q)).tolist() == [
            per_measure_entropy(mu) for mu in unique]

    def test_rows_are_read_only(self):
        mu, = markov_measures(FULL2, [[[0.5, 0.5], [0.5, 0.5]]])
        assert not mu.stochastic.flags.writeable
        assert not mu.stationary.flags.writeable

    def test_two_closed_classes_name_the_row(self):
        good = [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]]
        two = [[1, 0, 0], [0.5, 0, 0.5], [0, 0, 1]]
        with pytest.raises(StationaryNotUnique,
                           match=r"more than one closed.*\(row 1\)"):
            markov_measures(SftSpace.full_shift(3), [good, two, good])

    def test_checks_name_the_row(self):
        good = [[0.5, 0.5], [0.5, 0.5]]
        with pytest.raises(ValueError, match=r"rows must sum.*\(row 2\)"):
            markov_measures(FULL2, [good, good, [[0.6, 0.3], [0.5, 0.5]]])
        with pytest.raises(ValueError, match=r"leaks.*\(row 1\)"):
            markov_measures(GOLDEN, [[[0.5, 0.5], [1, 0]], good])
        with pytest.raises(ValueError, match=r"residual.*\(row 0\)"):
            markov_measures(FULL2, [[[0.9, 0.1], [0.1, 0.9]], good],
                            [[0.9, 0.1], [0.5, 0.5]])
        with pytest.raises(ValueError, match="stationary vector shape"):
            markov_measures(FULL2, [good, good], [[0.5, 0.5]])

    def test_non_finite_stochastic_named(self):
        nan = float("nan")
        with pytest.raises(ValueError,
                           match="^stochastic matrix entries must be finite$"):
            MarkovMeasure(FULL2, [[nan, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError,
                           match=r"stochastic matrix .* finite \(row 1\)"):
            markov_measures(FULL2, [[[0.5, 0.5], [0.5, 0.5]],
                                    [[0.5, 0.5], [float("inf"), 0.5]]])

    def test_non_finite_stationary_named(self):
        uniform = [[0.5, 0.5], [0.5, 0.5]]
        with pytest.raises(ValueError,
                           match="^stationary vector entries must be finite$"):
            MarkovMeasure(FULL2, uniform, [float("nan"), 1.0])
        text = ('{"stochastic": [[0.5, 0.5], [0.5, 0.5]],'
                ' "stationary": [NaN, NaN]}')
        with pytest.raises(ValueError, match="stationary vector .* finite"):
            MarkovMeasure.from_json(FULL2, text)
        with pytest.raises(ValueError,
                           match=r"stationary vector .* finite \(row 1\)"):
            markov_measures(FULL2, [uniform, uniform],
                            [[0.5, 0.5], [0.5, float("nan")]])


class TestWeakStar:
    def test_zero_on_identical(self):
        mu = MarkovMeasure.bernoulli(FULL2, [0.4, 0.6])
        assert weak_star_dist(mu, mu, 3) == 0.0

    def test_point_mass_gap_matches_enumeration(self):
        # independent oracle: enumerate the cylinders and their weights
        d0 = MarkovMeasure.periodic_orbit(FULL2, Word("0"))
        d1 = MarkovMeasure.periodic_orbit(FULL2, Word("1"))
        # depth 1: cylinders "0" (j=1, w=1/4) and "1" (j=2, w=1/8)
        expected = abs(1 - 0) / 4 + abs(0 - 1) / 8
        assert weak_star_dist(d0, d1, 1) == pytest.approx(expected)
        assert expected > 0

    def test_weights_enumeration(self):
        cw = cylinder_weights(FULL2, 2)
        assert [c for c, _ in cw] == [(0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]
        assert [w for _, w in cw] == [2.0 ** -(j + 1) for j in range(1, 7)]

    def test_cache_survives_hash_collisions(self):
        class ConstHash(SftSpace):
            def __hash__(self):
                return 0

        for space in (ConstHash.full_shift(2), ConstHash.golden_mean()):
            cyls = [c for c, _ in cylinder_weights(space, 4)]
            assert cyls == [w.symbols for n in range(1, 5)
                            for w in space.words(n)]

    def test_triangle_inequality_random(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            mus = []
            for _ in range(3):
                p = rng.uniform(0.1, 0.9)
                mus.append(MarkovMeasure.bernoulli(FULL2, [1 - p, p]))
            a, b, c = mus
            assert weak_star_dist(a, c, 3) <= (
                weak_star_dist(a, b, 3) + weak_star_dist(b, c, 3) + 1e-12)

    def test_depth_guard_on_empirical(self):
        mu = MarkovMeasure.bernoulli(FULL2, [0.5, 0.5])
        emp = empirical(FULL2, sample_word(mu, 50, 1), 40, 2)
        with pytest.raises(DepthExceedsEmpirical):
            weak_star_dist(emp, mu, 3)

    @pytest.mark.parametrize("call", [
        lambda a, b: weak_star_dist(a, b, 1),
        lambda a, b: weak_star_dist(a, b, 2),
        lambda a, b: interpolate(a, b, 0.5),
        lambda a, b: MeasurePath([a, b]),
    ], ids=["1", "2", "interpolate", "MeasurePath"])
    def test_measures_on_other_spaces_name_both(self, call):
        # weak_star_dist gave 0.0625 silently at depth 1 and a numpy
        # broadcast error at 2; interpolate gave a measure on the first
        # space built from the second's matrix, or a support error, and
        # MeasurePath a plain ValueError
        full = MarkovMeasure.bernoulli(FULL2, [0.5, 0.5])
        golden = MarkovMeasure(GOLDEN, [[0.5, 0.5], [1.0, 0.0]])
        for a, b in ((full, golden), (golden, full)):
            message = re.escape(f"{a.space.transition.tolist()} and "
                                f"{b.space.transition.tolist()}")
            with pytest.raises(SpaceMismatch, match=message):
                call(a, b)

    def test_an_equal_space_is_accepted(self):
        twin = SftSpace(GOLDEN.transition)
        mu = MarkovMeasure(GOLDEN, [[0.5, 0.5], [1.0, 0.0]])
        nu = MarkovMeasure(twin, [[0.5, 0.5], [1.0, 0.0]])
        assert twin is not GOLDEN
        assert weak_star_dist(mu, nu, 2) == 0.0

    def test_empirical_converges_to_source(self):
        mu = MarkovMeasure.bernoulli(FULL2, [0.5, 0.5])
        dists = []
        for n in (10 ** 3, 10 ** 4, 10 ** 5):
            w = sample_word(mu, n + 2, 42)
            dists.append(weak_star_dist(empirical(FULL2, w, n, 3), mu, 3))
        assert dists[2] < dists[0]
        assert dists[2] < 0.005


# The last space is primitive but not a full shift.
WEAK_SPACES = [FULL2, GOLDEN, SftSpace.full_shift(3),
               SftSpace([[0, 1, 0], [0, 0, 1], [1, 1, 1]])]


def random_markov(draw, space):
    A = space.transition
    W = np.array([[draw(st.floats(0.05, 1.0)) if A[i, j] else 0.0
                   for j in range(space.m)] for i in range(space.m)])
    return MarkovMeasure(space, W / W.sum(axis=1, keepdims=True))


def random_windows(draw, space, depth, admissible=True):
    """Depth-windows over the alphabet; with admissible=False some are
    inadmissible, which an EmpiricalMeasure counts in its total and in the
    cylinders of their admissible prefixes."""
    def window():
        if not admissible:
            return [draw(st.integers(0, space.m - 1)) for _ in range(depth)]
        syms = [draw(st.integers(0, space.m - 1))]
        while len(syms) < depth:
            syms.append(draw(st.sampled_from(space.successors(syms[-1]))))
        return syms

    return np.array([window() for _ in range(draw(st.integers(1, 30)))],
                    dtype=np.int64)


def count_row(space, windows):
    return np.bincount(word_columns(space, windows),
                       minlength=len(space.word_table(windows.shape[1])))


def random_measure(draw, space, depth):
    """A Markov measure, a count-row empirical measure of admissible
    windows, or the dict oracle of windows that may be inadmissible."""
    if draw(st.booleans()):
        return random_markov(draw, space)
    if draw(st.booleans()):
        return EmpiricalMeasure(space, depth, count_row(
            space, random_windows(draw, space, depth)))
    windows = random_windows(draw, space, depth, draw(st.booleans()))
    return DictEmpiricalMeasure(space, depth,
                                Counter(map(tuple, windows.tolist())))


# point masses and periodic orbits on both spaces, next to random chains
ORBIT_MEASURES = [MarkovMeasure.periodic_orbit(space, Word(text))
                  for space, texts in ((FULL2, ("0", "1", "01")),
                                       (GOLDEN, ("0", "01")))
                  for text in texts]


def any_markov(draw, space):
    """A random Markov measure on the space, or one of its orbit
    measures."""
    orbits = [mu for mu in ORBIT_MEASURES if mu.space is space]
    if orbits and draw(st.booleans()):
        return draw(st.sampled_from(orbits))
    return random_markov(draw, space)


class TestVectorWeakStar:
    """weak_star_counts and weak_star_dist against the per-cylinder loops
    they replaced, with ==."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_counts_equal_the_cylinder_loop(self, data):
        space = data.draw(st.sampled_from([FULL2, GOLDEN,
                                           SftSpace.full_shift(3)]))
        depth = data.draw(st.integers(1, 3))
        target = any_markov(data.draw, space)
        samples = [random_windows(data.draw, space, depth)
                   for _ in range(data.draw(st.integers(1, 5)))]
        counts = np.array([count_row(space, w) for w in samples])
        per_row = np.array([len(w) for w in samples])
        block = data.draw(st.sampled_from([1, 2, 1 << 10]))  # rows at once
        for total in (per_row, int(per_row.max())):
            with mock.patch.object(measures, "_WEAK_STAR_ROWS", block):
                got = weak_star_counts(counts, total, target, depth)
            want = loop_weak_star_counts(counts, total, target, depth)
            assert got.tolist() == want.tolist()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_dist_equals_the_cylinder_loop(self, data):
        space = data.draw(st.sampled_from([FULL2, GOLDEN]))
        depth = data.draw(st.integers(1, 3))
        a = (any_markov(data.draw, space) if data.draw(st.booleans())
             else random_measure(data.draw, space, depth))
        b = any_markov(data.draw, space)
        for x, y in ((a, b), (b, a)):
            assert weak_star_dist(x, y, depth) == \
                loop_weak_star_dist(x, y, depth)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_cylinder_probs_equal_cylinder_prob(self, data):
        space = data.draw(st.sampled_from(WEAK_SPACES))
        depth = data.draw(st.integers(1, 3))
        cyls = [c for c, _ in cylinder_weights(space, depth)]
        mu = any_markov(data.draw, space)
        emp = EmpiricalMeasure(space, depth, count_row(
            space, random_windows(data.draw, space, depth)))
        for measure in (mu, emp):
            probs = measure.cylinder_probs(depth)
            assert probs.tolist() == [measure.cylinder_prob(c) for c in cyls]
        assert mu.cylinder_probs(depth) is mu.cylinder_probs(depth)
        assert not mu.cylinder_probs(depth).flags.writeable
        with pytest.raises(DepthExceedsEmpirical):
            emp.cylinder_probs(depth + 1)

    def test_count_rows_must_fill_the_table(self):
        mu = MarkovMeasure.bernoulli(FULL2, [0.4, 0.6])
        # the 2-words of the 2-shift are 4 columns; a short row used to
        # count the missing words as zero and a long one to drop columns
        for counts in ([[3, 1, 2]], [[3, 1, 2, 0, 0]], [3, 1, 2, 0]):
            with pytest.raises(ValueError, match=r"one column per admissible "
                               r"2-word \(4\)"):
                weak_star_counts(np.array(counts), 6, mu, 2)

    def test_totals_must_be_scalar_or_per_row(self):
        mu = MarkovMeasure.bernoulli(FULL2, [0.4, 0.6])
        counts = np.array([[3, 1, 2, 0], [1, 1, 1, 1]])
        for total in ([6], [6, 4, 4], [[6, 4]]):
            with pytest.raises(ValueError, match=r"total must be a scalar or "
                               r"one value per count row \(2\)"):
                weak_star_counts(counts, np.array(total), mu, 2)
        assert weak_star_counts(counts, np.array([6, 4]), mu, 2).tolist() == \
            loop_weak_star_counts(counts, np.array([6, 4]), mu, 2).tolist()

    @pytest.mark.parametrize("total, bad", [(0, 0), (-2, -2), (np.nan, "nan"),
                                            ([6, 0], 0), ([-1, 4], -1)])
    def test_totals_must_be_positive(self, total, bad):
        # a total of 0 gave inf or nan with a RuntimeWarning, and -2 or nan
        # gave a distance silently
        mu = MarkovMeasure.bernoulli(FULL2, [0.4, 0.6])
        counts = np.array([[3, 1, 2, 0], [1, 1, 1, 1]])
        with pytest.raises(ValueError,
                           match=f"total must be positive, got {bad}$"):
            weak_star_counts(counts, np.array(total), mu, 2)


    @pytest.mark.parametrize("total, bad", [(np.inf, "inf"),
                                            ([6, np.inf], "inf")])
    def test_totals_must_be_finite(self, total, bad):
        # an infinite total scored an all-zero count row: 0.1991
        mu = MarkovMeasure.bernoulli(FULL2, [0.4, 0.6])
        counts = np.array([[3, 1, 2, 0], [1, 1, 1, 1]])
        with pytest.raises(ValueError,
                           match=f"total must be finite, got {bad}$"):
            weak_star_counts(counts, np.array(total), mu, 2)
        with pytest.raises(ValueError, match="total must be finite"):
            weak_star_counts(counts[:1], np.inf, mu, 2)


class TestWeakStarCore:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_count_rows_equal_weak_star_dist(self, data):
        space = data.draw(st.sampled_from(WEAK_SPACES))
        depth = data.draw(st.integers(1, 3))
        target = random_measure(data.draw, space, depth)
        samples = [random_windows(data.draw, space, depth)
                   for _ in range(data.draw(st.integers(1, 4)))]
        ncols = len(space.word_table(depth))
        counts = np.array([np.bincount(word_columns(space, w), minlength=ncols)
                           for w in samples])
        totals = np.array([len(w) for w in samples])
        got = weak_star_counts(counts, totals, target, depth)
        for d, w in zip(got.tolist(), samples):
            emp = DictEmpiricalMeasure(space, depth,
                                       Counter(map(tuple, w.tolist())))
            assert d == weak_star_dist(emp, target, depth)

    def test_inadmissible_window_rejected(self):
        cols = word_columns(GOLDEN, np.array([[0, 0], [0, 1], [1, 0]]))
        assert cols.tolist() == [0, 1, 2]
        with pytest.raises(ValueError, match=r"\(1, 1\) is not an admissible"):
            word_columns(GOLDEN, np.array([[0, 1], [1, 1]]))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_batch_rows_equal_weak_star_dist(self, data):
        space = data.draw(st.sampled_from(WEAK_SPACES))
        depth = data.draw(st.integers(1, 3))
        mu = random_markov(data.draw, space)
        n = data.draw(st.integers(depth, 20))
        batch = sample_words_batch(mu, n, 8, seed=data.draw(st.integers(0, 99)))
        got = _batch_weak_star(space, batch, mu, depth)
        for d, row in zip(got.tolist(), batch):
            emp = empirical(space, Word(row.tolist()), n - depth + 1, depth)
            assert d == weak_star_dist(emp, mu, depth)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_symmetric_and_bounded(self, data):
        space = data.draw(st.sampled_from(WEAK_SPACES))
        depth = data.draw(st.integers(1, 3))
        a = random_measure(data.draw, space, depth)
        b = random_measure(data.draw, space, depth)
        d = weak_star_dist(a, b, depth)
        assert d == weak_star_dist(b, a, depth)
        assert 0.0 <= d <= 1.0
        assert weak_star_dist(a, a, depth) == 0.0


def all_cylinders(space, depth):
    """Every cylinder of length 1..depth over the alphabet, admissible or
    not."""
    return [c for n in range(1, depth + 1)
            for c in itertools.product(range(space.m), repeat=n)]


COUNT_SPACES = [FULL2, GOLDEN, SftSpace([[0, 1, 0], [0, 0, 1], [1, 1, 1]])]


def outcome(fn, *args):
    """fn(*args), or the text of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as e:
        return str(e)


def as_lists(counts):
    """A {stop: count matrix} dict, or an error text, in plain lists (with
    each matrix's dtype), so that two outcomes compare with ==."""
    if isinstance(counts, str):
        return counts
    return {k: (v.dtype, v.tolist()) for k, v in counts.items()}


class TestOneWindowCounter:
    """measures.window_counts, the one window counter, against the
    per-offset scatter loop it replaced, and, for one row, against the
    shifted-view ranker with one bincount and the block draw's chunked
    count."""

    def draw_case(self, data, admissible):
        space = data.draw(st.sampled_from(COUNT_SPACES))
        depth = data.draw(st.integers(1, 4))
        length = data.draw(st.integers(depth, 40))
        count = data.draw(st.sampled_from([1, data.draw(st.integers(2, 6))]))
        if admissible:
            rows = sample_words_batch(random_markov(data.draw, space), length,
                                      count, seed=data.draw(st.integers(0, 99)))
            rows = rows.astype(data.draw(st.sampled_from([np.uint8, np.int64])))
        else:  # -1 and m lie outside the alphabet
            rows = np.array(data.draw(st.lists(
                st.lists(st.integers(-1, space.m), min_size=length,
                         max_size=length), min_size=count, max_size=count)))
        windows = length - depth + 1
        stops = data.draw(st.lists(st.integers(0, windows), max_size=4))
        stops += data.draw(st.lists(st.sampled_from([0, windows]),
                                    min_size=1, max_size=3))
        return space, rows, depth, stops, windows

    def check(self, data, admissible):
        space, rows, depth, stops, windows = self.draw_case(data, admissible)
        chunk = data.draw(st.sampled_from([1, 3, 7, measures._COUNT_WINDOWS]))
        with mock.patch.object(measures, "_COUNT_WINDOWS", chunk):
            got = as_lists(outcome(window_counts, space, rows, depth, stops))
        assert got == as_lists(
            outcome(offset_window_counts, space, rows, depth, stops))
        if len(rows) == 1 and windows in stops:
            ranked = outcome(window_columns, space, rows[0], depth)
            block = outcome(chunked_block_counts, space, rows[0], depth, chunk)
            if isinstance(got, str):
                assert got == ranked == block
            else:
                words = len(space.word_table(depth))
                assert got[windows][1] == [np.bincount(
                    ranked, minlength=words).tolist()] == [block.tolist()]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_the_old_counters(self, data):
        self.check(data, admissible=True)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_bad_windows_raise_the_old_text(self, data):
        self.check(data, admissible=False)

    def test_names_forbidden_window_and_foreign_symbol(self):
        # offset first, then row, as the per-offset loop met them: row 1's
        # (1, 1) at offset 0 comes before row 0's (0, 2) at offset 2
        rows = np.array([[0, 1, 0, 2, 0, 0], [1, 1, 0, 0, 1, 0]])
        with pytest.raises(ValueError, match=r"window \(1, 1\) is not an "
                                             r"admissible 2-word$"):
            window_counts(GOLDEN, rows, 2, [5])
        with pytest.raises(ValueError, match=r"window \(0, 2\) is not an "
                                             r"admissible 2-word$"):
            window_counts(GOLDEN, np.array([[0, 1, 0, 2]]), 2, [3])

    @pytest.mark.parametrize("stops", [[], [-1], [6], [0, 6]])
    def test_stops_outside_the_windows_raise(self, stops):
        with pytest.raises(ValueError, match=r"stops must lie in \[0, 5\]"):
            window_counts(FULL2, np.zeros((2, 6), dtype=np.uint8), 2, stops)


class TestCountRowEmpirical:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_the_dict_oracle_bit_for_bit(self, data):
        space = data.draw(st.sampled_from(WEAK_SPACES))
        depth = data.draw(st.integers(1, 3))
        windows = random_windows(data.draw, space, depth)
        emp = EmpiricalMeasure(space, depth, count_row(space, windows))
        oracle = DictEmpiricalMeasure(space, depth,
                                      Counter(map(tuple, windows.tolist())))
        assert freq(emp) == oracle.freq and emp.total == oracle.total
        assert list(freq(emp)) == sorted(oracle.freq)
        for cyl in all_cylinders(space, depth):
            assert emp.cylinder_prob(cyl) == oracle.cylinder_prob(cyl)
        target = random_measure(data.draw, space, depth)
        for d in range(1, depth + 1):
            assert weak_star_dist(emp, target, d) == \
                weak_star_dist(oracle, target, d)
            assert weak_star_dist(target, emp, d) == \
                weak_star_dist(target, oracle, d)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_empirical_equals_the_window_loop(self, data):
        space = data.draw(st.sampled_from(WEAK_SPACES))
        depth = data.draw(st.integers(1, 3))
        x = Word(random_windows(data.draw, space,
                                data.draw(st.integers(depth, 40)))[0].tolist())
        n = data.draw(st.integers(1, len(x) - depth + 1))
        emp, oracle = empirical(space, x, n, depth), \
            dict_empirical(space, x, n, depth)
        assert freq(emp) == oracle.freq and emp.total == oracle.total
        mu = random_markov(data.draw, space)
        assert weak_star_dist(emp, mu, depth) == \
            weak_star_dist(oracle, mu, depth)

    def test_inadmissible_window_named(self):
        # the dict path counted it silently
        assert dict_empirical(GOLDEN, Word("0110"), 3, 2).freq[(1, 1)] == 1
        with pytest.raises(ValueError, match=r"window \(1, 1\) is not an "
                           r"admissible 2-word"):
            empirical(GOLDEN, Word("0110"), 3, 2)
        with pytest.raises(ValueError, match=r"window \(2,\) is not"):
            empirical(GOLDEN, Word("0120"), 4, 1)

    def test_counts_are_read_only(self):
        emp = empirical(GOLDEN, Word("01001"), 4, 2)
        assert emp.counts.tolist() == [1, 2, 1]
        assert freq(emp) == {(0, 0): 1, (0, 1): 2, (1, 0): 1}
        assert emp.cylinder_prob((1, 1)) == 0.0
        assert emp.cylinder_prob((0,)) == 0.75
        with pytest.raises(ValueError):
            emp.counts[0] = 5

    def test_bad_count_rows_raise(self):
        with pytest.raises(ValueError,
                           match="one entry per admissible 2-word"):
            EmpiricalMeasure(GOLDEN, 2, [1, 2, 3, 4])
        with pytest.raises(ValueError, match="nonnegative with positive"):
            EmpiricalMeasure(GOLDEN, 2, [1, -1, 0])
        with pytest.raises(ValueError, match="nonnegative with positive"):
            EmpiricalMeasure(GOLDEN, 2, [0, 0, 0])


class TestSampling:
    def test_degenerate_bernoulli(self):
        mu = MarkovMeasure.bernoulli(FULL2, [1.0, 0.0])
        assert sample_word(mu, 8, 0).tolist() == [0] * 8

    def test_two_cycle_alternates(self):
        mu = MarkovMeasure.periodic_orbit(FULL2, Word("01"))
        w = sample_word(mu, 9, 3)
        assert w.tolist() in ([0, 1] * 4 + [0], [1, 0] * 4 + [1])

    def test_frequency_concentration(self):
        mu = MarkovMeasure.bernoulli(FULL2, [0.5, 0.5])
        w = sample_word(mu, 10 ** 5, 7)
        freq = w.sum() / len(w)
        assert abs(freq - 0.5) < 0.01

    @pytest.mark.parametrize("n", [0, -1])
    def test_nonpositive_length_raises(self, n):
        # the batch used to raise a raw IndexError at n = 0
        mu = MarkovMeasure.bernoulli(FULL2, [0.3, 0.7])
        for call in (lambda: sample_word(mu, n, 0),
                     lambda: sample_words_batch(mu, n, 3, 0)):
            with pytest.raises(ValueError, match="n must be positive"):
                call()

    def test_negative_count_named(self):
        # numpy's raw "negative dimensions" error used to escape
        mu = MarkovMeasure.bernoulli(FULL2, [0.3, 0.7])
        with pytest.raises(ValueError, match="count must be non-negative, "
                           "got -1"):
            sample_words_batch(mu, 3, -1, 0)
        assert sample_words_batch(mu, 3, 0, 0).shape == (0, 3)

    @pytest.mark.parametrize("cuts", [[0], [3], [1, 2, 6], [0, 0, 7]])
    def test_draws_from_one_generator_join(self, cuts):
        # typical_separated_family draws each batch a block at a time from
        # the batch's one generator: the blocks are the batch's rows
        mu = parry_measure(GOLDEN)
        whole = sample_words_batch(mu, 9, 7, seed=11)
        rng = measures.rng_from(11)
        parts = [sample_words_batch(mu, 9, hi - lo, rng)
                 for lo, hi in zip([0, *cuts], [*cuts, 7])]
        assert all(part.dtype == GOLDEN.symbol_dtype for part in parts)
        assert np.array_equal(np.vstack(parts), whole)

    def test_deterministic_in_seed(self):
        mu = MarkovMeasure.bernoulli(FULL2, [0.3, 0.7])
        assert np.array_equal(sample_word(mu, 64, 5), sample_word(mu, 64, 5))
        assert not np.array_equal(sample_word(mu, 64, 5),
                                  sample_word(mu, 64, 6))

    def test_golden_mean_samples_admissible(self):
        mu = parry_measure(GOLDEN)
        w = sample_word(mu, 500, 11)
        assert GOLDEN.is_admissible(w)


@st.composite
def sparse_markov(draw):
    """A Markov measure on the full m-shift, m <= 4, whose rows may have
    zero entries or be deterministic; rejected when its stationary vector
    is not unique."""
    m = draw(st.integers(1, 4))
    rows = []
    for _ in range(m):
        w = [draw(st.sampled_from([0.0, 0.0, 0.3, 1.0, 2.5])) for _ in range(m)]
        if not any(w):
            w[draw(st.integers(0, m - 1))] = 1.0
        rows.append([x / sum(w) for x in w])
    try:
        return MarkovMeasure(SftSpace.full_shift(m), rows)
    except StationaryNotUnique:
        assume(False)


def fake_rng(u):
    """A stand-in for rng_from: each generator it makes serves the uniforms
    u in order, one at a time or as an array of any shape."""
    def rng(*seed):
        at = iter(np.asarray(u, dtype=float).tolist())

        def random(size=None):
            if size is None:
                return next(at)
            out = np.array([next(at) for _ in range(int(np.prod(size)))])
            return out.reshape(size)
        return mock.Mock(random=random)
    return rng


@st.composite
def periodic_orbits(draw):
    """The measure of a cycle of distinct symbols of a full shift."""
    m = draw(st.integers(1, 5))
    cycle = draw(st.permutations(range(m)))[:draw(st.integers(1, m))]
    return MarkovMeasure.periodic_orbit(SftSpace.full_shift(m), Word(cycle))


class TestSampleWordOracle:
    @settings(max_examples=150, deadline=None)
    @given(sparse_markov(), st.integers(1, 300), st.integers(0, 2**32),
           st.sampled_from([1, 7, 64, 1 << 16]))
    def test_equals_per_step_draws(self, mu, n, seed, chunk):
        with mock.patch.object(measures, "_CHAIN_CHUNK", chunk):
            x = sample_word(mu, n, seed)
        assert Word(x) == per_step_sample_word(mu, n, seed)
        assert x.dtype == mu.space.symbol_dtype and not x.flags.writeable

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(sparse_markov(), periodic_orbits()), st.integers(1, 700),
           st.integers(0, 2**32), st.sampled_from([1, 7, 64, 1 << 16]))
    def test_equals_the_one_draw_sampler(self, mu, n, seed, chunk):
        # uniforms drawn a chunk at a time, periodic orbits read off their
        # cycle: the word the one-draw, step-by-step sampler gave
        with mock.patch.object(measures, "_CHAIN_CHUNK", chunk):
            x = sample_word(mu, n, seed)
            want = one_draw_sample_word(mu, n, seed)
        assert x.dtype == want.dtype and np.array_equal(x, want)

    def test_chunked_uniforms_are_one_draw(self):
        for sizes in ([1, 5, 64], [1] * 10, [3, 1 << 16, 7]):
            rng = measures.rng_from(9)
            parts = [rng.random(k) for k in sizes]
            assert np.array_equal(np.concatenate(parts),
                                  measures.rng_from(9).random(sum(sizes)))
        assert measures.rng_from(9).random() == \
            measures.rng_from(9).random(1)[0]

    def test_a_periodic_orbit_is_read_off_its_cycle(self):
        # no per-step walk: a million symbols of a 3-cycle at once
        mu = MarkovMeasure.periodic_orbit(SftSpace.full_shift(4), Word("203"))
        then = measures._walk(mu)[2]
        assert (then[2], then[0], then[3]) == (0, 3, 2)
        x = sample_word(mu, 10 ** 6, 4)
        assert np.array_equal(x[:5000], one_draw_sample_word(mu, 5000, 4))
        assert np.array_equal(x[3:], x[:-3]) and set(x[:3]) == {0, 2, 3}
        assert measures._walk(parry_measure(GOLDEN))[2] is None

    def test_periodic_draws_of_one_length_share_one_array(self):
        # a periodic word is a function of its length and first state: the
        # chaos blocks of delta_0 are one array, not one per block
        mu = MarkovMeasure.periodic_orbit(FULL2, Word("0"))
        x = sample_word(mu, 4224, 1)
        assert sample_word(mu, 4224, 2) is x and not x.flags.writeable
        assert Word(x) == per_step_sample_word(mu, 4224, 2)
        # its start is fixed too, so no generator is seeded
        with mock.patch.object(measures, "rng_from",
                               side_effect=AssertionError("seeded")):
            assert sample_word(mu, 4224, 3) is x
        short = sample_word(mu, 7, 3)
        assert Word(short) == per_step_sample_word(mu, 7, 3)
        assert sample_word(mu, 4224, 1) is not x  # the last length is kept
        # one word per first state of a 3-cycle, each the per-step draw
        cyc = MarkovMeasure.periodic_orbit(SftSpace.full_shift(4), Word("203"))
        draws = [sample_word(cyc, 50, seed) for seed in range(30)]
        for seed, x in enumerate(draws):
            assert Word(x) == per_step_sample_word(cyc, 50, seed)
        assert len({id(x) for x in draws}) == len(cyc._cycle_words) == 3

    def test_equal_across_table_chunks(self):
        mu = parry_measure(GOLDEN)
        n = 2 * (1 << 16) + 3
        assert Word(sample_word(mu, n, 5)) == per_step_sample_word(mu, n, 5)

    @settings(max_examples=150, deadline=None)
    @given(sparse_markov(), st.data())
    def test_equals_per_step_draws_at_the_cuts(self, mu, data):
        # u on and next to every cumulative entry, and at 0 and just below
        # 1, where a row summing to just under 1 moves to the last state
        edges = np.concatenate([mu._row_cum.ravel(), mu._pi_cum, [0.0]])
        cuts = np.unique(np.concatenate([
            edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
            [1 - 2.0 ** -53]]))
        cuts = cuts[(cuts >= 0) & (cuts < 1)]
        u = np.array(data.draw(st.lists(st.sampled_from(cuts.tolist()),
                                        min_size=1, max_size=60)))
        fake = fake_rng(u)
        with mock.patch.object(measures, "rng_from", fake), \
                mock.patch.object(measure_oracles, "rng_from", fake):
            assert Word(sample_word(mu, len(u), 0)) == \
                per_step_sample_word(mu, len(u), 0)

    def test_short_row_moves_to_the_last_state(self):
        # row 1 sums to 1 - 1e-13, so u in [1 - 1e-13, 1) leaves it for 1,
        # a zero-probability and forbidden step, as the per-step draw does
        mu = MarkovMeasure(GOLDEN, [[0.5, 0.5], [1 - 1e-13, 0.0]])
        assert measures._walk(mu)[1] == [0, 1]
        u = np.array([0.9, 1 - 2.0 ** -53, 0.2, 0.99])
        fake = fake_rng(u)
        with mock.patch.object(measures, "rng_from", fake), \
                mock.patch.object(measure_oracles, "rng_from", fake):
            assert sample_word(mu, 4, 0).tolist() == [1, 1, 0, 1]
            assert per_step_sample_word(mu, 4, 0) == Word("1101")

    def test_draw_past_a_short_row_stays_in_range(self):
        # rows summing to 1 - 4e-13 pass ROW_TOL; u = 1 - 1e-13 lies past
        # a row's last cumulative entry, so both samplers take the last
        # state at every step (the batch used to index row m mid-walk)
        row = [0.5, 0.5 - 4e-13]
        mu = MarkovMeasure(FULL2, [row, row])
        fake = fake_rng(np.full(15, 1 - 1e-13))
        with mock.patch.object(measures, "rng_from", fake):
            assert sample_word(mu, 5, 0).tolist() == [1] * 5
            batch = sample_words_batch(mu, 5, 3, 0)
        assert batch.tolist() == [[1] * 5] * 3

    def test_wide_alphabet_draws_uint16(self):
        # 300 symbols in one cycle: a uint16 draw, every step walked
        Q = np.roll(np.eye(300), 1, axis=1)
        mu = MarkovMeasure(SftSpace.full_shift(300), Q)
        x = sample_word(mu, 500, 3)
        assert x.dtype == np.uint16 and not x.flags.writeable
        assert Word(x) == per_step_sample_word(mu, 500, 3)
        assert (np.diff(x.astype(int)) % 300 == 1).all()

    def test_visits_only_reachable_states(self):
        assert measures._walk(MarkovMeasure.periodic_orbit(
            FULL2, Word("0")))[1] == [0]
        assert measures._walk(MarkovMeasure.periodic_orbit(
            SftSpace.full_shift(3), Word("12")))[1] == [1, 2]
        assert measures._walk(parry_measure(GOLDEN))[1] == [0, 1]


class TestTypicalFamily:
    @pytest.mark.parametrize("n", [0, -1])
    def test_nonpositive_length_raises(self, n):
        # n = 0 used to raise a raw IndexError from the batch sampler
        mu = MarkovMeasure.bernoulli(FULL2, [0.5, 0.5])
        with pytest.raises(ValueError, match="n must be positive"):
            typical_separated_family(mu, n, 0.05, 0.35, seed=2)

    @pytest.mark.parametrize("n, depth", [(1, 2), (2, 3)])
    def test_words_shorter_than_the_typicality_depth_raise(self, n, depth):
        # n = 1 at the default depth 2 kept every drawn row unchecked: its
        # distance was nan, and nan > tol is false
        mu = MarkovMeasure.bernoulli(FULL2, [0.5, 0.5])
        with mock.patch.object(measures, "sample_words_batch") as draw:
            with pytest.raises(ValueError, match=f"n = {n} is shorter than "
                               f"typical_depth = {depth}"):
                typical_separated_family(mu, n, 0.05, 0.35, seed=2,
                                         typical_depth=depth)
        draw.assert_not_called()

    @pytest.mark.parametrize("depth", [0, -1])
    def test_typical_depth_must_be_positive(self, depth):
        # depth 0 drew a batch, then failed with "word length must be
        # positive, got 0", which named neither the parameter nor the call
        mu = MarkovMeasure.bernoulli(FULL2, [0.5, 0.5])
        with mock.patch.object(measures, "sample_words_batch") as draw:
            with pytest.raises(ValueError, match=f"^typical_depth must be "
                               f"positive, got {depth}$"):
                typical_separated_family(mu, 4, 0.05, 0.35, seed=1,
                                         typical_depth=depth)
        draw.assert_not_called()

    def test_family_target_rule(self):
        assert measures.family_target(3, math.log(2), 0.0) == 8
        assert measures.family_target(18, math.log(2), 0.3) == 1184
        assert measures.family_target(18, math.log(2), 2.0) == 1
        assert measures.family_target(12, 0.0, 0.1) == 1

    def test_point_mass_gives_singleton(self):
        mu = MarkovMeasure.periodic_orbit(FULL2, Word("0"))
        fam = typical_separated_family(mu, 12, 0.05, 0.1, seed=1)
        assert len(fam) == 1

    def test_target_size_and_pairwise_separation(self):
        mu = MarkovMeasure.bernoulli(FULL2, [0.5, 0.5])
        n, delta, eta = 20, 0.05, 0.35
        fam = typical_separated_family(mu, n, delta, eta, seed=2)
        target = math.ceil(math.exp(n * (ks_entropy(mu) - eta)) - 1e-9)
        assert len(fam) >= target
        assert fam.shape == (len(fam), n) and fam.dtype == np.uint8
        assert not fam.flags.writeable
        # exhaustive pairwise replay of the separation postcondition
        words = list(map(Word, fam.tolist()))
        for i in range(len(words)):
            for j in range(i + 1, len(words)):
                assert delta_separated(words[i], words[j], n, delta)

    def test_hamming_threshold_above_one(self):
        mu = MarkovMeasure.bernoulli(FULL2, [0.5, 0.5])
        n, delta, eta = 16, 0.2, 0.45
        fam = typical_separated_family(mu, n, delta, eta, seed=4)
        need = math.ceil(delta * n)
        for i in range(len(fam)):
            for j in range(i + 1, len(fam)):
                assert sum(a != b for a, b in zip(fam[i], fam[j])) >= need

    def test_infeasible_margin_rejected(self):
        mu = MarkovMeasure.bernoulli(FULL2, [0.5, 0.5])
        with pytest.raises(ValueError):
            typical_separated_family(mu, 20, 0.5, 0.1, seed=3)

    def test_short_family_reports_achieved(self):
        mu = MarkovMeasure.bernoulli(FULL2, [0.5, 0.5])
        with pytest.raises(ShortFamily) as exc:
            typical_separated_family(mu, 10, 0.01, 0.02, seed=5,
                                     typical_tol=1e-6, max_attempts=3000)
        assert exc.value.achieved < exc.value.target
        assert exc.value.words.shape == (exc.value.achieved, 10)

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(["full2", "full3", "golden"]), st.integers(1, 4),
           st.integers(2, 14), st.booleans(), st.floats(0.1, 0.6),
           st.sampled_from([1, 3, 7, 1024]), st.booleans(),
           st.integers(0, 2**16))
    def test_equals_word_list_oracle(self, which, need, n, exact, eta, block,
                                     one_row, seed):
        # full shifts and the golden mean (primitivity index 2), Hamming
        # thresholds ceil(delta n) of 1 to 4 (delta = need / n, or a fixed
        # delta), sampling blocks of a few rows, so block edges fall inside
        # batches and the target is met mid-block, and the balls of one
        # candidate at a time or of as many as _PROBES allows
        if which == "golden":
            mu = parry_measure(GOLDEN)
        else:
            space = SftSpace.full_shift(2 if which == "full2" else 3)
            mu = MarkovMeasure.bernoulli(space, [1 / space.m] * space.m)
        delta = need / n if exact else [0.05, 0.15, 0.3][need % 3]
        args = (mu, n, min(delta, 1.0), eta, seed)
        kw = {"max_attempts": 4096}
        with mock.patch.object(measures, "_SAMPLE_BLOCK", block), \
                mock.patch.object(measures, "_PROBES",
                                  1 if one_row else measures._PROBES):
            try:
                got = typical_separated_family(*args, **kw)
            except ShortFamily as exc:
                with pytest.raises(ShortFamily) as want:
                    word_typical_separated_family(*args, **kw)
                assert exc.target == want.value.target
                assert exc.achieved == want.value.achieved == len(exc.words)
                assert exc.words.dtype == mu.space.symbol_dtype
                assert not exc.words.flags.writeable
                assert list(map(Word, exc.words.tolist())) == want.value.words
                return
            except ValueError as exc:  # the margin check, which the oracle skips
                assert "infeasible margin" in str(exc)
                assume(False)
        assert got.dtype == mu.space.symbol_dtype
        assert list(map(Word, got.tolist())) == \
            word_typical_separated_family(*args, **kw)

    @pytest.mark.parametrize("m, n, need, eta", [
        (2, 12, 3, 0.25), (2, 14, 4, 0.23), (3, 12, 3, 0.55),
        (2, 64, 1, 0.6), (2, 64, 2, 0.6)])
    @pytest.mark.parametrize("one_row", [True, False])
    def test_indexed_balls_of_radius_two_and_three(self, m, n, need, eta,
                                                   one_row):
        # the ball (79, 470, 289, 1 and 65 words) is no larger than the
        # target, so the kept words are indexed, not scanned; 2**64 keys
        # are Python ints; the balls of one candidate at a time, or of a
        # whole block of 7
        space = SftSpace.full_shift(m)
        mu = MarkovMeasure.bernoulli(space, [1 / m] * m)
        target = math.ceil(math.exp(n * (ks_entropy(mu) - eta)) - 1e-9)
        assert not measures._Packing(space, n, need - 1, target).scan
        args, kw = (mu, n, need / n, eta, 5), {"max_attempts": 4096}
        with mock.patch.object(measures, "_SAMPLE_BLOCK", 7), \
                mock.patch.object(measures, "_PROBES",
                                  1 if one_row else measures._PROBES):
            try:
                got = list(map(Word, typical_separated_family(*args, **kw)))
            except ShortFamily as exc:
                got = list(map(Word, exc.words.tolist()))
        try:
            want = word_typical_separated_family(*args, **kw)
        except ShortFamily as exc:
            want = exc.words
        assert len(got) > 1 and got == want

    def test_batch_filter_matches_weak_star(self):
        mu = MarkovMeasure.bernoulli(FULL2, [0.3, 0.7])
        batch = sample_words_batch(mu, 15, 20, seed=8)
        dists = _batch_weak_star(FULL2, batch, mu, 2)
        for row, d in zip(batch, dists):
            emp = empirical(FULL2, Word(row.tolist()), 14, 2)
            assert d == pytest.approx(weak_star_dist(emp, mu, 2), abs=1e-12)


class TestMeasurePath:
    def test_single_checkpoint_constant(self):
        mu = MarkovMeasure.bernoulli(FULL2, [0.5, 0.5])
        path = MeasurePath([mu])
        out = refine_path(path, 3)
        assert len(out) == 7
        assert all(np.allclose(m.stochastic, mu.stochastic) for m in out)

    def test_two_checkpoint_traversal(self):
        a = MarkovMeasure.bernoulli(FULL2, [0.8, 0.2])
        b = MarkovMeasure.bernoulli(FULL2, [0.2, 0.8])
        out = refine_path(MeasurePath([a, b]), 2)
        assert len(out) == 5
        mid = interpolate(a, b, 0.5)
        assert np.allclose(out[0].stochastic, a.stochastic)
        assert np.allclose(out[1].stochastic, mid.stochastic)
        assert np.allclose(out[2].stochastic, b.stochastic)
        assert np.allclose(out[3].stochastic, mid.stochastic)
        assert np.allclose(out[4].stochastic, a.stochastic)

    def test_consecutive_gaps_shrink_with_stage(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            p, q = sorted(rng.uniform(0.05, 0.95, size=2))
            a = MarkovMeasure.bernoulli(FULL2, [1 - p, p])
            b = MarkovMeasure.bernoulli(FULL2, [1 - q, q])
            path = MeasurePath([a, b])

            def max_gap(stage):
                pts = refine_path(path, stage)
                return max(weak_star_dist(u, v, 2)
                           for u, v in zip(pts, pts[1:]))

            gaps = [max_gap(s) for s in (2, 4, 8)]
            assert gaps[2] <= gaps[1] + 1e-12 <= gaps[0] + 2e-12

    def test_max_checkpoint_entropy_is_not_the_path_sup(self):
        a = MarkovMeasure.bernoulli(FULL2, [0.7, 0.3])
        b = MarkovMeasure.bernoulli(FULL2, [0.3, 0.7])
        path = MeasurePath([a, b])
        assert path.max_checkpoint_entropy() == max(ks_entropy(a),
                                                    ks_entropy(b))
        # the midpoint is Bernoulli(1/2, 1/2), of entropy log 2
        assert path.max_checkpoint_entropy() < 0.62 < 0.69 < \
            ks_entropy(path.at(0.5))

    def test_json_round_trip(self):
        a = MarkovMeasure.bernoulli(FULL2, [0.9, 0.1])
        b = MarkovMeasure.bernoulli(FULL2, [0.1, 0.9])
        path = MeasurePath([a, b])
        again = MeasurePath.from_json(FULL2, path.to_json())
        assert np.allclose(again.checkpoints[1].stochastic, b.stochastic)
