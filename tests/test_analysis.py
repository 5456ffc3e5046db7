import math

import numpy as np
import pytest

from sftlab.analysis import (birkhoff_avg, brin_katok_estimate, growth_rate,
                             recurrence_ratios)
from sftlab.errors import Degenerate, NotRecurrent, WordsTooShort, ZeroCylinder
from sftlab.ergopt import Potential, random_potential
from sftlab.measures import MarkovMeasure, sample_word
from sftlab.shift import SftSpace, Word

from dict_empirical import dict_empirical

FULL2 = SftSpace.full_shift(2)


class TestEmpirical:
    """The dict oracle that the tracking and weak* tests score orbit
    segments with, on hand-counted words."""

    def test_constant_word(self):
        emp = dict_empirical(FULL2, Word("0000"), 3, 1)
        assert emp.freq == {(0,): 3}
        assert emp.total == 3

    def test_alternating_pairs(self):
        w = Word("01" * 50 + "0")  # length 101
        emp = dict_empirical(FULL2, w, 100, 2)
        assert emp.freq == {(0, 1): 50, (1, 0): 50}

    def test_needs_window_slack(self):
        with pytest.raises(WordsTooShort):
            dict_empirical(FULL2, Word("0101"), 4, 2)

    def test_marginals_consistent(self):
        mu = MarkovMeasure.bernoulli(FULL2, [0.3, 0.7])
        emp = dict_empirical(FULL2, sample_word(mu, 200, 0), 150, 3)
        # depth-1 marginal of the depth-3 record matches direct counting
        w = sample_word(mu, 200, 0)
        direct = sum(1 for i in range(150) if w[i] == 1) / 150
        assert emp.cylinder_prob((1,)) == pytest.approx(direct)


class TestBirkhoff:
    def test_constant_potential(self):
        f = Potential.constant(FULL2, 2.5)
        assert birkhoff_avg(Word("010101"), f, 6) == pytest.approx(2.5)

    def test_symbol_indicator_alternating(self):
        f = Potential.indicator(FULL2, Word("1"))
        assert birkhoff_avg(Word("0101010101"), f, 10) == pytest.approx(0.5)

    @pytest.mark.parametrize("n", [0, -1])
    def test_nonpositive_n_raises(self, n):
        # n = 0 used to divide by zero
        f = Potential.constant(FULL2, 2.5)
        with pytest.raises(ValueError, match="n must be positive"):
            birkhoff_avg(Word("0101"), f, n)

    def test_matches_empirical_integration(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            f = random_potential(FULL2, 2, seed=trial, integer=False)
            w = Word(rng.integers(0, 2, 40).tolist())
            n = 30
            emp = dict_empirical(FULL2, w, n, 2)
            integral = sum(emp.cylinder_prob(k) * v for k, v in f.table.items())
            assert birkhoff_avg(w, f, n) == pytest.approx(integral, abs=1e-12)


class TestBrinKatok:
    def test_fair_coin_exact(self):
        mu = MarkovMeasure.bernoulli(FULL2, [0.5, 0.5])
        w = Word(sample_word(mu, 50, 1))
        assert brin_katok_estimate(mu, w, 40, 1) == pytest.approx(
            math.log(2), abs=1e-12)

    def test_point_mass_zero(self):
        mu = MarkovMeasure.periodic_orbit(FULL2, Word("0"))
        assert brin_katok_estimate(mu, Word("0" * 20), 10, 3) == 0.0

    def test_law_of_large_numbers(self):
        p = 0.3
        mu = MarkovMeasure.bernoulli(FULL2, [1 - p, p])
        w = Word(sample_word(mu, 10 ** 5 + 5, 9))
        h = -p * math.log(p) - (1 - p) * math.log(1 - p)
        assert brin_katok_estimate(mu, w, 10 ** 5, 2) == pytest.approx(
            h, abs=0.01)

    def test_analytic_identity(self):
        mu = MarkovMeasure(FULL2, [[0.9, 0.1], [0.4, 0.6]])
        w = Word(sample_word(mu, 30, 4))
        n, k = 20, 3
        L = n + k - 1
        expected = -(math.log(mu.stationary[w[0]]) + sum(
            math.log(mu.stochastic[w[i], w[i + 1]]) for i in range(L - 1))) / n
        assert brin_katok_estimate(mu, w, n, k) == pytest.approx(
            expected, abs=1e-12)

    def test_zero_cylinder(self):
        mu = MarkovMeasure.periodic_orbit(FULL2, Word("0"))
        with pytest.raises(ZeroCylinder):
            brin_katok_estimate(mu, Word("1111"), 3, 1)
        with pytest.raises(ZeroCylinder, match="transition 0->1"):
            brin_katok_estimate(mu, np.array([0, 1], dtype=np.uint8), 1, 2)

    def test_symbol_array_equals_its_word(self):
        mu = MarkovMeasure(FULL2, [[0.9, 0.1], [0.4, 0.6]])
        x = sample_word(mu, 60, 4)  # a read-only uint8 array
        for n, k in [(1, 0), (20, 3), (58, 3)]:
            assert brin_katok_estimate(mu, x, n, k) == \
                brin_katok_estimate(mu, Word(x), n, k)
        with pytest.raises(WordsTooShort):
            brin_katok_estimate(mu, x, 60, 2)


class TestRecurrence:
    def test_periodic_ratios(self):
        w = Word("01" * 50)
        out = recurrence_ratios(w, Word("0"))
        for i, (t, ratio) in enumerate(out, start=1):
            assert t == 2 * i
            assert ratio == pytest.approx((2 * i + 2) / (2 * i))

    def test_ratios_settle_for_random_words(self):
        mu = MarkovMeasure.bernoulli(FULL2, [0.5, 0.5])
        w = sample_word(mu, 10 ** 5, 13)
        out = recurrence_ratios(w, Word("00"))
        final = [r for _, r in out[-10:]]
        assert all(r <= 1.2 for r in final)

    def test_never_visited(self):
        with pytest.raises(NotRecurrent):
            recurrence_ratios(Word("00000"), Word("11"))


class TestGrowthRate:
    def test_exact_exponential(self):
        pts = [(n, 2.0 ** n) for n in (5, 8, 11, 14)]
        out = growth_rate(pts)
        assert out.slope == pytest.approx(math.log(2), abs=1e-12)
        assert out.residual == pytest.approx(0.0, abs=1e-12)

    def test_flat_counts(self):
        out = growth_rate([(4, 1), (8, 1), (12, 1)])
        assert out.slope == 0.0

    def test_degenerate_inputs(self):
        with pytest.raises(Degenerate):
            growth_rate([(3, 8), (4, 16)])
        with pytest.raises(Degenerate):
            growth_rate([(3, 8), (3, 16), (3, 32)])
        with pytest.raises(Degenerate):
            growth_rate([(3, 0.5), (4, 2), (5, 4)])

    def test_suffix_slope_tracks_late_growth(self):
        pts = [(4, 2.0), (8, 2.1), (12, 2.0 ** 6), (16, 2.0 ** 10)]
        out = growth_rate(pts)
        assert out.suffix_max_slope >= out.slope
