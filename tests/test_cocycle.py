import math

import numpy as np
import pytest

from sftlab.cocycle import (MatrixCocycle, emit_lyapunov_family,
                            exponent_along, exponent_bracket,
                            periodic_exponent)
from sftlab.measures import MarkovMeasure, sample_word
from sftlab.shift import SftSpace, Word, separated_count

FULL2 = SftSpace.full_shift(2)
GOLDEN = SftSpace.golden_mean()


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


class TestExponentAlong:
    def test_constant_diagonal(self):
        c = MatrixCocycle.constant(FULL2, np.diag([2.0, 0.5]))
        w = Word("01" * 200)
        # ||A^n|| = 2^n exactly, so the exponent is exact at every n
        assert exponent_along(c, w, 400) == pytest.approx(
            math.log(2), abs=1e-12)

    def test_single_step_is_log_norm(self):
        A = np.array([[1.0, 2.0], [0.0, 1.0]])
        c = MatrixCocycle.constant(FULL2, A)
        expected = math.log(np.linalg.norm(A, 2))
        assert exponent_along(c, Word("01"), 1) == pytest.approx(expected)

    def test_cadence_independence(self):
        c = MatrixCocycle(FULL2, {
            (0,): np.array([[1.1, 0.3], [0.0, 0.9]]),
            (1,): np.array([[0.8, 0.0], [0.5, 1.2]]),
        })
        mu = MarkovMeasure.bernoulli(FULL2, [0.5, 0.5])
        w = sample_word(mu, 2000, 1)
        a = exponent_along(c, w, 2000, cadence=8)
        b = exponent_along(c, w, 2000, cadence=64)
        assert a == pytest.approx(b, abs=1e-10)

    def test_diagonal_birkhoff_oracle(self):
        # commuting diagonals: the exponent equals the largest absolute
        # Birkhoff average of the log diagonal entries, exactly
        a, b = 3.0, 0.5
        c = MatrixCocycle.diagonal(FULL2, {0: [b, 1 / b], 1: [a, 1 / a]})
        mu = MarkovMeasure.bernoulli(FULL2, [0.6, 0.4])
        w = sample_word(mu, 5000, 2)
        n = 5000
        s = sum(math.log(a) if w[i] else math.log(b) for i in range(n))
        assert exponent_along(c, w, n) == pytest.approx(abs(s) / n, abs=1e-10)

    def test_diagonal_closed_form_statistics(self):
        a, b = 2.0, 1.5
        c = MatrixCocycle.diagonal(FULL2, {0: [b, 1 / b], 1: [a, 1 / a]})
        p = 0.7
        mu = MarkovMeasure.bernoulli(FULL2, [1 - p, p])
        w = sample_word(mu, 10 ** 5, 3)
        expected = abs(p * math.log(a) + (1 - p) * math.log(b))
        assert exponent_along(c, w, 10 ** 5) == pytest.approx(expected, abs=0.01)

    def test_depth_two_cocycle(self):
        gens = {w.symbols: np.eye(2) * (1.0 + 0.1 * i)
                for i, w in enumerate(GOLDEN.words(2))}
        c = MatrixCocycle(GOLDEN, gens, depth=2)
        w = GOLDEN.word([0, 1, 0, 0, 1, 0])
        out = exponent_along(c, w, 5)
        assert math.isfinite(out)


class TestPeriodicExponent:
    def test_constant_matrix(self):
        A = np.array([[2.0, 1.0], [1.0, 1.0]])
        c = MatrixCocycle.constant(FULL2, A)
        rho = max(abs(np.linalg.eigvals(A)))
        for cycle in (Word("0"), Word("01"), Word("0011")):
            assert periodic_exponent(c, cycle) == pytest.approx(
                math.log(rho), abs=1e-12)

    def test_two_cycle_product_order(self):
        B = np.array([[1.0, 1.0], [0.0, 1.0]])
        C = np.array([[1.0, 0.0], [2.0, 1.0]])
        c = MatrixCocycle(FULL2, {(0,): B, (1,): C})
        rho = max(abs(np.linalg.eigvals(C @ B)))
        assert periodic_exponent(c, Word("01")) == pytest.approx(
            0.5 * math.log(rho), abs=1e-12)

    def test_submultiplicative_window_bound(self):
        rng = np.random.default_rng(4)
        c = MatrixCocycle(FULL2, {
            (0,): rng.normal(size=(2, 2)) + 2 * np.eye(2),
            (1,): rng.normal(size=(2, 2)) + 2 * np.eye(2),
        })
        mu = MarkovMeasure.bernoulli(FULL2, [0.5, 0.5])
        w = sample_word(mu, 400, 5)
        na, nb = 120, 280
        full = exponent_along(c, w, na + nb) * (na + nb)
        head = exponent_along(c, w, na) * na
        tail = exponent_along(c, Word(w.symbols[na:]), nb) * nb
        assert full <= head + tail + 1e-9


class TestExponentBracket:
    def test_constant_matrix_brackets_spectral_radius(self):
        A = np.array([[2.0, 1.0], [1.0, 1.0]])
        c = MatrixCocycle.constant(FULL2, A)
        lower, upper = exponent_bracket(c, FULL2, 12, 4)
        rho = math.log(max(abs(np.linalg.eigvals(A))))
        assert lower <= upper + 1e-12  # equality case, two float paths
        assert lower == pytest.approx(rho, abs=1e-9)
        cond = np.linalg.cond(A)
        assert upper <= rho + math.log(2 * cond) / 12 + 1e-9

    def test_commuting_diagonal_width(self):
        a, b = 2.0, 1.25
        c = MatrixCocycle.diagonal(FULL2, {0: [b, 1 / b], 1: [a, 1 / a]})
        n = 12
        lower, upper = exponent_bracket(c, FULL2, n, 4)
        assert lower <= upper
        # the pure-a word dominates; the bracket is tight for diagonals
        assert upper == pytest.approx(math.log(a), abs=1e-9)
        assert lower == pytest.approx(math.log(a), abs=1e-9)

    def test_random_cocycle_ordering(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            g0 = rng.normal(size=(2, 2))
            g1 = rng.normal(size=(2, 2))
            g0 += np.sign(np.linalg.det(g0)) * 1.5 * np.eye(2)
            g1 += np.sign(np.linalg.det(g1)) * 1.5 * np.eye(2)
            c = MatrixCocycle(FULL2, {(0,): g0, (1,): g1})
            lower, upper = exponent_bracket(c, FULL2, 12, 6)
            assert lower <= upper + 1e-12


class TestLyapunovFamily:
    def test_all_words_family_on_full_shift(self):
        c = MatrixCocycle(FULL2, {
            (0,): np.array([[1.2, 0.1], [0.0, 0.9]]),
            (1,): np.array([[0.7, 0.0], [0.2, 1.3]]),
        })
        mu = MarkovMeasure.bernoulli(FULL2, [0.5, 0.5])
        anchor = FULL2.word([0, 1, 0, 0])
        report = emit_lyapunov_family(c, FULL2, mu, anchor, N=8, seed=3,
                                      eta=0.1, tail_len=256)
        assert report.family_size == 2 ** 8
        assert report.family_size >= report.target_size
        for w in report.members:
            assert FULL2.is_admissible(w.symbols)
        # distinct words force separation at the prefix scale, exactly
        n_sep = report.prefix_len - 0  # gap-1 = 0 on the full shift
        assert separated_count(report.members, n_sep, 1) == 2 ** 8
        assert report.all_within_bound()

    def test_empty_anchor_glues_like_none_on_gap_two(self):
        c = MatrixCocycle(GOLDEN, {
            (0,): np.array([[1.2, 0.1], [0.0, 0.9]]),
            (1,): np.array([[0.7, 0.0], [0.2, 1.3]]),
        })
        mu = MarkovMeasure.periodic_orbit(GOLDEN, Word("01"))
        empty = emit_lyapunov_family(c, GOLDEN, mu, Word(()), N=4, seed=3,
                                     tail_len=64)
        none = emit_lyapunov_family(c, GOLDEN, mu, None, N=4, seed=3,
                                    tail_len=64)
        assert empty.prefix_len == none.prefix_len == 4 + 1
        assert empty.horizon == empty.prefix_len + 64
        assert {len(w) for w in empty.members} == {empty.horizon}
        assert empty.members == none.members
        assert empty.exponents == none.exponents

    def test_identity_cocycle_zero_exponents(self):
        c = MatrixCocycle.constant(FULL2, np.eye(3))
        mu = MarkovMeasure.bernoulli(FULL2, [0.5, 0.5])
        report = emit_lyapunov_family(c, FULL2, mu, None, N=4, seed=1,
                                      tail_len=64)
        assert all(abs(e) < 1e-12 for e in report.exponents)
        assert report.prefix_bound == 0.0

    def test_golden_mean_family_respects_transitions(self):
        c = MatrixCocycle(GOLDEN, {
            (0,): np.array([[1.5, 0.0], [0.0, 0.8]]),
            (1,): np.array([[0.9, 0.2], [0.0, 1.1]]),
        })
        phi = (1 + math.sqrt(5)) / 2
        parry = MarkovMeasure(GOLDEN, [[1 / phi, 1 / phi ** 2], [1.0, 0.0]])
        report = emit_lyapunov_family(c, GOLDEN, parry, GOLDEN.word([0, 1]),
                                      N=6, seed=7, tail_len=128)
        assert report.family_size == GOLDEN.count_words(6)
        for w in report.members:
            assert GOLDEN.is_admissible(w.symbols)
        assert report.all_within_bound()
