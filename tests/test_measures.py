import math

import numpy as np
import pytest

from sftlab.analysis import empirical
from sftlab.errors import (DepthExceedsEmpirical, ShortFamily, SftLabError,
                           StationaryNotUnique)
from sftlab.measures import (MarkovMeasure, MeasurePath, cylinder_weights,
                             interpolate, ks_entropy, refine_path,
                             sample_word, typical_separated_family,
                             weak_star_dist)
from sftlab.shift import SftSpace, Word, delta_separated

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

    def test_empirical_converges_to_source(self):
        mu = MarkovMeasure.bernoulli(FULL2, [0.5, 0.5])
        dists = []
        for n in (10 ** 3, 10 ** 4, 10 ** 5):
            w = sample_word(mu, n + 2, 42)
            dists.append(weak_star_dist(empirical(FULL2, w, n, 3), mu, 3))
        assert dists[2] < dists[0]
        assert dists[2] < 0.005


class TestSampling:
    def test_degenerate_bernoulli(self):
        mu = MarkovMeasure.bernoulli(FULL2, [1.0, 0.0])
        assert sample_word(mu, 8, 0) == Word("00000000")

    def test_two_cycle_alternates(self):
        mu = MarkovMeasure.periodic_orbit(FULL2, Word("01"))
        w = sample_word(mu, 9, 3)
        assert w.symbols in (tuple(Word("010101010")), tuple(Word("101010101")))

    def test_frequency_concentration(self):
        mu = MarkovMeasure.bernoulli(FULL2, [0.5, 0.5])
        w = sample_word(mu, 10 ** 5, 7)
        freq = sum(w.symbols) / len(w)
        assert abs(freq - 0.5) < 0.01

    def test_deterministic_in_seed(self):
        mu = MarkovMeasure.bernoulli(FULL2, [0.3, 0.7])
        assert sample_word(mu, 64, 5) == sample_word(mu, 64, 5)
        assert sample_word(mu, 64, 5) != sample_word(mu, 64, 6)

    def test_golden_mean_samples_admissible(self):
        mu = parry_measure(GOLDEN)
        w = sample_word(mu, 500, 11)
        assert GOLDEN.is_admissible(w.symbols)


class TestTypicalFamily:
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
        # exhaustive pairwise replay of the separation postcondition
        for i in range(len(fam)):
            for j in range(i + 1, len(fam)):
                assert delta_separated(fam[i], fam[j], n, delta)

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

    def test_batch_filter_matches_weak_star(self):
        from sftlab.measures import _batch_weak_star, sample_words_batch
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

    def test_json_round_trip(self):
        a = MarkovMeasure.bernoulli(FULL2, [0.9, 0.1])
        b = MarkovMeasure.bernoulli(FULL2, [0.1, 0.9])
        path = MeasurePath([a, b])
        again = MeasurePath.from_json(FULL2, path.to_json())
        assert np.allclose(again.checkpoints[1].stochastic, b.stochastic)
