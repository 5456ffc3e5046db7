import numpy as np

from sftlab.chaos import (dc1_report, li_yorke_report, orbit_distances,
                          phi_n)
from sftlab.shift import SftSpace, Word, dist

FULL2 = SftSpace.full_shift(2)


class TestOrbitDistances:
    def test_matches_pairwise_dist(self):
        rng = np.random.default_rng(1)
        x = Word(rng.integers(0, 2, 40).tolist())
        y = Word(rng.integers(0, 2, 40).tolist())
        d = orbit_distances(x, y, 30)
        for i in range(30):
            assert d[i] == dist(x[i:], y[i:])

    def test_identical_words_zero(self):
        w = Word("0110100110")
        assert (orbit_distances(w, w, 10) == 0.0).all()


class TestPhi:
    def test_identical_is_one(self):
        w = Word("01101001")
        for t in (0.01, 0.5, 2.0):
            assert phi_n(w, w, t, 8) == 1.0

    def test_antipodal_is_zero_at_half(self):
        x, y = Word("0" * 50), Word("1" * 50)
        assert phi_n(x, y, 0.5, 50) == 0.0

    def test_monotone_in_t(self):
        rng = np.random.default_rng(2)
        x = Word(rng.integers(0, 2, 60).tolist())
        y = Word(rng.integers(0, 2, 60).tolist())
        grid = [2.0 ** -k for k in range(6, -2, -1)]
        vals = [phi_n(x, y, t, 50) for t in grid]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_one_beyond_diameter(self):
        rng = np.random.default_rng(3)
        x = Word(rng.integers(0, 2, 30).tolist())
        y = Word(rng.integers(0, 2, 30).tolist())
        assert phi_n(x, y, 1.001, 30) == 1.0

    def test_symmetric(self):
        rng = np.random.default_rng(4)
        x = Word(rng.integers(0, 2, 30).tolist())
        y = Word(rng.integers(0, 2, 30).tolist())
        assert phi_n(x, y, 0.25, 25) == phi_n(y, x, 0.25, 25)


class TestDc1Report:
    def test_identical_pair_not_dc1(self):
        w = Word("0110" * 30)
        rep = dc1_report(w, w, t0=0.25, t_grid=[0.5, 0.25],
                         checkpoints=[30, 60, 100])
        assert not rep.consistent  # Phi(t0) = 1 everywhere

    def test_disjoint_periodic_orbits_distal(self):
        x, y = Word("0" * 120), Word("1" * 120)
        rep = dc1_report(x, y, t0=0.5, t_grid=[0.25, 0.5],
                         checkpoints=[40, 80, 120])
        assert not rep.consistent  # Phi*(small t) stays 0
        assert rep.distal_consistent

    def test_engineered_dc1_like_pair(self):
        # long agreeing runs (density -> 1) with rare full-mismatch bursts
        xs, ys = [], []
        block = 1
        while len(xs) < 4000:
            xs += [0] * block + [0] * 10
            ys += [0] * block + [1] * 10
            block *= 4
        x, y = Word(xs[:4000]), Word(ys[:4000])
        rep = dc1_report(x, y, t0=0.5, t_grid=[0.5, 0.25],
                         checkpoints=[10, 2100, 4000])
        assert rep.min_phi_t0 <= 0.05 or not rep.consistent


class TestLiYorkeReport:
    def test_identical_pair(self):
        w = Word("0101" * 30)
        rep = li_yorke_report(w, w, checkpoints=[40, 80, 120])
        assert not rep.consistent
        assert rep.running_max[-1] == 0.0

    def test_preimage_pair_no_alternation(self):
        # two preimages of the same fixed orbit: distal early, identical late
        x = Word("0110" + "1" * 200)
        y = Word("1001" + "1" * 200)
        rep = li_yorke_report(x, y, checkpoints=[50, 120, 200])
        assert not rep.consistent  # late segments never separate again
        assert rep.segment_max[-1] == 0.0
        assert rep.running_max[-1] == 1.0

    def test_alternating_pair_consistent(self):
        # keeps returning close then far inside every window
        xs, ys = [], []
        for _ in range(20):
            xs += [0] * 40 + [0] * 5
            ys += [0] * 40 + [1] * 5
        x, y = Word(xs), Word(ys)
        rep = li_yorke_report(x, y, checkpoints=[225, 450, 900])
        assert rep.consistent

    def test_repeated_checkpoint_counts_once(self):
        x, y = Word("01010101"), Word("01100110")
        rep = li_yorke_report(x, y, checkpoints=[5, 5, 8])
        assert rep.checkpoints == (5, 8)
        assert rep == li_yorke_report(x, y, checkpoints=[5, 8])
