import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sftlab.chaos import (ZERO_GAP, Dc1Report, LiYorkeReport, close_gap,
                          dc1_from_windows, dc1_report, gap_windows,
                          li_yorke_from_windows, li_yorke_report, phi_n)
from sftlab import gluing
from sftlab.errors import InfeasibleParams, WordsTooShort
from sftlab.experiments import run_experiment
from sftlab.shift import SftSpace, Word, dist

from chaos_oracles import (dc1_from_gaps, float_orbit_distances,
                           li_yorke_from_gaps, orbit_gaps, phi_from_gaps)

FULL2 = SftSpace.full_shift(2)


class TestOrbitDistances:
    """The float distance oracle that the separation checks read."""

    def test_matches_pairwise_dist(self):
        rng = np.random.default_rng(1)
        x = Word(rng.integers(0, 2, 40).tolist())
        y = Word(rng.integers(0, 2, 40).tolist())
        d = float_orbit_distances(x, y, 30)
        for i in range(30):
            assert d[i] == dist(x[i:], y[i:])

    def test_identical_words_zero(self):
        w = Word("0110100110")
        assert (float_orbit_distances(w, w, 10) == 0.0).all()


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


# ---------------- float oracles: the distance pipeline before the gap core


def float_phi_n(x, y, t, n):
    return float((float_orbit_distances(x, y, n) < t).mean())


def float_dc1_report(x, y, t0, t_grid, checkpoints, tau_low=0.05,
                     tau_high=0.05):
    cps = tuple(sorted(int(c) for c in checkpoints))
    d = float_orbit_distances(x, y, cps[-1])
    phi_t0 = tuple(float((d[:n] < t0).mean()) for n in cps)
    grid = tuple(float(t) for t in t_grid)
    phi_grid = {t: tuple(float((d[:n] < t).mean()) for n in cps) for t in grid}
    max_phi = {t: max(v) for t, v in phi_grid.items()}
    ok = min(phi_t0) <= tau_low and all(
        max_phi[t] >= 1.0 - tau_high for t in grid)
    return Dc1Report(
        t0=t0, checkpoints=cps, phi_t0=phi_t0, grid=grid, phi_grid=phi_grid,
        min_phi_t0=min(phi_t0), max_phi=max_phi, tau_low=tau_low,
        tau_high=tau_high,
        verdict="DC1-consistent" if ok else "not-DC1-consistent",
        distal_consistent=bool(d.min() > 2.0 ** -20))


def float_li_yorke_report(x, y, checkpoints, prox_tol=2.0 ** -10,
                          dist_tol=2.0 ** -10):
    cps = tuple(sorted({int(c) for c in checkpoints}))
    d = float_orbit_distances(x, y, cps[-1])
    rmin, rmax, smin, smax = [], [], [], []
    prev = 0
    for n in cps:
        rmin.append(float(d[:n].min()))
        rmax.append(float(d[:n].max()))
        smin.append(float(d[prev:n].min()))
        smax.append(float(d[prev:n].max()))
        prev = n
    ok = smin[-1] <= prox_tol and smax[-1] >= dist_tol
    return LiYorkeReport(
        checkpoints=cps, running_min=tuple(rmin), running_max=tuple(rmax),
        segment_min=tuple(smin), segment_max=tuple(smax), prox_tol=prox_tol,
        dist_tol=dist_tol,
        verdict="LiYorke-consistent" if ok else "not-LiYorke-consistent",
        distal_consistent=bool(d.min() > prox_tol))


EPS_STAR = 2.0 ** -3 / 3  # not a power of two, as eps_star usually is not
THRESHOLDS = [EPS_STAR / 2, EPS_STAR, 0.3, 0.5, 1.0, 1.001, 2.0 ** -10,
              math.nextafter(2.0 ** -10, 0), math.nextafter(2.0 ** -10, 1),
              2.0 ** -1074, 2.0 ** -1073 * 0.75, 0.0, -1.0]


@st.composite
def word_pairs(draw):
    """Pairs that mostly agree, so gaps run long: a few disagreements,
    sometimes more than 1,075 symbols apart, where 2.0**-t underflows; the
    second word may be cut shorter or run longer."""
    m = draw(st.integers(2, 3))
    L = draw(st.sampled_from([1, 2, 5, 40, 1100]))
    x = [draw(st.integers(0, m - 1)) for _ in range(min(L, 8))]
    x += [0] * (L - len(x))
    y = list(x)
    for i in draw(st.lists(st.integers(0, L - 1), max_size=4)):
        y[i] = (y[i] + 1) % m
    cut = draw(st.sampled_from([0, 0, 1, 3, -2]))
    y = y[:L - cut] if cut > 0 else y + [1] * -cut
    if L - cut < 1:
        y = x[:1]
    return Word(x), Word(y)


class TestGapCoreOracles:
    @settings(max_examples=150, deadline=None)
    @given(word_pairs(), st.data())
    def test_distances_phi_and_reports(self, pair, data):
        x, y = pair
        L = min(len(x), len(y))
        n = data.draw(st.integers(1, L))
        gaps = orbit_gaps(x, y, L)
        assert [math.ldexp(1.0, -int(t)) for t in gaps[:n]] == \
            float_orbit_distances(x, y, n).tolist()
        cps = data.draw(st.lists(st.integers(1, L), min_size=1, max_size=4))
        for thr in THRESHOLDS:
            assert phi_n(x, y, thr, n) == float_phi_n(x, y, thr, n)
            assert phi_from_gaps(gaps, thr, n) == float_phi_n(x, y, thr, n)
        t_grid = data.draw(st.lists(st.sampled_from(THRESHOLDS), max_size=3))
        t0 = data.draw(st.sampled_from(THRESHOLDS))
        assert dc1_report(x, y, t0, t_grid, cps) == \
            float_dc1_report(x, y, t0, t_grid, cps)
        assert dc1_from_gaps(gaps, t0, t_grid, cps) == \
            float_dc1_report(x, y, t0, t_grid, cps)
        tols = data.draw(st.tuples(st.sampled_from(THRESHOLDS),
                                   st.sampled_from(THRESHOLDS)))
        assert li_yorke_report(x, y, cps, *tols) == \
            float_li_yorke_report(x, y, cps, *tols)
        assert li_yorke_from_gaps(gaps, cps, *tols) == \
            float_li_yorke_report(x, y, cps, *tols)

    def test_close_gap_is_smallest_strict_power(self):
        for thr in THRESHOLDS + [2.0 ** -k for k in range(-3, 1080)]:
            k = close_gap(thr)
            below = [j for j in range(0, 1200) if 2.0 ** -j < thr]
            assert k == (below[0] if below else close_gap(0.0))

    def test_zero_gap_only_for_equal_lengths(self):
        w = Word("0110")
        assert orbit_gaps(w, w, 4).tolist() == [ZERO_GAP] * 4
        assert orbit_gaps(w, w + Word("1"), 4).tolist() == [4, 3, 2, 1]
        for y, gaps in ((w, [ZERO_GAP] * 4), (w + Word("1"), [4, 3, 2, 1])):
            stats = window_stats(w, y, [1, 2, 3, 4], [])
            assert stats.low.tolist() == stats.high.tolist() == gaps

    def test_short_gaps_named(self):
        x, y = Word("0101"), Word("0110")
        with pytest.raises(WordsTooShort):
            phi_n(x, y, 0.5, 5)
        with pytest.raises(WordsTooShort):
            li_yorke_report(x, y, [2, 5])
        with pytest.raises(WordsTooShort):
            dc1_report(x, y, 0.5, [0.25], [5])
        with pytest.raises(WordsTooShort, match="length >= 5"):
            window_stats(x, y, [5], [], chunk=2)


def window_stats(x, y, cuts, ks, chunk=None):
    """gap_windows of two orbits, read chunk symbols at a time (all at
    once by default)."""
    xs, ys = Word(x).to_array(), Word(y).to_array()
    L = min(len(xs), len(ys))
    return gap_windows(lambda lo, hi: (xs[lo:hi], ys[lo:hi]), L, [(0, 1)],
                       cuts, ks, len(xs) == len(ys), chunk or max(L, 1))[0]


def oracle_windows(gaps, cuts, ks):
    """Per window between the sorted cuts: min, max and the counts >= k,
    sliced off the whole gap array."""
    bounds = list(zip((0, *cuts), cuts))
    return ([int(gaps[a:b].min()) for a, b in bounds],
            [int(gaps[a:b].max()) for a, b in bounds],
            [[int((gaps[a:b] >= k).sum()) for a, b in bounds] for k in ks])


KS = [0, 1, 2, 3, 7, 40, 1075, ZERO_GAP, ZERO_GAP + 1, close_gap(0.0)]


class TestChunkedGapWindows:
    """gap_windows, which reads the pair a chunk at a time from the end,
    equals the whole gap array sliced per window, at every chunk size."""

    @settings(max_examples=200, deadline=None)
    @given(word_pairs(), st.data())
    def test_equals_the_whole_gap_array(self, pair, data):
        x, y = pair
        L = min(len(x), len(y))
        chunk = data.draw(st.one_of(st.integers(1, 8),
                                    st.sampled_from([L, L + 5, 1 << 15])))
        # cuts on chunk edges, beside them and anywhere
        edges = [c for e in range(chunk, L + 1, chunk)
                 for c in (e - 1, e, e + 1) if 1 <= c <= L]
        cuts = sorted(set(data.draw(st.lists(
            st.sampled_from(edges) if edges and data.draw(st.booleans())
            else st.integers(1, L), min_size=1, max_size=5))))
        ks = data.draw(st.lists(st.sampled_from(KS), max_size=3))
        got = window_stats(x, y, cuts, ks, chunk)
        want = oracle_windows(orbit_gaps(x, y, cuts[-1]), cuts, ks)
        assert got.cuts == tuple(cuts) and got.ks == tuple(ks)
        assert (got.low.tolist(), got.high.tolist(), got.close.tolist()) \
            == want

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 5), st.integers(1, 300), st.integers(1, 40),
           st.integers(0, 2 ** 32))
    def test_every_pair_of_a_member_array(self, members, n, chunk, seed):
        # members that share most symbols, read as windows of one 2-d array
        rng = np.random.default_rng(seed)
        rows = np.zeros((members, n), dtype=np.uint8)
        flips = rng.integers(0, n, size=(members, 3))
        rows[np.arange(members)[:, None], flips] = 1
        pairs = [(i, j) for i in range(members) for j in range(members)
                 if i != j]
        cuts = sorted({n, *rng.integers(1, n + 1, 3).tolist()})
        got = gap_windows(lambda lo, hi: rows[:, lo:hi], n, pairs, cuts,
                          [0, 2, 5], chunk=chunk)
        for (i, j), stats in zip(pairs, got):
            want = oracle_windows(orbit_gaps(rows[i], rows[j], n), cuts,
                                  [0, 2, 5])
            assert (stats.low.tolist(), stats.high.tolist(),
                    stats.close.tolist()) == want

    def test_reports_read_coarser_windows(self):
        x = Word("0" * 50 + "01" * 25)
        y = Word("0" * 49 + "1" + "10" * 25)
        stats = window_stats(x, y, [10, 30, 60, 100], [close_gap(0.3)],
                             chunk=7)
        gaps = orbit_gaps(x, y, 100)
        assert stats.counts(close_gap(0.3), [30, 100, 30]) == [
            int((gaps[:n] >= close_gap(0.3)).sum()) for n in (30, 100, 30)]
        low, high = stats.extremes([30, 100])
        assert low.tolist() == [gaps[:30].min(), gaps[30:].min()]
        assert high.tolist() == [gaps[:30].max(), gaps[30:].max()]
        assert li_yorke_from_windows(stats, [30, 100]) == \
            li_yorke_from_gaps(gaps, [30, 100])
        assert dc1_from_windows(stats, 0.3, [0.3], [30, 100, 30]) == \
            dc1_from_gaps(gaps, 0.3, [0.3], [30, 100, 30])
        with pytest.raises(ValueError, match="50 is not a cut"):
            stats.extremes([50])


class TestChaosExperimentParams:
    """thm1_5_chaos draws distinct 10-bit xi sequences, of which there are
    1,024, and checks pairs of members."""

    def _timeout(self, *_):
        raise AssertionError("thm1_5_chaos did not raise at once")

    @pytest.mark.parametrize("n_xi", [0, 1, 1025])
    def test_n_xi_outside_range_raises_before_any_family(self, n_xi,
                                                         monkeypatch):
        # 1025 used to loop forever looking for a 1,025th sequence; 0 and 1
        # passed with no pair checked
        monkeypatch.setattr(gluing, "emit_chaotic_family", self._timeout)
        previous = signal.signal(signal.SIGALRM, self._timeout)
        signal.alarm(5)
        try:
            with pytest.raises(InfeasibleParams,
                               match=rf"n_xi must lie in \[2, 1024\], got "
                                     rf"{n_xi}$"):
                run_experiment("thm1_5_chaos", 7, {"n_xi": n_xi})
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_two_sequences_check_one_pair(self):
        got = run_experiment("thm1_5_chaos", 7, {"n_xi": 2})
        assert got.passed and got.details["pairs"] == 1
