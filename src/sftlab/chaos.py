"""Distributional-chaos statistics and finite-horizon DC1 / Li-Yorke
detection on orbit pairs.

Every statistic is an integer gap statistic over windows between cut
positions, which :func:`gap_windows` reduces a chunk of symbols at a time,
walking from the end and carrying each pair's next disagreement, so a pair
of long orbits is scored without an array of their length.  The reports on
two whole orbits are its one-chunk case.

All verdicts are finite-horizon and labelled "consistent"; nothing here
claims a proof of the corresponding limit statement.
"""
from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import WordsTooShort
from .shift import Word, _symbols


Orbit = Union[Word, np.ndarray]  # a word or a 1-d symbol array

# A pair's orbit distances are the powers d_i = 2.0**-t_i of integer gaps
# t_i = (first disagreement at or after i) - i, so every threshold test is an
# integer comparison: d < thr exactly when t >= close_gap(thr).  Past the
# last disagreement the finite-word convention holds: ZERO_GAP (d = 0) when
# the orbits have equal length, else the symbols remaining.
ZERO_GAP = 1 << 62
_NEVER = (1 << 63) - 1  # close_gap of a threshold no distance is below
CHUNK = 1 << 15  # symbols per member gap_windows reads at once


def close_gap(thr: float) -> int:
    """The smallest k >= 0 with 2.0**-k < thr, so d < thr iff t >= k."""
    if not thr > 0:
        return _NEVER
    if thr > 1:
        return 0
    mant, e = math.frexp(thr)   # thr = mant * 2**e, 0.5 <= mant < 1
    return 2 - e if mant == 0.5 else 1 - e


def _distance(t: int) -> float:
    """The distance 2.0**-t of one gap (0.0 for ZERO_GAP)."""
    return math.ldexp(1.0, -int(t))


def _checkpoints(checkpoints: Sequence[int], unique: bool) -> tuple[int, ...]:
    """The checkpoints sorted, repeats dropped when unique; all positive."""
    cps = [int(c) for c in checkpoints]
    cps = tuple(sorted(set(cps) if unique else cps))
    if not cps or cps[0] < 1:
        raise ValueError("checkpoints must be positive")
    return cps


@dataclass(frozen=True)
class GapWindows:
    """One pair's gaps reduced per window [cuts[w-1], cuts[w]), the first
    from 0: the least gap, the largest, and for each k of ks the count of
    gaps >= k (the iterates closer than any thr with close_gap(thr) = k)."""
    cuts: tuple[int, ...]
    ks: tuple[int, ...]
    low: np.ndarray     # (windows,)
    high: np.ndarray    # (windows,)
    close: np.ndarray   # (len(ks), windows)

    def _after(self, n: int) -> int:
        """The number of windows in [0, n), n a cut."""
        w = bisect.bisect_left(self.cuts, n)
        if w == len(self.cuts) or self.cuts[w] != n:
            raise ValueError(f"{n} is not a cut of {self.cuts}")
        return w + 1

    def counts(self, k: int, ns: Sequence[int]) -> list[int]:
        """The count of gaps >= k among the first n, at each cut n of ns."""
        run = np.cumsum(self.close[self.ks.index(k)]).tolist()
        return [run[self._after(n) - 1] for n in ns]

    def extremes(self, cps: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """The least and the largest gap in each window between consecutive
        cuts of the increasing cps, the first from 0."""
        ends = [self._after(n) for n in cps]
        starts = [0, *ends[:-1]]
        return (np.minimum.reduceat(self.low[:ends[-1]], starts),
                np.maximum.reduceat(self.high[:ends[-1]], starts))


def gap_windows(rows_at: Callable[[int, int], Sequence[np.ndarray]],
                length: int, pairs: Sequence[tuple[int, int]],
                cuts: Sequence[int], ks: Sequence[int], equal: bool = True,
                chunk: int = CHUNK) -> list[GapWindows]:
    """The :class:`GapWindows` of each pair (i, j) of members, whose
    symbols [lo, hi) of [0, length) are rows_at(lo, hi)[i] and [j]; past
    the pair's last disagreement the gaps are ZERO_GAP when equal, else
    the symbols remaining before length.

    The chunks [lo, lo + chunk) are read from the end, and each pair
    carries its next disagreement from the chunks after.  Inside a chunk
    the disagreements and the cuts split the gaps into runs t = nxt - i
    that share their next disagreement nxt, and each run is reduced in
    closed form, so the work beyond comparing symbols is one step per
    disagreement and cut.  WordsTooShort unless every cut is at most
    length.
    """
    cuts = _checkpoints(cuts, unique=True)
    n = cuts[-1]
    if n > length:
        raise WordsTooShort(f"need both words of length >= {n}")
    if chunk < 1:
        raise ValueError(f"chunk must be positive, got {chunk}")
    cut_at = np.array(cuts, dtype=np.int64)
    k_col = np.array(ks, dtype=np.int64).reshape(-1, 1)
    low = np.full((len(pairs), len(cuts)), _NEVER, dtype=np.int64)
    high = np.full_like(low, -1)
    close = np.zeros((len(pairs), len(ks), len(cuts)), dtype=np.int64)
    nxt = [length] * len(pairs)  # no disagreement after the chunk yet
    for lo in range((length - 1) // chunk * chunk, -1, -chunk):
        hi = min(lo + chunk, length)
        rows = rows_at(lo, hi)
        stop = min(hi, n)  # the gaps of [lo, stop) are reduced
        inner = cut_at[(cut_at > lo) & (cut_at < stop)] - 1
        for p, (i, j) in enumerate(pairs):
            at = np.flatnonzero(rows[i] != rows[j]) + lo
            if lo < stop:
                _fold(*_runs(at, nxt[p], lo, stop, inner), cut_at, k_col,
                      length if equal else None, low[p], high[p], close[p])
            if len(at):
                nxt[p] = int(at[0])
    return [GapWindows(cuts, tuple(int(k) for k in ks), *stats)
            for stats in zip(low, high, close)]


def _runs(at: np.ndarray, after: int, lo: int, stop: int,
          inner: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The runs [start, end] that split [lo, stop) after each disagreement
    of the chunk (at) and before each window start (inner + 1), and each
    run's next disagreement, after when the chunk has none at or past it."""
    ends = np.concatenate([at[at < stop], inner, [stop - 1]])
    ends.sort()
    ends = ends[np.diff(ends, prepend=lo - 1) > 0]
    return (np.append(lo, ends[:-1] + 1), ends,
            np.append(at, after)[at.searchsorted(ends)])


def _fold(starts: np.ndarray, ends: np.ndarray, nxt: np.ndarray,
          cuts: np.ndarray, k_col: np.ndarray, zero_at, low: np.ndarray,
          high: np.ndarray, close: np.ndarray) -> None:
    """Reduce runs into the window stats: run [start, end] has the gaps
    nxt - i, or ZERO_GAP throughout where nxt is zero_at (the length of
    equal orbits)."""
    small, big = nxt - ends, nxt - starts
    count = np.maximum(np.minimum(ends, nxt - k_col) - starts + 1, 0)
    if zero_at is not None:
        zero = nxt == zero_at
        small[zero] = big[zero] = ZERO_GAP
        count[:, zero] = (ends - starts + 1)[zero] * (k_col <= ZERO_GAP)
    w = cuts.searchsorted(ends, "right")
    first = np.flatnonzero(np.diff(w, prepend=-1))
    at = w[first]
    low[at] = np.minimum(low[at], np.minimum.reduceat(small, first))
    high[at] = np.maximum(high[at], np.maximum.reduceat(big, first))
    close[:, at] += np.add.reduceat(count, first, axis=1)


def _pair(x: Orbit, y: Orbit, cuts: Sequence[int],
          ks: Sequence[int]) -> GapWindows:
    """:func:`gap_windows` of two whole orbits, as one chunk."""
    xs, ys = _symbols(x), _symbols(y)
    L = min(len(xs), len(ys))
    return gap_windows(lambda lo, hi: (xs[lo:hi], ys[lo:hi]), L, [(0, 1)],
                       cuts, ks, len(xs) == len(ys), max(L, 1))[0]


def _phi_at(w: GapWindows, thr: float, cps: Sequence[int]) -> list[float]:
    """The fraction of thr-close iterates among the first n, at each n of
    the checkpoints."""
    return [c / n for c, n in zip(w.counts(close_gap(thr), cps), cps)]


def phi_n(x: Orbit, y: Orbit, t: float, n: int) -> float:
    """Fraction of the first n iterates at which the pair is t-close."""
    if n < 1:
        raise ValueError("n must be positive")
    return _phi_at(_pair(x, y, [n], [close_gap(t)]), t, [n])[0]


# --------------------------- DC1 ---------------------------


@dataclass(frozen=True)
class Dc1Report:
    t0: float
    checkpoints: tuple[int, ...]
    phi_t0: tuple[float, ...]          # proximal-scale trajectory, per checkpoint
    grid: tuple[float, ...]
    phi_grid: dict                     # t -> per-checkpoint trajectory
    min_phi_t0: float
    max_phi: dict                      # t -> max over checkpoints
    tau_low: float
    tau_high: float
    verdict: str
    distal_consistent: bool

    @property
    def consistent(self) -> bool:
        return self.verdict == "DC1-consistent"

    def to_json(self) -> str:
        return json.dumps(vars(self))


def dc1_report(x: Orbit, y: Orbit, t0: float, t_grid: Sequence[float],
               checkpoints: Sequence[int], tau_low: float = 0.05,
               tau_high: float = 0.05) -> Dc1Report:
    """Finite-horizon DC1 proxies: liminf Phi(t0) via the min over the
    checkpoints, limsup Phi*(t) via the max, thresholded by tau_low/tau_high."""
    ks = [close_gap(t) for t in (t0, *t_grid)]
    return dc1_from_windows(_pair(x, y, checkpoints, ks), t0, t_grid,
                            checkpoints, tau_low, tau_high)


def dc1_from_windows(w: GapWindows, t0: float, t_grid: Sequence[float],
                     checkpoints: Sequence[int], tau_low: float = 0.05,
                     tau_high: float = 0.05) -> Dc1Report:
    """:func:`dc1_report` of the pair with the given window stats, whose
    cuts hold the checkpoints and whose ks the close gaps of t0 and the
    grid."""
    cps = _checkpoints(checkpoints, unique=False)
    phi_t0 = tuple(_phi_at(w, t0, cps))
    grid = tuple(float(t) for t in t_grid)
    phi_grid = {t: tuple(_phi_at(w, t, cps)) for t in grid}
    min_phi_t0 = min(phi_t0)
    max_phi = {t: max(v) for t, v in phi_grid.items()}
    ok = min_phi_t0 <= tau_low and all(
        max_phi[t] >= 1.0 - tau_high for t in grid)
    return Dc1Report(
        t0=t0, checkpoints=cps, phi_t0=phi_t0, grid=grid, phi_grid=phi_grid,
        min_phi_t0=min_phi_t0, max_phi=max_phi, tau_low=tau_low,
        tau_high=tau_high,
        verdict="DC1-consistent" if ok else "not-DC1-consistent",
        distal_consistent=_distance(w.extremes(cps[-1:])[1][0]) > 2.0 ** -20,
    )


# --------------------------- Li-Yorke ---------------------------


@dataclass(frozen=True)
class LiYorkeReport:
    checkpoints: tuple[int, ...]
    running_min: tuple[float, ...]
    running_max: tuple[float, ...]
    segment_min: tuple[float, ...]     # min/max inside each inter-checkpoint window
    segment_max: tuple[float, ...]
    prox_tol: float
    dist_tol: float
    verdict: str
    distal_consistent: bool

    @property
    def consistent(self) -> bool:
        return self.verdict == "LiYorke-consistent"

    def to_json(self) -> str:
        return json.dumps(vars(self))


def li_yorke_report(x: Orbit, y: Orbit, checkpoints: Sequence[int],
                    prox_tol: float = 2.0 ** -10,
                    dist_tol: float = 2.0 ** -10) -> LiYorkeReport:
    """Running and per-segment min/max orbit distances.

    The liminf-0/limsup-positive pattern needs late windows to keep both
    approaching and separating, so the verdict reads the last segment: its
    min must sit below prox_tol while its max stays above dist_tol.
    Repeated checkpoints count once.
    """
    return li_yorke_from_windows(_pair(x, y, checkpoints, ()), checkpoints,
                                 prox_tol, dist_tol)


def li_yorke_from_windows(w: GapWindows, checkpoints: Sequence[int],
                          prox_tol: float = 2.0 ** -10,
                          dist_tol: float = 2.0 ** -10) -> LiYorkeReport:
    """:func:`li_yorke_report` of the pair with the given window stats,
    whose cuts hold the checkpoints.  A segment's min distance is that of
    its largest gap, its max that of its smallest."""
    cps = _checkpoints(checkpoints, unique=True)
    seg_lo, seg_hi = w.extremes(cps)

    def dists(a: np.ndarray) -> tuple[float, ...]:
        return tuple(_distance(t) for t in a.tolist())

    running_min = dists(np.maximum.accumulate(seg_hi))
    seg_min, seg_max = dists(seg_hi), dists(seg_lo)
    ok = seg_min[-1] <= prox_tol and seg_max[-1] >= dist_tol
    return LiYorkeReport(
        checkpoints=cps,
        running_min=running_min,
        running_max=dists(np.minimum.accumulate(seg_lo)),
        segment_min=seg_min,
        segment_max=seg_max,
        prox_tol=prox_tol,
        dist_tol=dist_tol,
        verdict="LiYorke-consistent" if ok else "not-LiYorke-consistent",
        distal_consistent=running_min[-1] > prox_tol,
    )
