"""Distributional-chaos statistics and finite-horizon DC1 / Li-Yorke
detection on orbit pairs.

All verdicts are finite-horizon and labelled "consistent"; nothing here
claims a proof of the corresponding limit statement.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import WordsTooShort
from .shift import Word, _symbols


Orbit = Union[Word, np.ndarray]  # a word or a 1-d symbol array

# A pair's orbit distances are the powers d_i = 2.0**-t_i of integer gaps
# t_i = (first disagreement at or after i) - i, so every threshold test is an
# integer comparison: d < thr exactly when t >= close_gap(thr).
ZERO_GAP = 1 << 62      # d = 0: equal lengths, no later disagreement
_NEVER = (1 << 63) - 1  # close_gap of a threshold no distance is below


def orbit_gaps(x: Orbit, y: Orbit, n: int) -> np.ndarray:
    """Integer gaps t with d(shift^i x, shift^i y) = 2.0**-t[i], 0 <= i < n.

    Past the last observed disagreement the finite-word convention holds:
    ZERO_GAP when the words have equal length, else the symbols remaining.
    x and y are words or symbol arrays (``Word.to_array``); the gaps of a
    prefix do not depend on n.
    """
    xs, ys = _symbols(x), _symbols(y)
    L = min(len(xs), len(ys))
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > L:
        raise WordsTooShort(f"need both words of length >= {n}")
    pos = np.flatnonzero(xs[:L] != ys[:L])
    nxt = np.append(pos, L)  # each position's next disagreement, else L
    nxt = np.repeat(nxt, np.diff(nxt, prepend=-1))[:n]
    t = nxt - np.arange(n)
    if len(xs) == len(ys):
        t[nxt == L] = ZERO_GAP
    return t


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


def orbit_distances(x: Orbit, y: Orbit, n: int) -> np.ndarray:
    """d(shift^i x, shift^i y) for 0 <= i < n on the available symbols: the
    float view of :func:`orbit_gaps`."""
    with np.errstate(under="ignore"):
        return np.power(2.0, -orbit_gaps(x, y, n).astype(float))


def _prefix(gaps: np.ndarray, n: int) -> np.ndarray:
    if n > len(gaps):
        raise WordsTooShort(f"need both words of length >= {n}")
    return gaps[:n]


def _checkpoints(checkpoints: Sequence[int], unique: bool) -> tuple[int, ...]:
    """The checkpoints sorted, repeats dropped when unique; all positive."""
    cps = [int(c) for c in checkpoints]
    cps = tuple(sorted(set(cps) if unique else cps))
    if not cps or cps[0] < 1:
        raise ValueError("checkpoints must be positive")
    return cps


def _phi_at(gaps: np.ndarray, thr: float, cps: Sequence[int]) -> list[float]:
    """The fraction of thr-close iterates among the first n, at each n of
    the sorted checkpoints: the close gaps counted between consecutive
    checkpoints, summed."""
    prefix, close = _prefix(gaps, cps[-1]), close_gap(thr)
    counts = itertools.accumulate(np.count_nonzero(prefix[a:b] >= close)
                                  for a, b in zip((0, *cps), cps))
    return [c / n for c, n in zip(counts, cps)]


def phi_from_gaps(gaps: np.ndarray, t: float, n: int) -> float:
    """:func:`phi_n` of the pair with the given gaps (at least n of them)."""
    if n < 1:
        raise ValueError("n must be positive")
    return _phi_at(gaps, t, (n,))[0]


def phi_n(x: Orbit, y: Orbit, t: float, n: int) -> float:
    """Fraction of the first n iterates at which the pair is t-close."""
    if n < 1:
        raise ValueError("n must be positive")
    return phi_from_gaps(orbit_gaps(x, y, n), t, n)


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
        return json.dumps({
            "t0": self.t0,
            "checkpoints": list(self.checkpoints),
            "phi_t0": list(self.phi_t0),
            "grid": list(self.grid),
            "phi_grid": {str(t): list(v) for t, v in self.phi_grid.items()},
            "verdict": self.verdict,
            "distal_consistent": self.distal_consistent,
        })


def dc1_report(x: Orbit, y: Orbit, t0: float, t_grid: Sequence[float],
               checkpoints: Sequence[int], tau_low: float = 0.05,
               tau_high: float = 0.05) -> Dc1Report:
    """Finite-horizon DC1 proxies: liminf Phi(t0) via the min over the
    checkpoints, limsup Phi*(t) via the max, thresholded by tau_low/tau_high."""
    cps = _checkpoints(checkpoints, unique=False)
    return dc1_from_gaps(orbit_gaps(x, y, cps[-1]), t0, t_grid, cps,
                         tau_low, tau_high)


def dc1_from_gaps(gaps: np.ndarray, t0: float, t_grid: Sequence[float],
                  checkpoints: Sequence[int], tau_low: float = 0.05,
                  tau_high: float = 0.05) -> Dc1Report:
    """:func:`dc1_report` of the pair with the given gaps."""
    cps = _checkpoints(checkpoints, unique=False)
    phi_t0 = tuple(_phi_at(gaps, t0, cps))
    grid = tuple(float(t) for t in t_grid)
    phi_grid = {t: tuple(_phi_at(gaps, t, cps)) for t in grid}
    min_phi_t0 = min(phi_t0)
    max_phi = {t: max(v) for t, v in phi_grid.items()}
    ok = min_phi_t0 <= tau_low and all(
        max_phi[t] >= 1.0 - tau_high for t in grid)
    return Dc1Report(
        t0=t0, checkpoints=cps, phi_t0=phi_t0, grid=grid, phi_grid=phi_grid,
        min_phi_t0=min_phi_t0, max_phi=max_phi, tau_low=tau_low,
        tau_high=tau_high,
        verdict="DC1-consistent" if ok else "not-DC1-consistent",
        distal_consistent=_distance(_prefix(gaps, cps[-1]).max()) > 2.0 ** -20,
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
        return json.dumps({
            "checkpoints": list(self.checkpoints),
            "running_min": list(self.running_min),
            "running_max": list(self.running_max),
            "segment_min": list(self.segment_min),
            "segment_max": list(self.segment_max),
            "verdict": self.verdict,
            "distal_consistent": self.distal_consistent,
        })


def li_yorke_report(x: Orbit, y: Orbit, checkpoints: Sequence[int],
                    prox_tol: float = 2.0 ** -10,
                    dist_tol: float = 2.0 ** -10) -> LiYorkeReport:
    """Running and per-segment min/max orbit distances.

    The liminf-0/limsup-positive pattern needs late windows to keep both
    approaching and separating, so the verdict reads the last segment: its
    min must sit below prox_tol while its max stays above dist_tol.
    Repeated checkpoints count once.
    """
    cps = _checkpoints(checkpoints, unique=True)
    return li_yorke_from_gaps(orbit_gaps(x, y, cps[-1]), cps, prox_tol,
                              dist_tol)


def li_yorke_from_gaps(gaps: np.ndarray, checkpoints: Sequence[int],
                       prox_tol: float = 2.0 ** -10,
                       dist_tol: float = 2.0 ** -10) -> LiYorkeReport:
    """:func:`li_yorke_report` of the pair with the given gaps.  A window's
    min distance is that of its largest gap, its max that of its smallest."""
    cps = _checkpoints(checkpoints, unique=True)
    head = _prefix(gaps, cps[-1])
    starts = (0, *cps[:-1])
    seg_hi = np.maximum.reduceat(head, starts)
    seg_lo = np.minimum.reduceat(head, starts)

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
