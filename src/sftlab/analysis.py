"""Orbit-side diagnostics: Birkhoff averages, local entropy estimates from
exact cylinder masses, recurrence-time statistics and growth-rate
estimation."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import Degenerate, NotRecurrent, WordsTooShort, ZeroCylinder
from .measures import MarkovMeasure
from .shift import Word, _symbols, word_columns


def birkhoff_avg(x: Union[Word, np.ndarray], f, n: int) -> float:
    """Average of the depth-r potential f over the first n windows of a word
    or symbol array, summed left to right; ValueError names a forbidden
    window."""
    if n < 1:
        raise ValueError("n must be positive")
    r = f.r
    if len(x) < n + r - 1:
        raise WordsTooShort(f"need length >= {n + r - 1}, got {len(x)}")
    windows = sliding_window_view(_symbols(x)[:n + r - 1], r)
    return sum(f.values[word_columns(f.space, windows)].tolist()) / n


def brin_katok_estimate(mu: MarkovMeasure, x: Union[Word, np.ndarray], n: int,
                        k: int) -> float:
    """-(1/n) log mu(B_n(x, 2**-k)), x a word or 1-d symbol array: on a
    shift the Bowen ball is the (n+k-1)-cylinder of x, whose mass is
    available analytically."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    L = n + k - 1
    if len(x) < L:
        raise WordsTooShort(f"need length >= {L}, got {len(x)}")
    if L == 0:
        return 0.0
    # log-space cylinder mass: the plain product underflows for long windows
    s = _symbols(x)[:L].tolist()
    p0 = mu.stationary[s[0]]
    if p0 <= 0.0:
        raise ZeroCylinder(f"symbol {s[0]} has zero stationary mass")
    logp = math.log(p0)
    for a, b in zip(s[: L - 1], s[1:L]):
        q = mu.stochastic[a, b]
        if q <= 0.0:
            raise ZeroCylinder(f"transition {a}->{b} has zero mass")
        logp += math.log(q)
    return -logp / n


def recurrence_ratios(x: Union[Word, np.ndarray],
                      target: Word) -> list[tuple[int, float]]:
    """Return times of a word or symbol array into the target cylinder and
    consecutive ratios.

    Output pairs are (t_i, t_{i+1}/t_i) over consecutive visits with t_i > 0;
    a visit at time 0 contributes no ratio.
    """
    tlen = len(target)
    if tlen < 1:
        raise ValueError("target cylinder must be nonempty")
    xs = _symbols(x)
    times = [] if len(xs) < tlen else np.flatnonzero(
        (sliding_window_view(xs, tlen) == target.to_array()).all(axis=1)
    ).tolist()
    if len(times) < 2:
        raise NotRecurrent(
            f"cylinder {target.to_text()!r} visited {len(times)} time(s)")
    return [(a, b / a) for a, b in zip(times, times[1:]) if a > 0]


@dataclass(frozen=True)
class GrowthRate:
    slope: float
    intercept: float
    stderr: float
    band: tuple[float, float]
    residual: float
    suffix_max_slope: float


def growth_rate(counts: Sequence[tuple[int, float]]) -> GrowthRate:
    """Least-squares slope of log s_i against n_i with a 95% band.

    ``suffix_max_slope`` reports the largest slope over trailing subsets,
    a finite-scale stand-in for the limsup in the capacity definition.
    """
    pts = [(int(n), float(s)) for n, s in counts]
    if len(pts) < 3:
        raise Degenerate("need at least 3 points")
    if any(s < 1 for _, s in pts):
        raise Degenerate("counts must be >= 1")
    ns = np.array([n for n, _ in pts], dtype=float)
    ys = np.log(np.array([s for _, s in pts], dtype=float))
    if np.allclose(ns, ns[0]):
        raise Degenerate("all n_i equal")

    def _ols(nv, yv):
        nbar, ybar = nv.mean(), yv.mean()
        sxx = ((nv - nbar) ** 2).sum()
        slope = ((nv - nbar) * (yv - ybar)).sum() / sxx
        intercept = ybar - slope * nbar
        resid = yv - (intercept + slope * nv)
        return slope, intercept, resid, sxx

    slope, intercept, resid, sxx = _ols(ns, ys)
    dof = max(len(pts) - 2, 1)
    sigma2 = float((resid ** 2).sum()) / dof
    stderr = math.sqrt(sigma2 / sxx)
    band = (slope - 1.96 * stderr, slope + 1.96 * stderr)
    suffix_max = slope
    for i in range(1, len(pts) - 1):
        sub_n, sub_y = ns[i:], ys[i:]
        if np.allclose(sub_n, sub_n[0]):
            continue
        s_i, *_ = _ols(sub_n, sub_y)
        suffix_max = max(suffix_max, s_i)
    return GrowthRate(
        slope=float(slope),
        intercept=float(intercept),
        stderr=float(stderr),
        band=band,
        residual=float(np.sqrt((resid ** 2).mean())),
        suffix_max_slope=float(suffix_max),
    )
