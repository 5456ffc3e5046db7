"""Distributional-chaos statistics and finite-horizon DC1 / Li-Yorke
detection on orbit pairs.

All verdicts are finite-horizon and labelled "consistent"; nothing here
claims a proof of the corresponding limit statement.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import WordsTooShort
from .shift import Word


def orbit_distances(x: Word, y: Word, n: int) -> np.ndarray:
    """d(shift^i x, shift^i y) for 0 <= i < n on the available symbols.

    Positions past the last observed disagreement fall back to the finite-word
    convention: 0 when the words have equal length, else 2**-(remaining).
    """
    L = min(len(x), len(y))
    if n > L:
        raise WordsTooShort(f"need both words of length >= {n}")
    xs = np.array(x.symbols[:L], dtype=np.int64)
    ys = np.array(y.symbols[:L], dtype=np.int64)
    diff = xs != ys
    idx_of = np.where(diff, np.arange(L), L)
    nxt = np.minimum.accumulate(idx_of[::-1])[::-1]  # first disagreement >= i
    idx = np.arange(n)
    t = nxt[:n] - idx
    with np.errstate(under="ignore"):
        d = np.power(2.0, -t.astype(float))
    none_seen = nxt[:n] == L
    if len(x) == len(y):
        d[none_seen] = 0.0
    else:
        tail = L - idx[none_seen]
        with np.errstate(under="ignore"):
            d[none_seen] = np.power(2.0, -tail.astype(float))
    return d


def phi_n(x: Word, y: Word, t: float, n: int) -> float:
    """Fraction of the first n iterates at which the pair is t-close."""
    if n < 1:
        raise ValueError("n must be positive")
    return float((orbit_distances(x, y, n) < t).mean())


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


def dc1_report(x: Word, y: Word, t0: float, t_grid: Sequence[float],
               checkpoints: Sequence[int], tau_low: float = 0.05,
               tau_high: float = 0.05) -> Dc1Report:
    """Finite-horizon DC1 proxies: liminf Phi(t0) via the min over the
    checkpoints, limsup Phi*(t) via the max, thresholded by tau_low/tau_high."""
    cps = tuple(sorted(int(c) for c in checkpoints))
    if not cps or cps[0] < 1:
        raise ValueError("checkpoints must be positive")
    horizon = cps[-1]
    d = orbit_distances(x, y, horizon)
    phi_t0 = tuple(float((d[:n] < t0).mean()) for n in cps)
    grid = tuple(float(t) for t in t_grid)
    phi_grid = {t: tuple(float((d[:n] < t).mean()) for n in cps) for t in grid}
    min_phi_t0 = min(phi_t0)
    max_phi = {t: max(v) for t, v in phi_grid.items()}
    ok = min_phi_t0 <= tau_low and all(
        max_phi[t] >= 1.0 - tau_high for t in grid)
    return Dc1Report(
        t0=t0, checkpoints=cps, phi_t0=phi_t0, grid=grid, phi_grid=phi_grid,
        min_phi_t0=min_phi_t0, max_phi=max_phi, tau_low=tau_low,
        tau_high=tau_high,
        verdict="DC1-consistent" if ok else "not-DC1-consistent",
        distal_consistent=bool(d.min() > 2.0 ** -20),
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


def li_yorke_report(x: Word, y: Word, checkpoints: Sequence[int],
                    prox_tol: float = 2.0 ** -10,
                    dist_tol: float = 2.0 ** -10) -> LiYorkeReport:
    """Running and per-segment min/max orbit distances.

    The liminf-0/limsup-positive pattern needs late windows to keep both
    approaching and separating, so the verdict reads the last segment: its
    min must sit below prox_tol while its max stays above dist_tol.
    Repeated checkpoints count once.
    """
    cps = tuple(sorted({int(c) for c in checkpoints}))
    if not cps or cps[0] < 1:
        raise ValueError("checkpoints must be positive")
    horizon = cps[-1]
    d = orbit_distances(x, y, horizon)
    running_min, running_max, seg_min, seg_max = [], [], [], []
    prev = 0
    for n in cps:
        running_min.append(float(d[:n].min()))
        running_max.append(float(d[:n].max()))
        seg = d[prev:n]
        seg_min.append(float(seg.min()))
        seg_max.append(float(seg.max()))
        prev = n
    ok = seg_min[-1] <= prox_tol and seg_max[-1] >= dist_tol
    return LiYorkeReport(
        checkpoints=cps,
        running_min=tuple(running_min),
        running_max=tuple(running_max),
        segment_min=tuple(seg_min),
        segment_max=tuple(seg_max),
        prox_tol=prox_tol,
        dist_tol=dist_tol,
        verdict="LiYorke-consistent" if ok else "not-LiYorke-consistent",
        distal_consistent=bool(d.min() > prox_tol),
    )
