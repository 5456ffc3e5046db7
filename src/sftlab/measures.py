"""Invariant measures on SFTs: Markov/Bernoulli measures, entropy, the
computable weak* metric, typical-word sampling and measure paths.

The weak* metric follows the weighted test-function recipe with the test
functions taken to be indicators of admissible cylinders, enumerated by
(length, lexicographic) with 1-based index j and weight 2**-(j+1), the
series truncated after all cylinders of length <= depth.  Values are
convention-dependent; all tolerances in this package are stated for this
enumeration.
"""
from __future__ import annotations

import json
import math
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DepthExceedsEmpirical, ShortFamily, StationaryNotUnique
from .shift import SftSpace, Word

# --------------------------- helpers ---------------------------


def _seed_seq(*entropy: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(e) % 2**63 for e in entropy])


def rng_from(*entropy: int) -> np.random.Generator:
    """Deterministic generator derived from a tuple of integers."""
    return np.random.default_rng(_seed_seq(*entropy))


def _stationary_vector(Q: np.ndarray) -> np.ndarray:
    """The stationary row vector of a stochastic matrix, spanning the null
    space of Q^T - I (its last right singular vector).  A second singular
    value that is zero at numpy's matrix_rank tolerance means more than one
    closed class, and raises."""
    m = Q.shape[0]
    _, sing, vt = np.linalg.svd(Q.T - np.eye(m))
    if m > 1 and sing[-2] <= m * np.finfo(float).eps * sing[0]:
        raise StationaryNotUnique(
            "stochastic matrix has more than one closed class, so its"
            " stationary vector is not unique")
    v = np.clip(vt[-1] / vt[-1].sum(), 0.0, None)
    return v / v.sum()


# --------------------------- Markov measures ---------------------------


class MarkovMeasure:
    """Row-stochastic matrix supported inside the transition matrix, plus its
    stationary vector.  Ergodic whenever the support graph is strongly
    connected."""

    ROW_TOL = 1e-12
    STATIONARY_TOL = 1e-10

    def __init__(self, space: SftSpace, stochastic: Sequence[Sequence[float]],
                 stationary: Optional[Sequence[float]] = None):
        Q = np.array(stochastic, dtype=float)
        if Q.shape != (space.m, space.m):
            raise ValueError("stochastic matrix shape mismatch")
        if (Q < -1e-15).any():
            raise ValueError("negative transition probability")
        Q = np.clip(Q, 0.0, None)
        if np.abs(Q.sum(axis=1) - 1.0).max() > self.ROW_TOL:
            raise ValueError("rows must sum to 1 within 1e-12")
        if ((Q > 0) & (space.transition == 0)).any():
            raise ValueError("support leaks outside the transition matrix")
        pi = (np.array(stationary, dtype=float) if stationary is not None
              else _stationary_vector(Q))
        if pi.shape != (space.m,):
            raise ValueError("stationary vector shape mismatch")
        if (pi < -1e-15).any() or abs(pi.sum() - 1.0) > self.ROW_TOL:
            raise ValueError("stationary vector must be a probability vector")
        pi = np.clip(pi, 0.0, None)
        pi = pi / pi.sum()
        if np.abs(pi @ Q - pi).max() > self.STATIONARY_TOL:
            raise ValueError("stationarity residual above 1e-10")
        self.space = space
        self.stochastic = Q
        self.stationary = pi
        self.stochastic.setflags(write=False)
        self.stationary.setflags(write=False)
        self._row_cum = np.cumsum(Q, axis=1)
        self._pi_cum = np.cumsum(pi)

    # -- constructors --

    @classmethod
    def bernoulli(cls, space: SftSpace, probs: Sequence[float]) -> "MarkovMeasure":
        """Product measure with the given symbol probabilities (full shift only
        unless the support happens to respect the transitions)."""
        p = np.array(probs, dtype=float)
        Q = np.tile(p, (space.m, 1))
        return cls(space, Q, p)

    @classmethod
    def bernoulli2(cls, space: SftSpace, p_one: float) -> "MarkovMeasure":
        """Bernoulli(1-p, p) on a two-symbol full shift; p is the mass of 1."""
        return cls.bernoulli(space, [1.0 - p_one, p_one])

    @classmethod
    def periodic_orbit(cls, space: SftSpace, cycle: Word) -> "MarkovMeasure":
        """Uniform measure on the periodic orbit of a simple cycle word
        (each symbol may appear at most once)."""
        syms = cycle.symbols
        if len(set(syms)) != len(syms):
            raise ValueError("periodic_orbit needs a simple cycle (distinct symbols)")
        if not space.is_admissible(syms + (syms[0],)):
            raise ValueError("cycle word does not close up admissibly")
        Q = np.zeros((space.m, space.m))
        for i, s in enumerate(syms):
            Q[s, syms[(i + 1) % len(syms)]] = 1.0
        for s in range(space.m):
            if s not in syms:  # harmless filler rows, stationary mass is zero
                row = space.transition[s].astype(float)
                Q[s] = row / row.sum()
        pi = np.zeros(space.m)
        pi[list(syms)] = 1.0 / len(syms)
        return cls(space, Q, pi)

    # -- basic queries --

    def cylinder_prob(self, symbols: Sequence[int]) -> float:
        s = tuple(symbols)
        if not s:
            return 1.0
        p = self.stationary[s[0]]
        for a, b in zip(s, s[1:]):
            p *= self.stochastic[a, b]
        return float(p)

    @property
    def is_ergodic(self) -> bool:
        """Strong connectivity of the support graph restricted to charged states."""
        support = np.flatnonzero(self.stationary > 0)
        adj = self.stochastic[np.ix_(support, support)] > 0
        n = len(support)
        reach = np.eye(n, dtype=bool)
        for _ in range(n):
            reach = reach | (reach @ adj)
        return bool(reach.all())

    def max_depth(self) -> Optional[int]:
        return None  # analytic: any depth available

    def to_json(self) -> str:
        return json.dumps({
            "stochastic": self.stochastic.tolist(),
            "stationary": self.stationary.tolist(),
        })

    @classmethod
    def from_json(cls, space: SftSpace, text: str) -> "MarkovMeasure":
        data = json.loads(text)
        return cls(space, data["stochastic"], data["stationary"])

    def __repr__(self) -> str:
        return f"MarkovMeasure(m={self.space.m}, h={ks_entropy(self):.4f})"


# --------------------------- empirical measures ---------------------------


class EmpiricalMeasure:
    """Cylinder-frequency record of an orbit segment at a fixed depth L."""

    def __init__(self, space: SftSpace, depth: int,
                 freq: dict[tuple[int, ...], int]):
        if depth < 1:
            raise ValueError("depth must be positive")
        self.space = space
        self.depth = depth
        self.freq = dict(freq)
        self.total = sum(self.freq.values())
        if any(c < 0 for c in self.freq.values()) or self.total <= 0:
            raise ValueError("counts must be nonnegative with positive total")
        self._marginals: dict[int, dict[tuple[int, ...], float]] = {}

    def max_depth(self) -> Optional[int]:
        return self.depth

    def _marginal(self, length: int) -> dict[tuple[int, ...], float]:
        if length not in self._marginals:
            acc: dict[tuple[int, ...], float] = {}
            for w, c in self.freq.items():
                key = w[:length]
                acc[key] = acc.get(key, 0.0) + c
            self._marginals[length] = {k: v / self.total for k, v in acc.items()}
        return self._marginals[length]

    def cylinder_prob(self, symbols: Sequence[int]) -> float:
        s = tuple(symbols)
        if len(s) > self.depth:
            raise DepthExceedsEmpirical(
                f"empirical depth {self.depth} < requested {len(s)}")
        if not s:
            return 1.0
        return self._marginal(len(s)).get(s, 0.0)

    def __repr__(self) -> str:
        return f"EmpiricalMeasure(depth={self.depth}, total={self.total})"


MeasureLike = Union[MarkovMeasure, EmpiricalMeasure]


# --------------------------- the weak* metric ---------------------------

_CYL_CACHE: dict[tuple[bytes, int], list[tuple[tuple[int, ...], float]]] = {}


def cylinder_weights(space: SftSpace, depth: int) -> list[tuple[tuple[int, ...], float]]:
    """Admissible cylinders of length 1..depth in (length, lex) order with
    their weights 2**-(j+1), j the 1-based enumeration index."""
    key = (space.transition.tobytes(), depth)
    if key not in _CYL_CACHE:
        out = []
        j = 0
        for length in range(1, depth + 1):
            for w in space.words(length):
                j += 1
                out.append((w.symbols, 2.0 ** (-(j + 1))))
        _CYL_CACHE[key] = out
    return _CYL_CACHE[key]


def weak_star_dist(a: MeasureLike, b: MeasureLike, depth: int) -> float:
    """Truncated weighted-L1 distance over cylinder indicators.

    Symmetric pseudometric bounded by 1; separates measures differing on some
    cylinder of length <= depth.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    for side in (a, b):
        d = side.max_depth()
        if d is not None and d < depth:
            raise DepthExceedsEmpirical(f"empirical depth {d} < metric depth {depth}")
    space = a.space
    total = 0.0
    for cyl, weight in cylinder_weights(space, depth):
        total += weight * abs(a.cylinder_prob(cyl) - b.cylinder_prob(cyl))
    return total


# --------------------------- entropy ---------------------------


def ks_entropy(mu: MarkovMeasure) -> float:
    """Kolmogorov-Sinai entropy of a Markov measure, natural logarithm."""
    Q = mu.stochastic
    pi = mu.stationary
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(Q > 0, Q * np.log(Q), 0.0)
    return float(-(pi @ plogp.sum(axis=1)))


# --------------------------- sampling ---------------------------


def sample_word(mu: MarkovMeasure, n: int, seed: int) -> Word:
    """Length-n draw from the stationary Markov chain, deterministic in seed."""
    if n < 1:
        raise ValueError("n must be positive")
    rng = rng_from(seed)
    u = rng.random(n)
    out = np.empty(n, dtype=np.int64)
    out[0] = np.searchsorted(mu._pi_cum, u[0], side="right")
    for t in range(1, n):
        out[t] = np.searchsorted(mu._row_cum[out[t - 1]], u[t], side="right")
    np.clip(out, 0, mu.space.m - 1, out=out)
    return Word(out.tolist())


def sample_words_batch(mu: MarkovMeasure, n: int, count: int, seed: int) -> np.ndarray:
    """(count, n) array of independent draws; row i matches no single-word
    call but the batch is deterministic in seed."""
    rng = rng_from(seed)
    out = np.empty((count, n), dtype=np.int64)
    u = rng.random((count, n))
    out[:, 0] = np.searchsorted(mu._pi_cum, u[:, 0], side="right")
    C = mu._row_cum
    for t in range(1, n):
        out[:, t] = (C[out[:, t - 1]] <= u[:, t][:, None]).sum(axis=1)
    np.clip(out, 0, mu.space.m - 1, out=out)
    return out


# --------------------------- typical separated families ---------------------------


def _batch_weak_star(space: SftSpace, batch: np.ndarray, mu: MarkovMeasure,
                     depth: int) -> np.ndarray:
    """Vectorized weak* distance of each row's empirical measure to mu,
    matching weak_star_dist on the row's depth-window empirical exactly."""
    count, n = batch.shape
    windows = n - depth + 1
    dists = np.zeros(count)
    for cyl, weight in cylinder_weights(space, depth):
        match = np.ones((count, windows), dtype=bool)
        for off, s in enumerate(cyl):
            match &= batch[:, off:off + windows] == s
        freq = match.sum(axis=1) / windows
        dists += weight * np.abs(freq - mu.cylinder_prob(cyl))
    return dists


def typical_separated_family(mu: MarkovMeasure, n: int, delta: float, eta: float,
                             seed: int, typical_tol: Optional[float] = None,
                             typical_depth: int = 2,
                             max_attempts: Optional[int] = None) -> list[Word]:
    """Greedy pairwise delta-separated family of mu-typical length-n words of
    size at least ceil(e^{n (h(mu) - eta)}).

    Raises ShortFamily (carrying the achieved words) if the greedy search
    stalls, which signals the packing feasibility margin was violated.
    """
    if not (0 < delta <= 1):
        raise ValueError("delta must lie in (0, 1]")
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    space = mu.space
    h = ks_entropy(mu)
    target = max(1, math.ceil(math.exp(n * (h - eta)) - 1e-9))
    if target > 1 and space.m >= 2:
        # Gilbert-Varshamov style room: delta too large relative to eta leaves
        # no space for the greedy packing.
        if delta * math.log(space.m * max(space.m - 1, 1)) >= eta:
            raise ValueError(
                f"infeasible margin: delta*log(m(m-1)) = "
                f"{delta * math.log(space.m * max(space.m - 1, 1)):.4f} >= eta = {eta}")
    tol = eta if typical_tol is None else typical_tol
    need = math.ceil(delta * n - 1e-12)
    cap = max_attempts if max_attempts is not None else max(200 * target, 20_000)

    arr = np.empty((target, n), dtype=np.int64)
    filled = 0
    seen: set[tuple[int, ...]] = set()
    attempts = 0
    batch_no = 0
    while filled < target and attempts < cap:
        batch_size = min(max(1024, target // 2), cap - attempts)
        batch = sample_words_batch(mu, n, batch_size, seed=seed + 7919 * batch_no)
        batch_no += 1
        attempts += batch_size
        dists = _batch_weak_star(space, batch, mu, typical_depth)
        for row, d in zip(batch, dists):
            if d > tol:
                continue
            t = tuple(int(v) for v in row)
            if t in seen:
                continue
            # distinctness equals delta-separation when ceil(delta n) <= 1;
            # otherwise check Hamming distance against everything kept so far
            if need > 1 and filled:
                if ((arr[:filled] != row).sum(axis=1) < need).any():
                    continue
            arr[filled] = row
            filled += 1
            seen.add(t)
            if filled >= target:
                break
    words = [Word(arr[i].tolist()) for i in range(filled)]
    if filled < target:
        raise ShortFamily(target, filled, words)
    return words


# --------------------------- measure paths ---------------------------


def interpolate(a: MarkovMeasure, b: MarkovMeasure, s: float) -> MarkovMeasure:
    """Entrywise convex interpolation of stochastic matrices, rows renormalized
    and the stationary vector recomputed."""
    if not (0.0 <= s <= 1.0):
        raise ValueError("interpolation parameter must lie in [0, 1]")
    Q = (1.0 - s) * a.stochastic + s * b.stochastic
    Q = Q / Q.sum(axis=1, keepdims=True)
    return MarkovMeasure(a.space, Q)


class MeasurePath:
    """Ordered Markov-measure checkpoints, convex interpolation in between.

    Plays the role of the compact connected (or convex) target set: the
    refine operation emits the vanishing-step visiting schedule.
    """

    def __init__(self, checkpoints: Sequence[MarkovMeasure]):
        cps = list(checkpoints)
        if not cps:
            raise ValueError("a path needs at least one checkpoint")
        space = cps[0].space
        if any(cp.space is not space and cp.space != space for cp in cps):
            raise ValueError("all checkpoints must share one space")
        self.space = space
        self.checkpoints = cps

    def at(self, t: float) -> MarkovMeasure:
        """Piecewise-convex point of the path, global parameter t in [0, 1]."""
        if not (0.0 <= t <= 1.0):
            raise ValueError("path parameter must lie in [0, 1]")
        if len(self.checkpoints) == 1:
            return self.checkpoints[0]
        x = t * (len(self.checkpoints) - 1)
        i = min(int(math.floor(x)), len(self.checkpoints) - 2)
        return interpolate(self.checkpoints[i], self.checkpoints[i + 1], x - i)

    def sup_entropy(self) -> float:
        return max(ks_entropy(cp) for cp in self.checkpoints)

    def to_json(self) -> str:
        return json.dumps({
            "checkpoints": [json.loads(cp.to_json()) for cp in self.checkpoints],
            "interpolation": "convex",
        })

    @classmethod
    def from_json(cls, space: SftSpace, text: str) -> "MeasurePath":
        data = json.loads(text)
        if data.get("interpolation", "convex") != "convex":
            raise ValueError("only convex interpolation is supported")
        return cls([
            MarkovMeasure(space, cp["stochastic"], cp["stationary"])
            for cp in data["checkpoints"]
        ])


def refine_path(path: MeasurePath, stage: int) -> list[MarkovMeasure]:
    """Stage-s visiting schedule: the path sampled at mesh 1/stage, traversed
    forward and back, so every checkpoint recurs at every later stage."""
    if stage < 1:
        raise ValueError("stage must be positive")
    forward = [path.at(i / stage) for i in range(stage + 1)]
    return forward + forward[-2::-1]
