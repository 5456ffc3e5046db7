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

import itertools
import json
import math
from typing import Iterable, Optional, Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShortFamily, SpaceMismatch, StationaryNotUnique
from .shift import SftSpace, Word, word_columns

# --------------------------- helpers ---------------------------


def rng_from(*entropy: int) -> np.random.Generator:
    """Deterministic generator derived from a tuple of integers, each taken
    mod 2**63.  One value seeds the SeedSequence as it is: numpy reads it as
    the same words as the one-element list, a little faster."""
    words = [int(e) % 2**63 for e in entropy]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        words[0] if len(words) == 1 else words)))


def _flag(bad: np.ndarray, message: str, error=ValueError) -> None:
    """Raise error(message) when a row of a stack is bad, naming the first
    such row when the stack has more than one."""
    rows = np.flatnonzero(bad)
    if rows.size:
        raise error(message + (f" (row {rows[0]})" if len(bad) > 1 else ""))


def _sweep(adj: np.ndarray, start: np.ndarray) -> np.ndarray:
    """The states a boolean adjacency matrix reaches from the boolean set
    start, start included, one frontier of new states per step."""
    seen = new = start
    while new.any():
        new = adj[new].any(axis=0) & ~seen
        seen = seen | new
    return seen


def _stationary_vectors(Q: np.ndarray) -> np.ndarray:
    """The stationary row vector of each stochastic matrix of a stack
    (B, m, m), spanning the null space of Q^T - I (its last right singular
    vector), from one stacked SVD call: LAPACK solves each matrix on its
    own, so a row's vector does not depend on its stack.  A second singular
    value that is zero at numpy's matrix_rank tolerance means more than one
    closed class, and raises."""
    m = Q.shape[-1]
    _, sing, vt = np.linalg.svd(np.swapaxes(Q, 1, 2) - np.eye(m))
    if m > 1:
        _flag(sing[:, -2] <= m * np.finfo(float).eps * sing[:, 0],
              "stochastic matrix has more than one closed class, so its"
              " stationary vector is not unique", StationaryNotUnique)
    v = np.clip(vt[:, -1] / vt[:, -1].sum(axis=1, keepdims=True), 0.0, None)
    return v / v.sum(axis=1, keepdims=True)


def _checked(space: SftSpace, Q: np.ndarray, pi: Optional[np.ndarray]
             ) -> tuple[np.ndarray, np.ndarray]:
    """MarkovMeasure's checks, each once over a stack of stochastic matrices
    (B, m, m) and of stationary vectors (B, m) or None: the clipped stacks,
    the missing vectors solved and normalised."""
    if Q.ndim != 3 or Q.shape[1:] != (space.m, space.m):
        raise ValueError("stochastic matrix shape mismatch")
    _flag(~np.isfinite(Q).all(axis=(1, 2)),
          "stochastic matrix entries must be finite")
    _flag((Q < -1e-15).any(axis=(1, 2)), "negative transition probability")
    Q = np.clip(Q, 0.0, None)
    _flag((np.abs(Q.sum(axis=2) - 1.0) > MarkovMeasure.ROW_TOL).any(axis=1),
          "rows must sum to 1 within 1e-12")
    _flag(((Q > 0) & (space.transition == 0)).any(axis=(1, 2)),
          "support leaks outside the transition matrix")
    solved = pi is None
    if solved:
        pi = _stationary_vectors(Q)
    if pi.shape != (len(Q), space.m):
        raise ValueError("stationary vector shape mismatch")
    _flag(~np.isfinite(pi).all(axis=1),
          "stationary vector entries must be finite")
    _flag((pi < -1e-15).any(axis=1)
          | (np.abs(pi.sum(axis=1) - 1.0) > MarkovMeasure.ROW_TOL),
          "stationary vector must be a probability vector")
    pi = np.clip(pi, 0.0, None)
    if solved:
        pi = pi / pi.sum(axis=1, keepdims=True)
    _flag((np.abs((pi[:, None, :] @ Q)[:, 0] - pi)
           > MarkovMeasure.STATIONARY_TOL).any(axis=1),
          "stationarity residual above 1e-10")
    return Q, pi


# --------------------------- Markov measures ---------------------------


class MarkovMeasure:
    """Row-stochastic matrix supported inside the transition matrix, plus its
    stationary vector, kept as given (a computed one is normalised).
    Ergodic whenever the support graph is strongly connected.  A measure is
    the one-row case of :func:`markov_measures`."""

    ROW_TOL = 1e-12
    STATIONARY_TOL = 1e-10

    def __init__(self, space: SftSpace, stochastic: Sequence[Sequence[float]],
                 stationary: Optional[Sequence[float]] = None):
        vars(self).update(vars(markov_measures(
            space, [stochastic], None if stationary is None else [stationary]
        )[0]))

    @classmethod
    def _of(cls, space: SftSpace, Q: np.ndarray, pi: np.ndarray,
            row_cum: np.ndarray, pi_cum: np.ndarray) -> "MarkovMeasure":
        mu = cls.__new__(cls)  # one row of checked, read-only stacks
        mu.space, mu.stochastic, mu.stationary = space, Q, pi
        mu._row_cum, mu._pi_cum = row_cum, pi_cum
        mu._walk = None  # _walk(mu), built at the first sample_word
        mu._cyl_probs = {}  # depth: cylinder_probs(depth)
        return mu

    # -- constructors --

    @classmethod
    def bernoulli(cls, space: SftSpace, probs: Sequence[float]) -> "MarkovMeasure":
        """Product measure with the given symbol probabilities (full shift only
        unless the support happens to respect the transitions)."""
        p = np.array(probs, dtype=float)
        Q = np.tile(p, (space.m, 1))
        return cls(space, Q, p)

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

    def cylinder_probs(self, depth: int) -> np.ndarray:
        """:meth:`cylinder_prob` of each cylinder of
        :func:`cylinder_weights`, in its order and with its float
        operations: the length-n cylinders are the rows of
        ``space.word_table(n)``, whose stationary masses are multiplied by
        their transitions left to right.  One read-only vector, cached per
        depth."""
        probs = self._cyl_probs.get(depth)
        if probs is None:
            parts = []
            for n in range(1, depth + 1):
                table = self.space.word_table(n)
                p = self.stationary[table[:, 0]]
                for j in range(1, n):
                    p = p * self.stochastic[table[:, j - 1], table[:, j]]
                parts.append(p)
            probs = self._cyl_probs[depth] = np.concatenate(parts)
            probs.setflags(write=False)
        return probs

    @property
    def is_ergodic(self) -> bool:
        """Strong connectivity of the support graph restricted to charged
        states: the forward and the backward sweep from one charged state
        each reach every charged state."""
        support = np.flatnonzero(self.stationary > 0)
        adj = self.stochastic[np.ix_(support, support)] > 0
        first = np.arange(len(support)) == 0
        return bool(_sweep(adj, first).all() and _sweep(adj.T, first).all())

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


def markov_measures(space: SftSpace, stochastic, stationary=None
                    ) -> list[MarkovMeasure]:
    """The Markov measure of each row of a stack of stochastic matrices
    (B, m, m) with, optionally, their stationary vectors (B, m), each as
    ``MarkovMeasure(space, stochastic[i], stationary[i])`` builds it, bit for
    bit.  The checks run once over the stack, and an error names the first
    failing row of a stack of more than one; the missing stationary vectors
    come from one stacked SVD call.  The measures hold rows of the read-only
    stacks."""
    Q, pi = _checked(space, np.asarray(stochastic, dtype=float),
                     None if stationary is None
                     else np.asarray(stationary, dtype=float))
    Q.setflags(write=False)
    pi.setflags(write=False)
    return [MarkovMeasure._of(space, *row) for row in zip(
        Q, pi, np.cumsum(Q, axis=2), np.cumsum(pi, axis=1))]


# --------------------------- the weak* metric ---------------------------

def _cylinders(space: SftSpace, depth: int) -> tuple:
    """The admissible cylinders of length 1..depth in (length, lex) order,
    their weights 2**-(j+1) (j the 1-based enumeration index), and the rows
    lo..hi-1 of ``space.word_table(depth)`` each one prefixes (every
    admissible word extends, so those rows are one run): a list of tuples
    and three read-only arrays, cached on the space."""
    if depth not in space._cyl_cache:
        table, cyls, runs = space.word_table(depth), [], []
        for n in range(1, depth + 1):
            cut = (np.flatnonzero((table[1:, :n] != table[:-1, :n]).any(axis=1))
                   + 1).tolist()
            for lo, hi in zip([0] + cut, cut + [len(table)]):
                cyls.append(tuple(table[lo, :n].tolist()))
                runs.append((lo, hi))
        weights = np.array([2.0 ** -(j + 2) for j in range(len(cyls))])
        lo, hi = (np.array(v, dtype=np.intp) for v in zip(*runs))
        for a in (weights, lo, hi):
            a.setflags(write=False)
        space._cyl_cache[depth] = cyls, weights, lo, hi
    return space._cyl_cache[depth]


def cylinder_weights(space: SftSpace, depth: int) -> list[tuple[tuple[int, ...], float]]:
    """Admissible cylinders of length 1..depth in (length, lex) order with
    their weights 2**-(j+1), j the 1-based enumeration index."""
    cyls, weights, _, _ = _cylinders(space, depth)
    return list(zip(cyls, weights.tolist()))


def _run_sums(counts: np.ndarray, lo: np.ndarray,
              hi: np.ndarray) -> np.ndarray:
    """The sum of counts[..., lo[j]:hi[j]] for each run j, from one integer
    prefix sum along the last axis, so exact."""
    prefix = np.zeros((*counts.shape[:-1], counts.shape[-1] + 1),
                      dtype=np.int64)
    prefix[..., 1:] = counts
    np.add.accumulate(prefix, axis=-1, out=prefix)
    sums = prefix.take(hi, axis=-1)
    sums -= prefix.take(lo, axis=-1)
    return sums


_COUNT_WINDOWS = 1 << 14  # most windows window_counts ranks at once


def window_counts(space: SftSpace, rows: np.ndarray, depth: int,
                  stops: Iterable[int]) -> dict[int, np.ndarray]:
    """Integer count matrices of the depth-windows of each row of a 2-d
    symbol array, by :func:`word_columns` column: for each stop k, the
    matrix counting the windows that start before k.  The one window
    counter: it ranks at most ``_COUNT_WINDOWS`` windows (at least one
    offset) at a time, offset-major, with :func:`word_columns` over a
    sliding view, and adds them with one ``np.bincount`` over row * K +
    rank.  ValueError unless every stop lies in [0, windows]."""
    (R, n), K = rows.shape, len(space.word_table(depth))
    stops = sorted(set(stops))
    if not stops or not 0 <= stops[0] <= stops[-1] <= n - depth + 1:
        raise ValueError(f"stops must lie in [0, {n - depth + 1}], got {stops}")
    counts, offsets = np.zeros((R, K), dtype=np.int64), np.arange(R) * K
    step, out = max(_COUNT_WINDOWS // max(R, 1), 1), {}
    for lo, stop in zip([0] + stops, stops):
        for a in range(lo, stop, step):
            ranks = word_columns(space, sliding_window_view(
                rows[:, a:min(a + step, stop) + depth - 1].T, depth, axis=0))
            ranks += offsets
            counts += np.bincount(ranks.ravel(), minlength=R * K).reshape(R, K)
        out[stop] = counts.copy()
    return out


_WEAK_STAR_ROWS = 1 << 10  # count rows weak_star_counts scores at once


def weak_star_counts(counts: np.ndarray, total, target: MarkovMeasure,
                     depth: int) -> np.ndarray:
    """The weak* distance to target of the empirical measure of each count
    row: row i counts depth-windows per :func:`word_columns` column out of
    total (a scalar or one total per row), and its distance is the sum over
    the cylinders of :func:`cylinder_weights`, left to right, of
    weight * |count / total - target(cyl)|, bit for bit the per-cylinder
    loop over a {window: count} record of the same windows.

    A cylinder's count is the sum of the contiguous word-table rows it
    prefixes, read off one prefix sum of the rows; every term is formed at
    once, and the terms are summed as weak_star_dist sums its.  At most
    ``_WEAK_STAR_ROWS`` rows are scored at a time, so the temporaries stay
    small beside the counts.
    ValueError unless counts has exactly one column per row of
    ``word_table(depth)`` and total is a positive finite scalar or one
    such value per row; the error names the first total that is not.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    space = target.space
    _, weights, lo, hi = _cylinders(space, depth)
    words = len(space.word_table(depth))
    counts = np.asarray(counts)
    if counts.ndim != 2 or counts.shape[1] != words:
        raise ValueError(f"counts must have one column per admissible "
                         f"{depth}-word ({words}), got shape {counts.shape}")
    total = np.asarray(total)
    if total.ndim:
        if total.shape != (len(counts),):
            raise ValueError(f"total must be a scalar or one value per count "
                             f"row ({len(counts)}), got shape {total.shape}")
        total = total[:, None]
    if not (total > 0).all():  # nan is not positive either
        raise ValueError(f"total must be positive, got "
                         f"{total[~(total > 0)][0]}")
    if not np.isfinite(total).all():
        raise ValueError(f"total must be finite, got "
                         f"{total[~np.isfinite(total)][0]}")
    probs = target.cylinder_probs(depth)
    d = np.empty(len(counts))
    for r in range(0, len(counts), _WEAK_STAR_ROWS):
        rows = slice(r, r + _WEAK_STAR_ROWS)
        terms = _run_sums(counts[rows], lo, hi) / (total[rows] if total.ndim
                                                   else total)
        terms -= probs
        np.abs(terms, out=terms)
        terms *= weights
        d[rows] = np.add.accumulate(terms, axis=1, out=terms)[:, -1]
    return d


def _same_space(a, b, who: str = "the measures") -> None:
    """SpaceMismatch naming who and both transition matrices unless a and
    b, each a space or a measure or path on one, live on one space."""
    sa, sb = (getattr(x, "space", x) for x in (a, b))
    if sa is not sb and sa != sb:
        raise SpaceMismatch(
            f"{who} are defined on the spaces with transition "
            f"{sa.transition.tolist()} and {sb.transition.tolist()}")


def weak_star_dist(a: MarkovMeasure, b: MarkovMeasure, depth: int) -> float:
    """Truncated weighted-L1 distance over cylinder indicators.

    Symmetric pseudometric bounded by 1; separates measures differing on some
    cylinder of length <= depth.  The terms are formed from the measures'
    :meth:`cylinder_probs` vectors and summed left to right.  SpaceMismatch
    names both transition matrices when the measures' spaces differ.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    _same_space(a, b)
    weights = _cylinders(a.space, depth)[1]
    terms = weights * np.abs(a.cylinder_probs(depth) - b.cylinder_probs(depth))
    return float(np.add.accumulate(terms)[-1])


# --------------------------- entropy ---------------------------


def ks_entropies(mus: Sequence[MarkovMeasure]) -> np.ndarray:
    """Kolmogorov-Sinai entropy of each Markov measure of one alphabet size,
    natural logarithm, from their stacked arrays: each row's pi @ plogp is
    the dot product a single measure takes."""
    Q = np.stack([mu.stochastic for mu in mus])
    pi = np.stack([mu.stationary for mu in mus])
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(Q > 0, Q * np.log(Q), 0.0)
    return -(pi[:, None, :] @ plogp.sum(axis=2)[:, :, None])[:, 0, 0]


def ks_entropy(mu: MarkovMeasure) -> float:
    """The one-measure case of :func:`ks_entropies`."""
    return float(ks_entropies([mu])[0])


# --------------------------- sampling ---------------------------


_CHAIN_CHUNK = 1 << 16  # steps per successor table in sample_word


def _walk(mu: MarkovMeasure) -> tuple[np.ndarray, list[int],
                                      Optional[list[int]], Optional[int]]:
    """The cut rows :func:`sample_word` searches, the states its chain can
    visit, when each of those has one successor the successor of every
    state, and the one first state or None; built at the first draw and
    cached on the measure (with ``_cycle_words`` when periodic).

    Row a < m is state a's cumulative transition row and row m the
    cumulative stationary vector (the start), each without its last entry,
    so a step from a row goes to the number of its entries at or below u.
    It goes to b for the u between entries b-1 and b (from 0 for b = 0, up
    to 1 for b = m-1), so it can reach b exactly when that interval meets
    [0, 1).  The visited states are those reachable from row m."""
    if mu._walk is None:
        m = mu.space.m
        cuts = np.vstack([mu._row_cum, mu._pi_cum])[:, :-1]
        lo = np.hstack([np.zeros((m + 1, 1)), cuts])
        hi = np.hstack([cuts, np.ones((m + 1, 1))])
        step = lo < np.minimum(hi, 1.0)
        visited = np.flatnonzero(_sweep(step[:m], step[m])).tolist()
        then = step[:m].argmax(axis=1).tolist()
        one = (step[visited].sum(axis=1) == 1).all()
        starts = np.flatnonzero(step[m]).tolist()
        mu._walk = (cuts, visited, then if one else None,
                    starts[0] if len(starts) == 1 else None)
        if one:  # first state: sample_word's last word
            mu._cycle_words = {}
    return mu._walk


def sample_word(mu: MarkovMeasure, n: int, seed: int) -> np.ndarray:
    """Length-n draw from the stationary Markov chain, deterministic in
    seed, as a read-only array of ``space.symbol_dtype``.

    Step t moves from state a to min(searchsorted(row_cum[a], u[t],
    "right"), m - 1), step 0 from pi_cum the same way: that is the number
    of the row's first m - 1 cumulative entries at or below u[t].  The
    uniforms are drawn a chunk of steps at a time, the stream one draw of
    n gives.  When every state the walk can visit has one successor (a
    periodic orbit) the word is a function of (n, first state), read off
    the cycle it enters and kept on the measure: one shared array per first
    state (no uniform is drawn when that is fixed).  Otherwise one
    vectorised searchsorted per visitable state tabulates its successors
    for the chunk; when all those states have the same successors the chunk
    is read off the table (a Bernoulli measure), else the chain walks the
    table."""
    if n < 1:
        raise ValueError("n must be positive")
    cuts, visited, then, state = _walk(mu)
    if then is None or state is None:
        rng = rng_from(seed)
        state = int(cuts[-1].searchsorted(rng.random(), "right"))
    if then is not None and len(mu._cycle_words.get(state, ())) == n:
        return mu._cycle_words[state]
    x = np.empty(n, dtype=mu.space.symbol_dtype)
    if then is not None:
        path = [state]
        while then[path[-1]] not in path:
            path.append(then[path[-1]])
        j = path.index(then[path[-1]])  # the walk enters the cycle path[j:]
        cycle, rest = np.array(path[j:], dtype=x.dtype), len(x[j:])
        x[:j] = path[:j][:n]
        x[j:] = np.tile(cycle, -(-rest // len(cycle)))[:rest]
        mu._cycle_words[state] = x
    else:
        x[0] = state
        for lo in range(1, n, _CHAIN_CHUNK):
            chunk = rng.random(min(_CHAIN_CHUNK, n - lo))
            span = slice(lo, lo + len(chunk))
            table = [cuts[a].searchsorted(chunk, "right") for a in visited]
            if all(np.array_equal(row, table[0]) for row in table[1:]):
                x[span] = table[0]  # no step depends on the state
            else:
                succ = [None] * mu.space.m
                for a, row in zip(visited, table):
                    succ[a] = row.tolist()
                x[span] = [state := succ[state][t] for t in range(len(chunk))]
            state = int(x[span.stop - 1])
    x.flags.writeable = False
    return x


_SAMPLE_BLOCK = 1 << 10  # rows typical_separated_family draws at once


def sample_words_batch(mu: MarkovMeasure, n: int, count: int,
                       seed: Union[int, np.random.Generator]) -> np.ndarray:
    """(count, n) array of independent draws of ``space.symbol_dtype``; row
    i matches no single-word call but the batch is deterministic in seed.

    seed may also be a generator, which the draw advances.  A generator
    fills row-major, so draws of a and then b rows from one generator give
    the rows of one draw of a + b."""
    if n < 1:
        raise ValueError("n must be positive")
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    rng = seed if isinstance(seed, np.random.Generator) else rng_from(seed)
    u = rng.random((count, n))
    cuts = _walk(mu)[0]  # a step goes where sample_word's does
    out = np.empty((count, n), dtype=mu.space.symbol_dtype)
    out[:, 0] = cuts[-1].searchsorted(u[:, 0], "right")
    for t in range(1, n):
        out[:, t] = (cuts[out[:, t - 1]] <= u[:, t][:, None]).sum(axis=1)
    return out


# --------------------------- typical separated families ---------------------------


def _batch_weak_star(space: SftSpace, batch: np.ndarray, mu: MarkovMeasure,
                     depth: int) -> np.ndarray:
    """Vectorized weak* distance of each row's empirical measure to mu: the
    :func:`weak_star_counts` of the row's depth-windows."""
    windows = batch.shape[1] - depth + 1
    counts = window_counts(space, batch, depth, [windows])[windows]
    return weak_star_counts(counts, windows, mu, depth)


_PROBES = 1 << 18  # most ball keys _Packing computes at once


class _Packing:
    """The greedy's kept rows, pairwise at Hamming distance above radius,
    and the index that tells whether a candidate lies within radius of one.

    A candidate conflicts with a kept row when that row is in the
    candidate's Hamming ball, so each check is one set lookup per ball
    word, the word itself first.  Words are keyed by their base-m numbers
    (int64, Python ints past 63 bits).  When the ball is larger than the
    target family the rows are scanned instead."""

    def __init__(self, space: SftSpace, n: int, radius: int, target: int):
        m = space.m
        self.rows = np.empty((target, n), dtype=space.symbol_dtype)
        self.filled, self.m, self.radius = 0, m, radius
        ball = sum(math.comb(n, i) * (m - 1) ** i for i in range(radius + 1))
        self.scan = ball > target
        if self.scan:
            return
        # ball word p moves position j by s for each column j m + s of
        # cols[p] (s = 0: no move)
        self.cols = np.array([
            [j * m + s for j, s in zip(where + (0,) * (radius - i),
                                       by + (0,) * (radius - i))]
            for i in range(radius + 1)
            for where in itertools.combinations(range(n), i)
            for by in itertools.product(range(1, m), repeat=i)
        ], dtype=np.intp).reshape(ball, radius)
        self.key_dtype = np.int64 if m ** n <= 2**63 else object
        a = np.arange(m)[:, None]
        self.moves = (a + a.T) % m - a  # moves[a, s]: a moved by s
        self.weights = m ** np.arange(n - 1, -1, -1, dtype=self.key_dtype)
        self.seen: set[int] = set()

    def keep(self, cands: np.ndarray) -> None:
        """Keep each candidate row in order, up to the target, that lies
        outside the radius of every row kept before it."""
        if not self.scan:
            step = max(1, _PROBES // len(self.cols))
            for lo in range(0, len(cands), step):
                if self.filled == len(self.rows):
                    return
                self._keep_indexed(cands[lo:lo + step])
            return
        for row in cands:
            if self.filled == len(self.rows):
                return
            if not ((self.rows[:self.filled] != row).sum(axis=1)
                    <= self.radius).any():
                self.rows[self.filled] = row
                self.filled += 1

    def _keep_indexed(self, cands: np.ndarray) -> None:
        """:meth:`keep` without the scan: a candidate is kept when no word
        of its ball is a kept key, and its key is then entered."""
        taken: list[int] = []
        room = len(self.rows) - self.filled
        for i, ball in enumerate(self._balls(cands).tolist()):
            if self.seen.isdisjoint(ball):
                self.seen.add(ball[0])
                taken.append(i)
                if len(taken) == room:
                    break
        self.rows[self.filled:self.filled + len(taken)] = cands[taken]
        self.filled += len(taken)

    def _balls(self, cands: np.ndarray) -> np.ndarray:
        """The (rows, ball) keys of the candidates' Hamming balls, each
        row's own key first."""
        keys = np.zeros(len(cands), dtype=self.key_dtype)
        for col in cands.T:
            keys = keys * self.m + col
        probe = keys[:, None]
        if self.radius:  # column j m + s: the key change when j moves by s
            delta = (self.moves[cands] * self.weights[:, None]).reshape(
                len(cands), cands.shape[1] * self.m)
            for k in range(self.radius):
                probe = probe + delta[:, self.cols[:, k]]
        return probe


def family_target(n: int, h: float, eta: float) -> int:
    """The size max(1, ceil(e^{n (h - eta)})) a separated family of n-words
    at entropy h and slack eta is built to, the ceiling forgiving
    rounding."""
    return max(1, math.ceil(math.exp(n * (h - eta)) - 1e-9))


def typical_separated_family(mu: MarkovMeasure, n: int, delta: float, eta: float,
                             seed: int, typical_tol: Optional[float] = None,
                             typical_depth: int = 2,
                             max_attempts: Optional[int] = None) -> np.ndarray:
    """Greedy pairwise delta-separated family of mu-typical length-n words of
    size at least ceil(e^{n (h(mu) - eta)}), as the rows of one read-only
    (size, n) array of ``space.symbol_dtype`` in the order they were kept.

    Batch b draws max(1024, target // 2) rows (fewer at the attempt cap)
    from one generator seeded seed + 7919 b, through
    :func:`sample_words_batch` a block of ``_SAMPLE_BLOCK`` rows at a time.
    Each block's rows within typical_tol (eta by default) of mu in the
    weak* metric at typical_depth are offered in order, and a row is kept
    unless it lies at Hamming distance below max(ceil(delta n), 1) from a
    row kept before it: one set lookup per word of its Hamming ball in
    :class:`_Packing`.  Drawing stops once the target is met, so memory
    holds the family, its keys and one block.

    Raises ShortFamily (carrying the achieved rows) if the greedy search
    stalls, which signals the packing feasibility margin was violated.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if typical_depth < 1:
        raise ValueError(f"typical_depth must be positive, got "
                         f"{typical_depth}")
    if n < typical_depth:
        raise ValueError(f"n = {n} is shorter than typical_depth = "
                         f"{typical_depth}: no window to check typicality on")
    if not (0 < delta <= 1):
        raise ValueError("delta must lie in (0, 1]")
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    space = mu.space
    target = family_target(n, ks_entropy(mu), eta)
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

    kept = _Packing(space, n, max(need - 1, 0), target)
    attempts = 0
    batch_no = 0
    while kept.filled < target and attempts < cap:
        batch_size = min(max(1024, target // 2), cap - attempts)
        rng = rng_from(seed + 7919 * batch_no)
        batch_no += 1
        attempts += batch_size
        for lo in range(0, batch_size, _SAMPLE_BLOCK):
            block = sample_words_batch(
                mu, n, min(_SAMPLE_BLOCK, batch_size - lo), rng)
            dists = _batch_weak_star(space, block, mu, typical_depth)
            kept.keep(block[~(dists > tol)])
            if kept.filled >= target:
                break
    family = kept.rows[:kept.filled]
    family.flags.writeable = False
    if kept.filled < target:
        raise ShortFamily(target, kept.filled, family)
    return family


# --------------------------- measure paths ---------------------------


def interpolate(a: MarkovMeasure, b: MarkovMeasure, s: float) -> MarkovMeasure:
    """Entrywise convex interpolation of stochastic matrices, rows renormalized
    and the stationary vector recomputed; SpaceMismatch unless a and b share
    one space."""
    if not (0.0 <= s <= 1.0):
        raise ValueError("interpolation parameter must lie in [0, 1]")
    _same_space(a, b)
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
        for cp in cps[1:]:
            _same_space(cps[0], cp)
        self.space = cps[0].space
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

    def max_checkpoint_entropy(self) -> float:
        """The largest entropy of a checkpoint.  This is not the sup over
        the path: an interpolated measure can have more entropy than both
        of its ends."""
        return max(ks_entropy(cp) for cp in self.checkpoints)

    def to_json(self) -> str:
        return json.dumps({"checkpoints": [json.loads(cp.to_json())
                                           for cp in self.checkpoints]})

    @classmethod
    def from_json(cls, space: SftSpace, text: str) -> "MeasurePath":
        return cls([MarkovMeasure.from_json(space, json.dumps(cp))
                    for cp in json.loads(text)["checkpoints"]])


def refine_path(path: MeasurePath, stage: int) -> list[MarkovMeasure]:
    """Stage-s visiting schedule: the path sampled at mesh 1/stage, traversed
    forward and back, so every checkpoint recurs at every later stage."""
    if stage < 1:
        raise ValueError("stage must be positive")
    forward = [path.at(i / stage) for i in range(stage + 1)]
    return forward + forward[-2::-1]
