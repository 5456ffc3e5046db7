"""Matrix cocycles over the shift: exponents along orbits, bracketing bounds
for the maximal exponent, and glued families whose tails ride a fixed
generic orbit (making the tail exponent an exact equality)."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import SingularProduct
from .measures import MarkovMeasure, family_target, sample_word
from .shift import (SftSpace, Word, _symbols, by_word_row, check_rows,
                    glue_rows, glue_spans, topological_entropy, word_columns,
                    words_of_one_length)


class MatrixCocycle:
    """Locally constant GL(d) cocycle: one invertible matrix per depth-word,
    stacked in ``space.word_table(depth)`` row order."""

    def __init__(self, space: SftSpace, generators: dict, depth: int = 1):
        if depth < 1:
            raise ValueError("depth must be positive")
        mats = [np.array(v, dtype=float)
                for v in by_word_row(space, depth, generators, "generators")]
        words = list(map(tuple, space.word_table(depth).tolist()))
        for k, M in zip(words, mats):
            if M.ndim != 2 or M.shape[0] != M.shape[1]:
                raise ValueError("generators must be square")
            if M.shape != mats[0].shape:
                raise ValueError("generator dimensions disagree")
            if not np.isfinite(np.linalg.cond(M)):
                raise ValueError(f"generator for {k} is singular")
        self.space, self.depth, self.d = space, depth, int(mats[0].shape[0])
        self._stack = np.stack(mats)
        self._stack.setflags(write=False)
        self.generators = dict(zip(words, self._stack))

    def gen(self, window: Sequence[int]) -> np.ndarray:
        return self.generators[tuple(window)]

    def max_log_norm(self) -> float:
        """max over generators of max(log||A||, log||A^-1||), operator 2-norm."""
        worst = 0.0
        for M in self.generators.values():
            s = np.linalg.svd(M, compute_uv=False)
            worst = max(worst, math.log(s[0]), -math.log(s[-1]))
        return worst

    @classmethod
    def constant(cls, space: SftSpace, matrix) -> "MatrixCocycle":
        M = np.array(matrix, dtype=float)
        return cls(space, {(a,): M for a in range(space.m)})

    @classmethod
    def diagonal(cls, space: SftSpace, diags: dict) -> "MatrixCocycle":
        """Commuting family: symbol -> diagonal entries."""
        return cls(space, {(a,): np.diag(np.array(d, dtype=float))
                           for a, d in diags.items()})

    def to_json(self) -> str:
        return json.dumps({"generators": {
            Word(k).to_text(): M.tolist() for k, M in self.generators.items()}})

    @classmethod
    def from_json(cls, space: SftSpace, text: str) -> "MatrixCocycle":
        depth, generators = words_of_one_length(
            json.loads(text)["generators"], "generators")
        return cls(space, generators, depth)


# --------------------------- exponents ---------------------------


_RANK_WINDOWS = 1 << 14  # windows exponents_along compares or ranks at once
_CADENCE = 32  # steps between two rescalings of the running products


def _math_logs(values: np.ndarray) -> np.ndarray:
    """math.log of each value, as a float64 vector: np.log differs from it
    in the last bit on some inputs, which would move reported exponents."""
    return np.fromiter(map(math.log, values.tolist()), float, len(values))


def exponents_along(c: MatrixCocycle, rows: np.ndarray, n: int
                    ) -> list[float]:
    """(1/n) log ||product of the first n generators along each row|| of a
    symbol matrix, one word per row.

    The rows advance together as one (d, rows, d) array of running
    products, row r's product in ``[:, r, :]``.  A step where every row
    has the same window is one matrix product with that array seen as
    d x (rows d); the other steps multiply each row by its own generator.
    Every ``_CADENCE`` steps each row is scaled by the power of two of its
    largest entry, its exponent carried in an int64 counter.  A scaling by
    a power of two is exact, so each value equals the one-word walk of its
    row with ``==`` at every cadence; SingularProduct, naming the row and
    the step, when a product overflows, underflows to zero or turns nan
    between two scalings.  The windows are compared and ranked a block of
    steps at a time, at most about ``_RANK_WINDOWS`` symbols or ranks at
    once, so the memory held beyond the input and the products does not
    grow with n.
    """
    return _exponents_at(c, rows, (n,))[0]


_LOG2 = math.log(2)


def _scale(W: np.ndarray, E: np.ndarray, step: int) -> None:
    """Scale each row's product in W by the power of two that puts its
    largest entry in [1/2, 1), in place and exactly, adding the exponent
    to the row's counter in E.  SingularProduct, naming the first such
    row, when a row's largest entry is not finite and positive."""
    top = np.abs(W).max(axis=(0, 2))
    bad = np.flatnonzero(~(np.isfinite(top) & (top > 0)))
    if len(bad):
        raise SingularProduct(
            f"row {bad[0]}: the product of the first {step} generators "
            f"has largest entry {top[bad[0]]} (scaled every {_CADENCE} "
            f"steps); it overflowed, underflowed or is not a number")
    k = np.frexp(top)[1]
    np.ldexp(W, -k[None, :, None], out=W)
    E += k


def _exponents_at(c: MatrixCocycle, rows: np.ndarray, ns: Sequence[int]
                  ) -> list[list[float]]:
    """:func:`exponents_along` at each n of ns, from one walk of max(ns)
    steps; each value equals the walk of its own n."""
    n = max(ns)
    if min(ns) < 1:
        raise ValueError("n must be positive")
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise ValueError("rows must be a 2-d symbol matrix")
    if rows.shape[1] < n + c.depth - 1:
        raise ValueError(f"need word length >= {n + c.depth - 1}")
    if not len(rows):
        return [[] for _ in ns]
    d, R = c.d, len(rows)
    # row r's running product is W.reshape(d, R, d)[:, r, :]
    W = np.repeat(np.eye(d)[:, None], R, axis=1).reshape(d, R * d)
    E = np.zeros(R, dtype=np.int64)
    gens, at = list(c._stack), {}
    for i, (a, codes) in enumerate(_step_codes(c, rows, n)):
        if codes is None:
            W = gens[a] @ W
        else:
            W = (c._stack[codes] @ W.reshape(d, R, d).transpose(1, 0, 2)
                 ).transpose(1, 0, 2).reshape(d, R * d)
        if (i + 1) % _CADENCE == 0 or i + 1 in ns:
            _scale(W.reshape(d, R, d), E, i + 1)
        if i + 1 in ns:
            # W is a function of the products alone now, so the norm is
            # too, whatever the cadence
            f, k = np.frexp(np.linalg.norm(W.reshape(d, R, d), 2,
                                           axis=(0, 2)))
            at[i + 1] = ((_math_logs(f) + (E + k) * _LOG2)
                         / (i + 1)).tolist()
    return [at[m] for m in ns]


def _step_codes(c: MatrixCocycle, rows: np.ndarray, n: int
                ) -> Iterator[tuple[Optional[int], Optional[np.ndarray]]]:
    """Per step of the first n of the rows' walk, (a, None) when every row
    has the same window, a its rank, else (None, the rank of each row's
    window).  Ranks are taken a block of steps at a time, at most about
    ``_RANK_WINDOWS`` at once, and only row 0's at a shared step."""
    steps = max(1, _RANK_WINDOWS // len(rows))
    # the mask of shared steps covers about _RANK_WINDOWS steps, so rows
    # are compared along their length, not a column of many rows a step
    span = steps * max(1, _RANK_WINDOWS // steps)
    for top in range(0, n, span):
        end = min(top + span, n)
        shared = _shared_steps(rows[:, top:end + c.depth - 1], c.depth)
        for lo in range(top, end, steps):
            hi = min(lo + steps, end)
            # step-major: win[i, r] is window lo + i of row r
            win = sliding_window_view(rows[:, lo:hi + c.depth - 1].T,
                                      c.depth, axis=0)
            here = shared[lo - top:hi - top]
            codes = iter(word_columns(c.space, win[~here]))
            for a, same in zip(word_columns(c.space, win[:, 0]).tolist(),
                               here.tolist()):
                yield (a, None) if same else (None, next(codes))


def _shared_steps(block: np.ndarray, depth: int) -> np.ndarray:
    """Whether every row of a block of columns has row 0's window, at each
    window start; the rows are compared about ``_RANK_WINDOWS`` symbols at
    a time."""
    same = np.ones(block.shape[1], dtype=bool)
    step = max(1, _RANK_WINDOWS // len(same))
    for lo in range(0, len(block), step):
        same &= (block[lo:lo + step] == block[0]).all(axis=0)
    return sliding_window_view(same, depth).all(axis=1)


def exponent_along(c: MatrixCocycle, x: Union[Word, np.ndarray], n: int
                   ) -> float:
    """(1/n) log ||product of the first n generators along a word or 1-d
    symbol array x||: the one-row case of :func:`exponents_along`."""
    return exponents_along(c, _symbols(x)[None, :], n)[0]


def periodic_exponent(c: MatrixCocycle, cycle: Word) -> float:
    """(1/p) log spectral radius of the ordered product along one period;
    ValueError unless the cycle is nonempty and periodically admissible."""
    p = len(cycle)
    if p < 1:
        raise ValueError("cycle must be nonempty")
    if not c.space.is_admissible(cycle.symbols + cycle.symbols):
        raise ValueError(f"cycle {cycle.to_text()!r} is not periodically "
                         f"admissible")
    ext = cycle.symbols * ((c.depth // p) + 2)
    P = np.eye(c.d)
    scale = 0.0
    for i in range(p):
        P = c.gen(ext[i:i + c.depth]) @ P
        norm = np.linalg.norm(P, 2)
        if not np.isfinite(norm) or norm <= 0:
            raise SingularProduct("cycle product degenerate")
        scale += math.log(norm)
        P = P / norm
    rho = float(np.max(np.abs(np.linalg.eigvals(P))))
    if rho <= 0 or not np.isfinite(rho):
        raise SingularProduct("cycle product has zero spectral radius")
    return (scale + math.log(rho)) / p


def _cyclic_words(space: SftSpace, period: int) -> list[Word]:
    """Admissible necklaces of the given period: the ``word_table(period)``
    rows that close up and whose row, their count rank (lexicographic), is
    the least among their rotations', admissible since the row closes up."""
    table = space.word_table(period)
    own = np.flatnonzero(space.transition[table[:, -1], table[:, 0]])
    rows = table[own]
    least = np.ones(len(own), dtype=bool)
    for i in range(1, period):
        least &= own <= word_columns(space, np.roll(rows, -i, axis=1))
    return [Word(row) for row in rows[least].tolist()]


def exponent_bracket(c: MatrixCocycle, space: SftSpace, n: int,
                     max_period: int) -> tuple[float, float]:
    """Bracketing of the top exponent maximized over invariant measures.

    lower: best periodic exponent over orbits of period <= max_period;
    upper: (1/n) log of the largest product norm over admissible n-words
    (sound for every n by submultiplicativity) along the rows of
    ``space.word_table(n + c.depth - 1)``.  ValueError unless n and
    max_period are positive and the longest table holds <= 2,000,000 words.
    """
    if n < 1 or max_period < 1:
        raise ValueError(f"need n >= 1 and max_period >= 1, "
                         f"got {n} and {max_period}")
    longest = max(n + c.depth - 1, max_period)  # counts grow with length
    if space.count_words(longest) > 2_000_000:
        raise ValueError(f"{space.count_words(longest)} admissible "
                         f"{longest}-words: too many to enumerate")
    lower = max((periodic_exponent(c, w) for p in range(1, max_period + 1)
                 for w in _cyclic_words(space, p)), default=-math.inf)
    upper = max(exponents_along(c, space.word_table(n + c.depth - 1), n))
    return lower, upper


# --------------------------- glued families ---------------------------


@dataclass(frozen=True)
class LyapunovFamilyReport:
    members: np.ndarray          # read-only (members, horizon) symbol rows
    prefix_len: int
    horizon: int
    exponents: tuple[float, ...]
    reference_exponent: float
    tail_exponent: float
    deviations: tuple[float, ...]
    prefix_bound: float
    family_size: int
    target_size: int

    def all_within_bound(self) -> bool:
        return all(d <= self.prefix_bound + 1e-12 for d in self.deviations)

    def to_json(self) -> str:
        """Every field but the member rows."""
        return json.dumps({k: v for k, v in vars(self).items()
                           if k != "members"})


def emit_lyapunov_family(c: MatrixCocycle, space: SftSpace, mu: MarkovMeasure,
                         anchor: Optional[Word], N: int, seed: int,
                         eta: float = 0.1, tail_len: int = 512) -> LyapunovFamilyReport:
    """All admissible N-words glued as anchor + word + shared generic tail.

    Every member's tail is literally the same sampled mu-orbit, so the tail
    exponent matches the reference exactly; the full-horizon exponent differs
    from the reference by at most the reported prefix bound
    2 * prefix_len * max_log_norm / horizon.
    """
    gap = space.gap("emit_lyapunov_family")
    if space.count_words(N) > 2_000_000:
        raise ValueError(f"{space.count_words(N)} admissible {N}-words: too "
                         f"many for the all-words family")
    if tail_len < 1:
        raise ValueError("tail_len must be positive")
    dtype = space.symbol_dtype
    family = (space.word_table(N).astype(dtype) if N
              else np.empty((1, 0), dtype=dtype))
    target = family_target(N, topological_entropy(space), eta)
    anchor = anchor or Word(())
    prefix_len = glue_spans((len(anchor), N, tail_len), gap)[-1][0]
    horizon = prefix_len + tail_len
    # the one piece not admissible by construction
    check_rows(space, "anchor", anchor.to_array()[None])
    ref = sample_word(mu, horizon, seed)
    # a member is its glued prefix, then the shared tail: ref's first symbols
    members = glue_rows(space, (anchor, family, ref[:tail_len]), len(family),
                        gap)

    n_eval = horizon - (c.depth - 1)
    # ref's tail exponent is a prefix of its walk: one walk gives both
    (ref_exp,), (tail_exp,) = _exponents_at(c, ref[None], (n_eval, tail_len))
    exps = exponents_along(c, members, n_eval)
    devs = tuple(abs(e - ref_exp) for e in exps)
    bound = 2.0 * prefix_len * c.max_log_norm() / n_eval
    return LyapunovFamilyReport(
        members=members,
        prefix_len=prefix_len,
        horizon=horizon,
        exponents=tuple(exps),
        reference_exponent=ref_exp,
        tail_exponent=tail_exp,
        deviations=devs,
        prefix_bound=bound,
        family_size=len(members),
        target_size=target,
    )
