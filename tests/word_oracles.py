"""The word enumerations and counts that ``SftSpace.word_table`` and its
transfer-matrix counts replaced, kept as their oracles: the depth-first
walk that filled the table, the exponent bracket's depth-first search over
admissible words carrying running products, its necklace filter, the
object-arithmetic word count loop and the pairwise orbit-gap loop over
``dist``.  Also the ``Word`` paths that the symbol arrays replaced: the
per-symbol stream, the ``iglue`` walk that glued streams and words before
``shift.GluedRows`` (and its use per two-orbit member), the set-of-tuples
separated count, the list-of-``Word`` typical family and the exponents
ranked over all windows at once.  The set-of-tuples check that a tour
covers every word.  The window ranker that gathered every window of a 1-d
array from shifted views through a ``window_at`` callback, before
``word_columns`` over a sliding view replaced it.  The tuple walks of
``dist`` and ``hamming``, which took only words.  And the random spaces
the properties draw from."""
import itertools
import math
import threading

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from sftlab.cocycle import periodic_exponent
from sftlab.errors import OrbitsNotDisjoint, ShortFamily, WordsTooShort
from sftlab.measures import (_batch_weak_star, ks_entropy,
                             sample_words_batch)
from sftlab.shift import (SftSpace, Word, _rank_sums, connector, dist,
                          word_columns)


@st.composite
def primitive_spaces(draw):
    """A random primitive SFT on m <= 4 symbols whose primitivity index is
    at most 4, so brute-force bridge enumeration stays small."""
    m = draw(st.integers(1, 4))
    A = [[int(draw(st.integers(0, 3)) > 0) for _ in range(m)] for _ in range(m)]
    try:
        space = SftSpace(A)
    except ValueError:
        assume(False)
    assume(space.primitivity_index is not None
           and space.primitivity_index <= 4)
    return space


@st.composite
def nonprimitive_spaces(draw):
    """A random 0/1 matrix on m <= 4 symbols that ``SftSpace`` accepts (each
    symbol with a successor and a predecessor) and that is not primitive:
    reducible, periodic, or both."""
    m = draw(st.integers(1, 4))
    A = [[draw(st.integers(0, 1)) for _ in range(m)] for _ in range(m)]
    try:
        space = SftSpace(A)
    except ValueError:
        assume(False)
    assume(space.primitivity_index is None)
    return space


def dfs_words(space, length):
    """All admissible words of a length in lexicographic order, one tuple
    and one ``Word`` per word from a depth-first walk of the successors."""
    if length == 0:
        yield Word(())
        return
    stack = [(a,) for a in range(space.m - 1, -1, -1)]
    while stack:
        w = stack.pop()
        if len(w) == length:
            yield Word(w)
            continue
        for b in reversed(space.successors(w[-1])):
            stack.append(w + (b,))


def count_words_loop(space, length):
    """The number of admissible words of a length, one object product
    A @ v per extra symbol."""
    if length == 0:
        return 1
    v = np.ones(space.m, dtype=object)
    for _ in range(length - 1):
        v = space.transition.astype(object) @ v
    return int(v.sum())


def cyclic_words_filter(space, period):
    """Admissible necklaces of the given period (deduplicated by rotation)."""
    for w in dfs_words(space, period):
        s = w.symbols
        if not space.transition[s[-1], s[0]]:
            continue
        if min(s[i:] + s[:i] for i in range(len(s))) == s:
            yield w


def dfs_exponent_bracket(c, space, n, max_period):
    """exponent_bracket with its upper bound from a depth-first search over
    admissible words that carries each prefix's renormalized product."""
    lower = -math.inf
    for p in range(1, max_period + 1):
        for w in cyclic_words_filter(space, p):
            lower = max(lower, periodic_exponent(c, w))

    best = -math.inf
    stack = [((a,), None, 0.0) for a in range(space.m)]
    while stack:
        prefix, P, acc = stack.pop()
        if len(prefix) >= c.depth:
            step = c.gen(prefix[-c.depth:])
            P = step if P is None else step @ P
            norm = np.linalg.norm(P, 2)
            acc += math.log(norm)
            P = P / norm
        if len(prefix) - c.depth + 1 >= n:
            best = max(best, acc)
            continue
        for b in space.successors(prefix[-1]):
            stack.append((prefix + (b,), P, acc))
    return lower, best / n


def orbit_gap_loop(lam1, lam2):
    """min over rotations of the distance between two periodic orbits, one
    ``dist`` per rotation pair of words long enough to tell them apart."""
    p1, p2 = len(lam1), len(lam2)
    horizon = 2 * (p1 * p2) // math.gcd(p1, p2) + max(p1, p2) + 4
    worst = 1.0
    for i in range(p1):
        xi = Word([lam1[(i + t) % p1] for t in range(horizon)])
        for j in range(p2):
            yj = Word([lam2[(j + t) % p2] for t in range(horizon)])
            d = dist(xi, yj)
            if d == 0.0:
                raise OrbitsNotDisjoint(
                    f"orbits of {lam1.to_text()} and {lam2.to_text()} meet")
            worst = min(worst, d)
    return worst


class PerSymbolStream:
    """The stream the piece stream replaced: its factory yields one symbol
    at a time, each checked with one transition lookup, and
    ``materialize`` returns a Word."""

    def __init__(self, space, factory, label=""):
        self.space, self.label, self._factory = space, label, factory
        self._iter, self._buf = None, []
        self._lock = threading.Lock()

    def materialize(self, horizon):
        with self._lock:
            if self._iter is None:
                self._iter = self._factory()
            while len(self._buf) < horizon:
                s = next(self._iter)
                if self._buf and not self.space.transition[self._buf[-1], s]:
                    raise ValueError(
                        f"stream {self.label!r} emitted a forbidden "
                        f"transition {self._buf[-1]}->{s} at position "
                        f"{len(self._buf)}")
                self._buf.append(int(s))
            return Word(self._buf[:horizon])


def iglue(space, words, gap):
    """The symbols of ``shift.glue``, yielded lazily: the nonempty words
    (Words or 1-d symbol arrays), each pulled only once the symbols before
    it are consumed, with ``connector`` between each two."""
    prev = None
    for w in words:
        symbols = [int(x) for x in w]
        if not symbols:
            continue
        if prev is not None:
            yield from connector(space, prev, symbols[0], gap)
        yield from symbols
        prev = symbols[-1]


def contains_all_words(space, tour, depth):
    """Whether every admissible depth-word occurs in the tour, one set of
    the tour's depth-windows as tuples."""
    subs = {tour.symbols[i:i + depth] for i in range(len(tour) - depth + 1)}
    return subs.issuperset(map(tuple, space.word_table(depth).tolist()))


def iglue_two_orbit(space, orbits, xis, plan, horizon):
    """The two-orbit members as Words, one ``iglue`` walk per member over
    the plan's pieces (a shared Word or a private (slot, length) run)."""
    gap = space.primitivity_index

    def fill(piece, xi):
        if isinstance(piece, Word):
            return piece
        slot, n = piece
        base = orbits[xi[slot] - 1].symbols
        return Word((base * math.ceil(n / len(base)))[:n])

    return {xi: Word(itertools.islice(
        iglue(space, (fill(p, xi) for p in plan), gap), horizon))
        for xi in xis}


def set_separated_count(points, n, k):
    """The number of distinct prefixes of length max(n + k - 1, 1) of a list
    of words, one tuple per word in a set."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    L = max(n + k - 1, 1)
    prefixes = set()
    for w in points:
        if len(w) < L:
            raise WordsTooShort(f"word of length {len(w)} < prefix length {L}")
        prefixes.add(w.symbols[:L])
    return len(prefixes)


def word_typical_separated_family(mu, n, delta, eta, seed, typical_tol=None,
                                  typical_depth=2, max_attempts=None):
    """``typical_separated_family`` as a list of Words: a set of row tuples
    for the duplicates and one Word per kept int64 row."""
    space = mu.space
    target = max(1, math.ceil(math.exp(n * (ks_entropy(mu) - eta)) - 1e-9))
    tol = eta if typical_tol is None else typical_tol
    need = math.ceil(delta * n - 1e-12)
    cap = max_attempts if max_attempts is not None else max(200 * target,
                                                            20_000)
    arr = np.empty((target, n), dtype=np.int64)
    filled, seen, attempts, batch_no = 0, set(), 0, 0
    while filled < target and attempts < cap:
        batch_size = min(max(1024, target // 2), cap - attempts)
        batch = sample_words_batch(mu, n, batch_size,
                                   seed=seed + 7919 * batch_no)
        batch_no += 1
        attempts += batch_size
        dists = _batch_weak_star(space, batch, mu, typical_depth)
        for row, d in zip(batch, dists):
            if d > tol:
                continue
            t = tuple(row.tolist())
            if t in seen:
                continue
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


def unchunked_exponents_along(c, rows, n, cadence=32):
    """``exponents_along`` with every window ranked at once, a step-major
    (n, rows) int64 matrix, and the logs carried in a Python list."""
    rows = np.asarray(rows)
    codes = word_columns(c.space, sliding_window_view(
        rows[:, :n + c.depth - 1].T, c.depth, axis=0))
    P = np.tile(np.eye(c.d), (len(rows), 1, 1))
    acc = [0.0] * len(rows)
    for i in range(n):
        P = c._stack[codes[i]] @ P
        if (i + 1) % cadence == 0:
            norms = np.linalg.norm(P, 2, axis=(1, 2))
            acc = [a + math.log(v) for a, v in zip(acc, norms.tolist())]
            P = P / norms[:, None, None]
    norms = np.linalg.norm(P, 2, axis=(1, 2)).tolist()
    return [(a + math.log(v)) / n for a, v in zip(acc, norms)]


def column_ranks(space, symbols, columns, window_at):
    """The count rank of each window whose i-th symbols are columns[i],
    views of the array symbols, as ``shift._column_ranks`` gathered them;
    ValueError names ``window_at`` of the first window (in C order) that is
    not an admissible word."""
    L, m = len(columns), space.m
    K = len(space.word_table(L))
    ranks = space._word_cache[L][1]
    try:
        if symbols.dtype.kind == "i" and symbols.size and symbols.min() < 0:
            raise IndexError("negative symbol")  # a gather would wrap it
        cols = _rank_sums(ranks, columns)
        if not cols.size or cols.max() < K:
            return cols
        bad = cols >= K
    except IndexError:  # a symbol outside the alphabet
        cols = _rank_sums(ranks, [np.clip(c, 0, m - 1) for c in columns])
        bad = cols >= K
        for c in columns:
            bad |= (c < 0) | (c >= m)
    window = window_at(np.unravel_index(bad.argmax(), bad.shape))
    raise ValueError(f"window {tuple(window.tolist())} is not an "
                     f"admissible {L}-word")


def window_columns(space, x, length):
    """``shift.window_columns``: the word-table rows of every length-window
    of a 1-d symbol array, in order, gathered from ``length`` shifted views
    of x; ValueError when x is shorter than one window or a window is not
    admissible."""
    x = np.asarray(x)
    count = len(x) - length + 1
    if length < 1 or count < 1:
        raise ValueError(f"no {length}-window in {len(x)} symbols")
    return column_ranks(space, x, [x[i:i + count] for i in range(length)],
                        lambda at: x[at[0]:at[0] + length])


def tuple_dist(x, y):
    """shift.dist as it walked the two Words' symbol tuples."""
    n = min(len(x), len(y))
    for t in range(n):
        if x.symbols[t] != y.symbols[t]:
            return 2.0 ** (-t)
    return 0.0 if len(x) == len(y) else 2.0 ** (-n)


def tuple_hamming(x, y, n):
    """shift.hamming as it counted mismatches of two Words' tuples."""
    if len(x) < n or len(y) < n:
        raise WordsTooShort(f"need length >= {n}")
    return sum(1 for j in range(n) if x.symbols[j] != y.symbols[j])
