"""Subshifts of finite type: words and their index, block graphs and the
Perron root, admissibility, the shift metric, Bowen-ball separation
predicates, bridging words, and gluing (word concatenation with fixed-length
bridges, the one join every construction uses, ``glue_spans``, the one rule
for where each glued word lands, and ``GluedRows`` for any window of an
array of members, whose whole is ``glue_rows``).

Conventions fixed here and used everywhere else:

* one-sided shifts over the alphabet {0, ..., m-1};
* one word index: a word's row in ``SftSpace.word_table(L)`` (lexicographic)
  indexes every table over admissible L-words.  That row is the word's count
  rank, the number of admissible L-words before it, which
  :func:`word_columns` sums from a small rank table without a radix, so any
  length and alphabet whose words fit in memory is indexed;
* metric d(x, y) = 2**(-t) with t the first index of disagreement, so a
  statement "(n, 2**(-k))-separated" is exactly "distinct prefixes of
  length n + k - 1";
* bridging words are the lexicographically smallest admissible choice.
"""
from __future__ import annotations

import bisect
import json
import math
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import (Callable, Iterable, Iterator, NamedTuple, Optional,
                    Sequence, Union)

import numpy as np

from .errors import GapTooSmall, NotPrimitive, WordsTooShort

_WIELANDT = lambda m: (m - 1) ** 2 + 1  # noqa: E731  classical primitivity horizon


# --------------------------- words ---------------------------


class Word:
    """An immutable finite symbol sequence.

    Admissibility against a transition matrix is checked when words are
    created through :meth:`SftSpace.word`; slicing preserves it for free.
    """

    __slots__ = ("symbols",)

    def __init__(self, symbols: Iterable[int]):
        object.__setattr__(self, "symbols", tuple(map(int, symbols)))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __getitem__(self, i):
        if isinstance(i, slice):
            if i.step not in (None, 1):
                raise ValueError("only contiguous slices keep admissibility")
            return Word(self.symbols[i])
        return self.symbols[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __add__(self, other: "Word") -> "Word":
        return Word(self.symbols + tuple(other))

    def __repr__(self) -> str:
        return f"Word({self.to_text()!r})"

    def to_array(self) -> np.ndarray:
        """The symbols as a uint8 array (int64 when one exceeds 255)."""
        try:
            return np.frombuffer(bytes(self.symbols), dtype=np.uint8)
        except ValueError:
            return np.array(self.symbols, dtype=np.int64)

    def to_text(self) -> str:
        """One character per symbol for alphabets up to 10, else comma-separated
        with a trailing comma for one symbol: "10," is (10,), "10" is (1, 0)."""
        if all(s < 10 for s in self.symbols):
            return "".join(str(s) for s in self.symbols)
        return ",".join(str(s) for s in self.symbols) + \
            ("," if len(self.symbols) == 1 else "")

    @staticmethod
    def from_text(text: str) -> "Word":
        if "," in text:
            return Word(int(p) for p in text.split(",") if p != "")
        return Word(int(c) for c in text)


def _symbols(x: Union[Word, np.ndarray]) -> np.ndarray:
    """The symbols of a word, or a 1-d symbol array as it is."""
    return x if isinstance(x, np.ndarray) else x.to_array()


# --------------------------- the ambient space ---------------------------


class SftSpace:
    """Alphabet size m plus a 0/1 transition matrix.

    ``symbol_dtype`` is the smallest unsigned dtype that holds every symbol,
    the dtype of the symbol arrays streams and families return.
    """

    def __init__(self, transition: Sequence[Sequence[int]]):
        A = np.array(transition, dtype=np.int64)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("transition matrix must be square")
        if not A.size:
            raise ValueError("a space needs at least one symbol")
        if not np.isin(A, (0, 1)).all():
            raise ValueError("transition entries must be 0 or 1")
        if (A.sum(axis=1) == 0).any() or (A.sum(axis=0) == 0).any():
            raise ValueError("every symbol needs a successor and a predecessor")
        self.m = int(A.shape[0])
        self.symbol_dtype = np.min_scalar_type(self.m - 1)
        self.transition = A
        self.transition.setflags(write=False)
        self._reach_cache: dict[int, np.ndarray] = {0: np.eye(self.m, dtype=bool)}
        self._bridge_cache: dict[tuple[int, int, int], tuple[int, ...]] = {}
        self._cyl_cache: dict[int, tuple] = {}  # measures._cylinders
        self._word_cache: dict[int, tuple] = {}  # L: (words, ranks)
        self._block_cache: dict[int, BlockGraph] = {}  # block_graph

    @cached_property
    def primitivity_index(self) -> Optional[int]:
        """The smallest t with ``transition**t`` entrywise positive, None
        when the matrix is not primitive; computed on first read."""
        P = self.transition.astype(bool)
        power = P.copy()
        for t in range(1, _WIELANDT(self.m) + 1):
            if power.all():
                return t
            power = power @ P
        return None

    def gap(self, who: str) -> int:
        """The primitivity index, the least gap :func:`connector` accepts;
        NotPrimitive naming who when the space is not primitive."""
        if self.primitivity_index is None:
            raise NotPrimitive(f"{who} needs a primitive space")
        return self.primitivity_index

    @cached_property
    def _succ(self) -> list[tuple[int, ...]]:
        return [tuple(np.flatnonzero(row).tolist()) for row in self.transition]

    # -- constructors --

    @classmethod
    def full_shift(cls, m: int) -> "SftSpace":
        return cls(np.ones((m, m), dtype=np.int64))

    @classmethod
    def golden_mean(cls) -> "SftSpace":
        """Two symbols, the word 11 forbidden."""
        return cls([[1, 1], [1, 0]])

    # -- predicates and enumeration --

    def successors(self, a: int) -> tuple[int, ...]:
        return self._succ[a]

    def is_admissible(self, symbols: Sequence[int]) -> bool:
        s = list(symbols)
        if any(not (0 <= x < self.m) for x in s):
            return False
        return all(self.transition[s[i], s[i + 1]] for i in range(len(s) - 1))

    def word(self, symbols: Iterable[int]) -> Word:
        w = Word(symbols)
        if not self.is_admissible(w.symbols):
            raise ValueError(f"word {w.to_text()!r} is not admissible")
        return w

    def parse(self, text: str) -> Word:
        return self.word(Word.from_text(text).symbols)

    def words(self, length: int) -> Iterator[Word]:
        """The rows of :meth:`word_table` as Words, built at the call, which
        raises its ValueError or MemoryError; length 0: the empty word."""
        if length < 0:
            raise ValueError(f"word length must be non-negative, got {length}")
        if length == 0:
            return iter([Word(())])
        return map(Word, self.word_table(length).tolist())

    def word_table(self, length: int) -> np.ndarray:
        """The admissible words of a length as the rows of one read-only
        int64 array, in lexicographic order, cached with their rank table;
        that is built first, so a length it rejects fills no row."""
        if length < 1:
            raise ValueError(f"word length must be positive, got {length}")
        if length not in self._word_cache:
            tails = _tail_counts(self.transition, length)
            ranks = _rank_table(self.transition, tails)
            self._word_cache[length] = _fill_words(self.transition, tails), ranks
        return self._word_cache[length][0]

    def count_words(self, length: int) -> int:
        """The exact number of admissible words of a length (>= 0)."""
        if length < 0:
            raise ValueError(f"word length must be non-negative, got {length}")
        return int(_tail_counts(self.transition, length)[-1].sum()) if length else 1

    def reach(self, t: int) -> np.ndarray:
        """Boolean matrix: is there a path of exactly t edges from i to j."""
        if t not in self._reach_cache:
            self._reach_cache[t] = self.reach(t - 1) @ self.transition.astype(bool)
        return self._reach_cache[t]

    # -- serialization --

    def to_json(self) -> str:
        return json.dumps({"transition": self.transition.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "SftSpace":
        return cls(json.loads(text)["transition"])

    def __eq__(self, other) -> bool:
        return isinstance(other, SftSpace) and np.array_equal(
            self.transition, other.transition
        )

    def __hash__(self) -> int:
        return hash(self.transition.tobytes())

    def __repr__(self) -> str:
        return f"SftSpace(m={self.m}, full={bool(self.transition.all())})"


def _tail_counts(A: np.ndarray, length: int) -> list:
    """Exact A^k 1 for k < length: [k][b] counts (k+1)-words from b."""
    Ao, tails = A.astype(object), [np.ones(len(A), dtype=object)]
    for _ in range(length - 1):
        tails.append(Ao @ tails[-1])
    return tails


def _rank_table(A: np.ndarray, tails: list) -> np.ndarray:
    """The (length, m+1, m) int64 rank table, from the length's tail counts:
    [i, a, s] counts the words that agree with a word before i and hold at
    i an admissible successor of a smaller than s (row m: any predecessor,
    at i = 0), so the sum over i of [i, x[i-1], x[i]] is the count rank of
    x (Lind & Marcus 1995).  A forbidden step holds the word count K, so a
    sum reaches K exactly when x is not admissible; ValueError when
    length * K, which bounds every sum, reaches the int64 limit."""
    m, length = len(A), len(tails)
    K = int(tails[-1].sum())
    if length * K >= 2**63:
        raise ValueError(f"{K} admissible {length}-words: rank sums of "
                         f"{length} entries up to {K} pass the int64 limit "
                         f"2**63")
    steps = np.vstack([A, np.ones(m, dtype=np.int64)])  # row m: no predecessor
    ranks = np.empty((length, m + 1, m), dtype=np.int64)
    for i in range(length):
        below = steps * tails[length - 1 - i].astype(np.int64)
        ranks[i] = np.cumsum(below, axis=1) - below
    ranks[:, steps == 0] = K
    ranks.setflags(write=False)
    return ranks


def _fill_words(A: np.ndarray, tails: list) -> np.ndarray:
    """The read-only rows of ``word_table(len(tails))``: column j repeats the
    last symbol of each admissible (j+1)-prefix once per word it starts.
    ValueError, naming the size, when the int64 table would reach 2**63
    bytes, numpy's limit for one array."""
    K, length = int(tails[-1].sum()), len(tails)
    if 8 * length * K >= 2**63:
        raise ValueError(f"{K} admissible {length}-words: a table of "
                         f"{8 * length * K} bytes passes numpy's 2**63-byte "
                         f"array limit")
    table = np.empty((K, length), dtype=np.int64)
    last = np.arange(len(A))
    for j, tail in enumerate(reversed(tails)):
        if j:
            last = np.nonzero(A[last])[1]
        table[:, j] = np.repeat(last, tail[last].astype(np.int64))
    table.setflags(write=False)
    return table


def _rank_sums(ranks: np.ndarray, columns: Sequence[np.ndarray]) -> np.ndarray:
    """Each window's rank from its symbol columns (columns[i] holds the
    windows' i-th symbols), one gather per position; IndexError past m."""
    cols = ranks[0, -1].take(columns[0])
    for i in range(1, len(columns)):
        cols += ranks[i, columns[i - 1], columns[i]]
    return cols


def word_columns(space: SftSpace, words: np.ndarray) -> np.ndarray:
    """Row in ``space.word_table(L)`` of each length-L window along the last
    axis of a symbol array or view (a ``sliding_window_view`` ranks every
    window of a row), (..., L) to (...): the count rank, one gather of the
    rank table per position.  ValueError names the first window (in C
    order) that is not an admissible L-word."""
    words = np.asarray(words)
    L, m = words.shape[-1], space.m
    K = len(space.word_table(L))
    ranks = space._word_cache[L][1]
    columns = [words[..., i] for i in range(L)]
    try:
        if words.dtype.kind == "i" and words.size and words.min() < 0:
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
    window = words[np.unravel_index(bad.argmax(), bad.shape)]
    raise ValueError(f"window {tuple(window.tolist())} is not an "
                     f"admissible {L}-word")


def words_of_one_length(record: dict, name: str) -> tuple[int, dict]:
    """A JSON record keyed by word texts as its words' length and the
    {symbols: value} mapping; ValueError naming one key of each length when
    the lengths differ, or for a record with no key."""
    words = [(k, Word.from_text(k).symbols) for k in record]
    first: dict[int, str] = {}
    for k, w in words:
        first.setdefault(len(w), k)
    if len(first) != 1:
        named = ", ".join(f"{k!r} (length {n})" for n, k in first.items())
        raise ValueError(f"{name} keys must be words of one length, got "
                         f"{named or 'no key'}")
    return len(words[0][1]), {w: record[k] for k, w in words}


def by_word_row(space: SftSpace, length: int, mapping: dict,
                name: str) -> list:
    """The values of a {length-word symbols: value} mapping in
    ``space.word_table(length)`` row order; ValueError, counting the missing
    and extra words, unless its keys are exactly the admissible words."""
    keys = [tuple(int(s) for s in k) for k in mapping]
    expected = set(map(tuple, space.word_table(length).tolist()))
    if set(keys) != expected:
        raise ValueError(
            f"{name} must cover exactly the admissible {length}-words "
            f"(missing {len(expected - set(keys))}, "
            f"extra {len(set(keys) - expected)})")
    values = list(mapping.values())
    rows = word_columns(space, np.array(keys).reshape(len(keys), length))
    return [values[i] for i in np.argsort(rows).tolist()]


# --------------------------- block graphs and the Perron root ---------------------------


@dataclass(frozen=True)
class InEdges:
    """Each node's in-edges, in edge order, padded to the largest in-degree
    (at least 1).  ``src[v]`` holds their source nodes and ``edge[v]`` their
    edge indices; a pad has the edge index ``len(edges)``, which
    :meth:`weights` gives the absent weight, and the node's first source
    (else 0), so a pad never wins a max.  ``bare`` lists the nodes with no
    in-edge."""
    src: np.ndarray
    edge: np.ndarray
    bare: np.ndarray

    @classmethod
    def of(cls, n: int, src: np.ndarray, dst: np.ndarray) -> "InEdges":
        order = np.argsort(dst, kind="stable")
        deg = np.bincount(dst, minlength=n)
        starts = np.cumsum(deg) - deg
        nodes = dst[order]
        slot = np.arange(len(order)) - starts[nodes]
        edge = np.full((n, max(int(deg.max(initial=0)), 1)), len(order))
        edge[nodes, slot] = order
        sources = np.zeros(edge.shape, dtype=np.intp)
        sources[nodes, slot] = src[order]
        sources = np.where(edge == len(order), sources[:, :1], sources)
        return cls(sources, edge, np.flatnonzero(deg == 0))

    def weights(self, w: np.ndarray, absent) -> np.ndarray:
        """Edge weights (..., edges) laid out on the table: (..., n, d)."""
        pad = np.full(w.shape[:-1] + (1,), absent, dtype=w.dtype)
        return np.concatenate([w, pad], axis=-1)[..., self.edge]


@dataclass(frozen=True)
class BlockGraph:
    """The ell-words as nodes, (ell+1)-words as edges, each in its
    ``space.word_table`` order: edge j is the (ell+1)-word in row j, from
    its first to its last ell symbols."""
    space: SftSpace
    ell: int
    src: np.ndarray  # u of each edge, in edge order
    dst: np.ndarray  # v of each edge
    in_edges: InEdges

    def n_nodes(self) -> int:
        return len(self.space.word_table(self.ell))

    def block_space(self) -> SftSpace:
        """The graph as a one-step space on its nodes, built once per graph,
        so its word tables and caches are shared; at ell = 1 the space
        itself."""
        return self._block_space

    @cached_property
    def _block_space(self) -> SftSpace:
        if self.ell == 1:
            return self.space
        A = np.zeros((self.n_nodes(), self.n_nodes()), dtype=np.int64)
        A[self.src, self.dst] = 1
        return SftSpace(A)


def block_graph(space: SftSpace, ell: int) -> BlockGraph:
    """The ell-block graph with its in-edge table, cached on the space."""
    graph = space._block_cache.get(ell)
    if graph is None:
        ew = space.word_table(ell + 1)
        src, dst = word_columns(space, ew[:, :-1]), word_columns(space, ew[:, 1:])
        graph = space._block_cache[ell] = BlockGraph(
            space, ell, src, dst,
            InEdges.of(len(space.word_table(ell)), src, dst))
    return graph


def _perron(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Perron roots (B,) and right eigenvectors (B, n), each summing to 1,
    of a stack of nonnegative matrices (B, n, n), from one dense
    eigendecomposition call.  LAPACK solves each matrix on its own, so a
    row's result does not depend on its batch.  Every other eigenvalue has
    modulus at most the real root, so the root has the largest real part,
    also when the matrix is close to periodic.  One multiplication by M
    confirms the root."""
    vals, vecs = np.linalg.eig(M)
    v = vecs[np.arange(len(M)), :, vals.real.argmax(axis=-1)].real
    v = v / v.sum(axis=-1, keepdims=True)
    return (M @ v[..., None])[..., 0].sum(axis=-1), v


def topological_entropy(space: SftSpace) -> float:
    """log of the Perron root of the transition matrix itself."""
    lam, _ = _perron(space.transition.astype(float)[None])
    return math.log(lam[0])


# --------------------------- metric and separation ---------------------------


def dist(x: Union[Word, np.ndarray], y: Union[Word, np.ndarray]) -> float:
    """d = 2**(-t), t the first disagreement; 0 for equal words (each a
    word or a 1-d symbol array).

    Words agreeing on the shorter length but of different lengths are at
    distance 2**(-min length): the missing symbols count as unknown.
    """
    n = min(len(x), len(y))
    differ = np.flatnonzero(_symbols(x)[:n] != _symbols(y)[:n])
    if differ.size:
        return 2.0 ** (-int(differ[0]))
    if len(x) == len(y):
        return 0.0
    return 2.0 ** (-n)


def _prefix_rows(points: Union[np.ndarray, Iterable[Word]],
                 L: int) -> np.ndarray:
    """The first L symbols of each point as the rows of a 2-d array: the
    columns of a symbol matrix, or the rows built from a sequence of words;
    WordsTooShort when a point is shorter than L."""
    if isinstance(points, np.ndarray):
        if points.ndim != 2:
            raise ValueError("points must be a 2-d symbol matrix")
        if points.shape[1] < L:
            raise WordsTooShort(f"word of length {points.shape[1]} < prefix "
                                f"length {L}")
        return points[:, :L]
    points = list(points)
    for w in points:
        if len(w) < L:
            raise WordsTooShort(f"word of length {len(w)} < prefix length {L}")
    return np.array([w.symbols[:L] for w in points],
                    dtype=np.int64).reshape(len(points), L)


def distinct_rows(rows: np.ndarray) -> int:
    """The number of distinct rows of a 2-d array: one lexsort of the rows,
    then one compare of each sorted row with the one before it."""
    if len(rows) < 2 or not rows.shape[1]:
        return min(len(rows), 1)
    ordered = rows[np.lexsort(rows.T[::-1])]
    return 1 + int((ordered[1:] != ordered[:-1]).any(axis=1).sum())


def separated_count(points: Union[np.ndarray, Iterable[Word]], n: int,
                    k: int) -> int:
    """Exact maximal (n, 2**(-k))-separated cardinality of a word set, given
    as the rows of a symbol matrix or as words.

    Under the metric convention this is the number of distinct prefixes of
    length max(n + k - 1, 1); the ultrametric makes the greedy maximum exact.
    """
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    return distinct_rows(_prefix_rows(points, max(n + k - 1, 1)))


def hamming(x: Union[Word, np.ndarray], y: Union[Word, np.ndarray],
            n: int) -> int:
    """The mismatches of two words or 1-d symbol arrays on their first n
    coordinates (0 for n <= 0)."""
    if len(x) < n or len(y) < n:
        raise WordsTooShort(f"need length >= {n}")
    n = max(n, 0)
    return int(np.count_nonzero(_symbols(x)[:n] != _symbols(y)[:n]))


def hamming_matrix(words: Union[np.ndarray, Sequence[Word]],
                   n: int) -> np.ndarray:
    """Pairwise :func:`hamming` distances on the first n coordinates of the
    rows of a symbol matrix (or of words), as one integer matrix: n minus
    each pair's agreements, counted by one product of the rows' one-hot
    rows."""
    X = _prefix_rows(words, n)
    symbols = np.flatnonzero(np.bincount(X.ravel()))  # the symbols present
    hot = (X[:, :, None] == symbols).reshape(len(X), n * len(symbols))
    agree = hot.astype(np.int32) @ hot.T.astype(np.int32)
    return np.subtract(n, agree, out=agree)


def delta_separated(x: Union[Word, np.ndarray], y: Union[Word, np.ndarray],
                    n: int, delta: float) -> bool:
    """Normalized Hamming distance >= delta on the first n coordinates.

    This is (delta, n, eps)-separation at eps = 1/2: under the metric,
    d(sigma^j x, sigma^j y) > 1/2 happens exactly at mismatched coordinates.
    """
    return hamming(x, y, n) >= delta * n


# --------------------------- bridging words ---------------------------


def connector(space: SftSpace, a: int, b: int, gap: int) -> Word:
    """Lexicographically smallest word w of length gap-1 with a.w.b admissible.

    Requires a primitive space and gap >= primitivity index, which guarantees
    a bridge of every such length exists between any two symbols.
    """
    index = space.gap("connector")
    if gap < index:
        raise GapTooSmall(f"gap {gap} < primitivity index {index}")
    if not (0 <= a < space.m and 0 <= b < space.m):
        raise ValueError("symbols out of range")
    out = []
    cur = a
    for i in range(gap - 1):
        remaining = gap - 1 - i  # edges still needed from the chosen symbol to b
        for s in space.successors(cur):
            if space.reach(remaining)[s, b]:
                out.append(s)
                cur = s
                break
        else:  # pragma: no cover - impossible when gap >= primitivity index
            raise GapTooSmall(f"no bridge of length {gap} from {a} to {b}")
    return Word(out)


def bridge(space: SftSpace, a: int, b: int, gap: int) -> tuple[int, ...]:
    """The symbols of ``connector(space, a, b, gap)``, memoised per space
    keyed (a, b, gap); racing misses store equal values."""
    key = (a, b, gap)
    symbols = space._bridge_cache.get(key)
    if symbols is None:
        symbols = space._bridge_cache[key] = connector(space, a, b, gap).symbols
    return symbols


def glue(space: SftSpace, words: Iterable[Word], gap: int) -> Word:
    """Concatenate the words, skipping empty ones, with the connector of
    length gap-1 between each two: the one row of :func:`glue_rows`."""
    return Word(glue_rows(space, list(words), 1, gap)[0].tolist())


def glue_spans(lengths: Iterable[int], gap: int) -> list[tuple[int, int]]:
    """The (start, end) of each word inside ``glue(words, gap)``, given the
    words' lengths: every nonempty word but the first follows a bridge of
    gap-1 symbols.  An empty word is skipped, as glue skips it; its span is
    the empty one at the end of what is glued before it."""
    spans = []
    end = 0
    for n in lengths:
        if n:
            start = end + (gap - 1 if end else 0)
            end = start + n
            spans.append((start, end))
        else:
            spans.append((end, end))
    return spans


class Periodic(NamedTuple):
    """A glue piece too long to hold: ``cycle`` (1-d, or 2-d with one row
    per member) repeated along its last axis to ``length`` symbols."""
    cycle: np.ndarray
    length: int


_Piece = Union[Word, np.ndarray, Periodic]


def _cut(p: Union[np.ndarray, Periodic], a: int, b: int) -> np.ndarray:
    """Symbols [a, b) of a piece along its last axis."""
    if isinstance(p, Periodic):
        return p.cycle[..., np.arange(a, b) % p.cycle.shape[-1]]
    return p[..., a:b]


class GluedRows:
    """Each member's :func:`glue` of the pieces, cut at horizon, glued a
    window of columns at a time: a piece is a Word or 1-d array all members
    share, a 2-d array with one row per member, or a :class:`Periodic` run
    of either, and lands at its :func:`glue_spans` span.  A window looks up
    each bridge it meets once per distinct (last, first) pair and touches
    only the pieces it meets.  A gap below 1, or below the primitivity index
    where two nonempty pieces meet, raises GapTooSmall and a negative horizon
    ValueError; the symbols are not checked."""

    def __init__(self, space: SftSpace, pieces: Sequence[_Piece],
                 members: int, gap: int, horizon: Optional[int] = None):
        if gap < 1:
            raise GapTooSmall(f"gap {gap} < 1")
        if horizon is not None and horizon < 0:
            raise ValueError(f"horizon must be non-negative, got {horizon}")
        arrays = [p if isinstance(p, Periodic) else _symbols(p)
                  for p in pieces]
        shapes = [(p.cycle.shape[:-1], p.length) if isinstance(p, Periodic)
                  else (p.shape[:-1], p.shape[-1]) for p in arrays]
        if any(lead not in ((), (members,)) for lead, _ in shapes):
            raise ValueError("a piece is 1-d, or 2-d with one row per member")
        spans = glue_spans((n for _, n in shapes), gap)
        kept = [i for i, (a, b) in enumerate(spans) if a < b]
        if len(kept) > 1 and gap < space.gap("glue_rows"):
            raise GapTooSmall(f"gap {gap} < primitivity index "
                              f"{space.primitivity_index}")
        self.space, self.members, self.gap = space, members, gap
        self._pieces = [arrays[i] for i in kept]
        self._spans = [spans[i] for i in kept]
        self._ends = [end for _, end in self._spans]
        self.length = min(self._ends[-1] if kept else 0,
                          math.inf if horizon is None else horizon)

    def window(self, lo: int, hi: int) -> np.ndarray:
        """Columns [lo, hi) of the glued rows, as one read-only (members,
        hi - lo) array of ``space.symbol_dtype``."""
        if not 0 <= lo <= hi <= self.length:
            raise ValueError(f"window [{lo}, {hi}) outside [0, "
                             f"{self.length})")
        out = np.empty((self.members, hi - lo), dtype=self.space.symbol_dtype)
        m, gap = self.space.m, self.gap
        for k in range(bisect.bisect_right(self._ends, lo), len(self._pieces)):
            p, (start, end) = self._pieces[k], self._spans[k]
            a = self._ends[k - 1] if k else start  # where its bridge starts
            if a >= hi:
                break
            if max(a, lo) < min(start, hi):
                n = self._ends[k - 1] - self._spans[k - 1][0]
                last = _cut(self._pieces[k - 1], n - 1, n)[..., 0]
                keys = last.astype(np.int64) * m + _cut(p, 0, 1)[..., 0]
                pairs = sorted(set(keys.ravel().tolist()))
                at = np.searchsorted(pairs, keys) if keys.ndim else 0
                table = np.array([bridge(self.space, *divmod(key, m), gap)
                                  for key in pairs], dtype=out.dtype)
                out[:, max(a, lo) - lo:min(start, hi) - lo] = table.reshape(
                    len(pairs), gap - 1)[at, max(lo - a, 0):min(start, hi) - a]
            if max(start, lo) < min(end, hi):
                out[:, max(start, lo) - lo:min(end, hi) - lo] = _cut(
                    p, max(lo - start, 0), min(end, hi) - start)
        out.flags.writeable = False
        return out


def glue_rows(space: SftSpace, pieces: Sequence[_Piece], members: int,
              gap: int, horizon: Optional[int] = None) -> np.ndarray:
    """Each member's :func:`glue` of the pieces, cut at horizon, as the rows
    of one read-only (members, length) array: the [0, length) window of
    :class:`GluedRows`."""
    rows = GluedRows(space, pieces, members, gap, horizon)
    return rows.window(0, rows.length)


def check_rows(space: SftSpace, what: str, rows: np.ndarray) -> None:
    """Raise ValueError naming what, the first 2-d symbol row with a
    forbidden transition, and the position in it of the symbol entered."""
    bad = np.argwhere(~space.transition.astype(bool)[rows[:, :-1], rows[:, 1:]])
    if len(bad):
        i, t = bad[0]
        raise ValueError(
            f"{what} {Word(rows[i].tolist()).to_text()!r} has a forbidden "
            f"transition {rows[i, t]}->{rows[i, t + 1]} at position {t + 1}")


# --------------------------- symbol streams ---------------------------


class SymbolStream:
    """Deterministic resumable symbol source: the :func:`glue` of the words
    (Words or 1-d symbol arrays) the factory's iterator yields.

    ``materialize(H)`` returns the first H symbols as a read-only array of
    ``space.symbol_dtype``, a prefix of every longer call's.  It pulls words
    only until their :func:`glue_spans` end reaches H, each checked against
    the alphabet, glues the new window with :class:`GluedRows` and checks
    its transitions, from the symbol before it on, with :func:`check_rows`.
    Of the words glued whole it keeps the last symbol, the next bridge's.
    """

    def __init__(self, space: SftSpace,
                 factory: Callable[[], Iterator[Union[Word, np.ndarray]]],
                 gap: int, label: str = ""):
        self.space, self.gap, self.label = space, gap, label
        self._factory, self._iter = factory, None
        self._buf = np.empty(0, dtype=space.symbol_dtype)
        self._len = 0  # symbols glued into the buffer
        self._words: list[np.ndarray] = []  # pulled, not yet glued whole
        self._origin = self._end = 0  # where the first starts, the last ends
        self._lock = threading.Lock()

    def _extend(self, horizon: int) -> None:
        """Pull words until they reach horizon; glue and check up to it."""
        if self._iter is None:
            self._iter = self._factory()
        while self._end < horizon:
            word = next(self._iter, None)
            if word is None:  # pragma: no cover - streams are infinite
                raise WordsTooShort(
                    f"stream {self.label!r} exhausted at {self._end}")
            word = _symbols(word)
            start, self._end = glue_spans((self._end, len(word)), self.gap)[1]
            bad = np.flatnonzero((word < 0) | (word >= self.space.m))
            if len(bad):
                raise ValueError(f"stream {self.label!r} emitted symbol "
                                 f"{word[bad[0]]} outside the alphabet at "
                                 f"position {start + bad[0]}")
            if len(word):
                self._words.append(word)
        n, origin = self._len, self._origin
        rows = GluedRows(self.space, self._words, 1, self.gap)
        if horizon > len(self._buf):  # grow it at least twofold
            grown = np.empty(max(horizon, 2 * n), dtype=self._buf.dtype)
            grown[:n] = self._buf[:n]
            self._buf = grown
        self._buf[n:horizon] = rows.window(n - origin, horizon - origin)[0]
        lo = max(n - 1, 0)
        check_rows(self.space, f"stream {self.label!r} window [{lo}, "
                   f"{horizon})", self._buf[None, lo:horizon])
        self._len = horizon
        done = bisect.bisect_right(rows._ends, horizon - origin)
        if done:  # keep the last symbol of the words glued whole
            self._origin += rows._ends[done - 1] - 1
            self._words[:done] = [self._words[done - 1][-1:].copy()]

    def materialize(self, horizon: int) -> np.ndarray:
        if horizon < 0:
            raise ValueError(f"horizon must be non-negative, got {horizon}")
        with self._lock:
            if horizon > self._len:
                self._extend(horizon)
            out = self._buf[:horizon]
            out.flags.writeable = False
            return out

    def __repr__(self) -> str:
        return f"SymbolStream({self.label!r}, buffered={self._len})"
