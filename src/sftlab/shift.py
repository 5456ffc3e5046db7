"""Subshifts of finite type: words and their index, admissibility, the shift
metric, Bowen-ball separation predicates, bridging words, and gluing (word
concatenation with fixed-length bridges, the one join every construction
uses, and ``glue_spans``, the one rule for where each glued word lands).

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

import itertools
import json
import threading
from typing import Callable, Iterable, Iterator, Optional, Sequence

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


# --------------------------- the ambient space ---------------------------


class SftSpace:
    """Alphabet size m plus a 0/1 transition matrix.

    ``primitivity_index`` is the smallest t with ``transition**t`` entrywise
    positive (None when the matrix is not primitive).
    """

    def __init__(self, transition: Sequence[Sequence[int]]):
        A = np.array(transition, dtype=np.int64)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("transition matrix must be square")
        if not np.isin(A, (0, 1)).all():
            raise ValueError("transition entries must be 0 or 1")
        if (A.sum(axis=1) == 0).any() or (A.sum(axis=0) == 0).any():
            raise ValueError("every symbol needs a successor and a predecessor")
        self.m = int(A.shape[0])
        self.transition = A
        self.transition.setflags(write=False)
        self.primitivity_index = self._compute_primitivity_index(A)
        self._reach_cache: dict[int, np.ndarray] = {0: np.eye(self.m, dtype=bool)}
        self._bridge_cache: dict[tuple[int, int, int], tuple[int, ...]] = {}
        self._cyl_cache: dict[int, tuple[list, list]] = {}  # (weights, runs)
        self._word_cache: dict[int, tuple] = {}  # L: (words, ranks)
        self._block_cache: dict[int, object] = {}  # ergopt.block_graph
        self._succ = [tuple(np.flatnonzero(A[i]).tolist()) for i in range(self.m)]

    @staticmethod
    def _compute_primitivity_index(A: np.ndarray) -> Optional[int]:
        m = A.shape[0]
        P = A.astype(bool)
        power = P.copy()
        for t in range(1, _WIELANDT(m) + 1):
            if power.all():
                return t
            power = power @ P
        return None

    # -- constructors --

    @classmethod
    def full_shift(cls, m: int) -> "SftSpace":
        return cls(np.ones((m, m), dtype=np.int64))

    @classmethod
    def golden_mean(cls) -> "SftSpace":
        """Two symbols, the word 11 forbidden."""
        return cls([[1, 1], [1, 0]])

    # -- predicates and enumeration --

    @property
    def is_full_shift(self) -> bool:
        return bool(self.transition.all())

    def allowed(self, a: int, b: int) -> bool:
        return bool(self.transition[a, b])

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
        return json.dumps({"m": self.m, "transition": self.transition.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "SftSpace":
        data = json.loads(text)
        space = cls(data["transition"])
        if space.m != data["m"]:
            raise ValueError("inconsistent alphabet size in JSON")
        return space

    def __eq__(self, other) -> bool:
        return isinstance(other, SftSpace) and np.array_equal(
            self.transition, other.transition
        )

    def __hash__(self) -> int:
        return hash(self.transition.tobytes())

    def __repr__(self) -> str:
        return f"SftSpace(m={self.m}, full={self.is_full_shift})"


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
    last symbol of each admissible (j+1)-prefix once per word it starts."""
    table = np.empty((int(tails[-1].sum()), len(tails)), dtype=np.int64)
    last = np.arange(len(A))
    for j, tail in enumerate(reversed(tails)):
        if j:
            last = np.nonzero(A[last])[1]
        table[:, j] = np.repeat(last, tail[last].astype(np.int64))
    table.setflags(write=False)
    return table


def _rank_sums(ranks: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Each window's rank, one gather per position; IndexError past m."""
    cols = ranks[0, -1].take(words[..., 0])
    for i in range(1, words.shape[-1]):
        cols += ranks[i, words[..., i - 1], words[..., i]]
    return cols


def word_columns(space: SftSpace, words: np.ndarray) -> np.ndarray:
    """Row in ``space.word_table(L)`` of each length-L window along the last
    axis of a symbol array, (..., L) to (...): the count rank, one gather of
    the rank table per position.  ValueError names the first window (in C
    order) that is not an admissible L-word."""
    words = np.asarray(words)
    L, m = words.shape[-1], space.m
    K = len(space.word_table(L))
    ranks = space._word_cache[L][1]
    try:
        if words.dtype.kind == "i" and words.size and words.min() < 0:
            raise IndexError("negative symbol")  # a gather would wrap it
        cols = _rank_sums(ranks, words)
        bad = cols >= K
    except IndexError:  # a symbol outside the alphabet
        cols = _rank_sums(ranks, np.clip(words, 0, m - 1))
        bad = (cols >= K) | ((words < 0) | (words >= m)).any(axis=-1)
    if bad.any():
        window = words[np.unravel_index(bad.argmax(), bad.shape)]
        raise ValueError(f"window {tuple(window.tolist())} is not an "
                         f"admissible {L}-word")
    return cols


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


# --------------------------- metric and separation ---------------------------


def dist(x: Word, y: Word) -> float:
    """d = 2**(-t), t the first disagreement; 0 for equal words.

    Words agreeing on the shorter length but of different lengths are at
    distance 2**(-min length): the missing symbols count as unknown.
    """
    n = min(len(x), len(y))
    xs, ys = x.symbols, y.symbols
    for t in range(n):
        if xs[t] != ys[t]:
            return 2.0 ** (-t)
    if len(x) == len(y):
        return 0.0
    return 2.0 ** (-n)


def separated_count(points: Iterable[Word], n: int, k: int) -> int:
    """Exact maximal (n, 2**(-k))-separated cardinality of a word set.

    Under the metric convention this is the number of distinct prefixes of
    length max(n + k - 1, 1); the ultrametric makes the greedy maximum exact.
    """
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    L = max(n + k - 1, 1)
    prefixes = set()
    for w in points:
        if len(w) < L:
            raise WordsTooShort(f"word of length {len(w)} < prefix length {L}")
        prefixes.add(w.symbols[:L])
    return len(prefixes)


def hamming(x: Word, y: Word, n: int) -> int:
    if len(x) < n or len(y) < n:
        raise WordsTooShort(f"need length >= {n}")
    xs, ys = x.symbols, y.symbols
    return sum(1 for j in range(n) if xs[j] != ys[j])


def hamming_matrix(words: Sequence[Word], n: int) -> np.ndarray:
    """Pairwise :func:`hamming` distances on the first n coordinates, as
    one integer matrix: n minus each pair's agreements, counted by one
    product of the words' one-hot rows."""
    if any(len(w) < n for w in words):
        raise WordsTooShort(f"need length >= {n}")
    X = np.array([w.symbols[:n] for w in words],
                 dtype=np.int64).reshape(len(words), n)
    symbols = np.unique(X)
    hot = (X[:, :, None] == symbols).reshape(len(words), n * len(symbols))
    agree = hot.astype(np.int32) @ hot.T.astype(np.int32)
    return np.subtract(n, agree, out=agree)


def delta_separated(x: Word, y: Word, n: int, delta: float) -> bool:
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
    if space.primitivity_index is None:
        raise NotPrimitive("connector needs a primitive transition matrix")
    if gap < space.primitivity_index:
        raise GapTooSmall(f"gap {gap} < primitivity index {space.primitivity_index}")
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


def _glue_pieces(space: SftSpace, words: Iterable[Word],
                 gap: int) -> Iterator[tuple[int, ...]]:
    """The nonempty words' symbols with bridges between them."""
    prev: Optional[int] = None
    for w in words:
        if not w.symbols:
            continue
        if prev is not None:
            yield bridge(space, prev, w.symbols[0], gap)
        yield w.symbols
        prev = w.symbols[-1]


def iglue(space: SftSpace, words: Iterable[Word], gap: int) -> Iterator[int]:
    """The symbols of :func:`glue`, yielded lazily: each word is pulled from
    ``words`` only once the symbols before it are consumed."""
    return itertools.chain.from_iterable(_glue_pieces(space, words, gap))


def glue(space: SftSpace, words: Iterable[Word], gap: int) -> Word:
    """Concatenate the words, skipping empty ones, with the connector of
    length gap-1 between consecutive words.  Raises NotPrimitive or
    GapTooSmall as :func:`connector` does."""
    return Word(iglue(space, words, gap))


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


# --------------------------- symbol streams ---------------------------


class SymbolStream:
    """Deterministic resumable symbol source.

    ``materialize(H)`` returns the first H symbols as a Word; longer calls
    extend the same underlying sequence, so shorter materializations are
    always prefixes of longer ones.
    """

    def __init__(self, space: SftSpace, factory: Callable[[], Iterator[int]],
                 label: str = ""):
        self.space = space
        self.label = label
        self._factory = factory
        self._iter: Optional[Iterator[int]] = None
        self._buf: list[int] = []
        self._lock = threading.Lock()

    def materialize(self, horizon: int) -> Word:
        with self._lock:
            if self._iter is None:
                self._iter = self._factory()
            while len(self._buf) < horizon:
                try:
                    s = next(self._iter)
                except StopIteration:  # pragma: no cover - streams are infinite
                    raise WordsTooShort(
                        f"stream {self.label!r} exhausted at {len(self._buf)}"
                    )
                if self._buf and not self.space.allowed(self._buf[-1], s):
                    raise ValueError(
                        f"stream {self.label!r} emitted a forbidden transition "
                        f"{self._buf[-1]}->{s} at position {len(self._buf)}"
                    )
                self._buf.append(int(s))
            return Word(self._buf[:horizon])

    def __repr__(self) -> str:
        return f"SymbolStream({self.label!r}, buffered={len(self._buf)})"
