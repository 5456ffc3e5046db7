"""The dict empirical measure, the tests' oracle for the weak* distance of
an orbit segment's windows: a {window: count} dict, whose windows need not
be admissible (each counts in the total and in the cylinders it falls in),
and its marginals summed as floats.  It shares nothing with
``measures.window_counts`` or ``weak_star_counts``; score it with
``measure_oracles.loop_weak_star_dist``."""
import numpy as np

from sftlab.errors import WordsTooShort
from sftlab.measures import cylinder_weights


class DictEmpiricalMeasure:
    """Cylinder-frequency record of an orbit segment at a fixed depth L."""

    def __init__(self, space, depth, freq):
        if depth < 1:
            raise ValueError("depth must be positive")
        self.space = space
        self.depth = depth
        self.freq = dict(freq)
        self.total = sum(self.freq.values())
        if any(c < 0 for c in self.freq.values()) or self.total <= 0:
            raise ValueError("counts must be nonnegative with positive total")
        self._marginals = {}

    def _marginal(self, length):
        if length not in self._marginals:
            acc = {}
            for w, c in self.freq.items():
                key = w[:length]
                acc[key] = acc.get(key, 0.0) + c
            self._marginals[length] = {k: v / self.total
                                       for k, v in acc.items()}
        return self._marginals[length]

    def cylinder_prob(self, symbols):
        """The mass of a cylinder; ValueError for one deeper than the
        record."""
        s = tuple(symbols)
        if len(s) > self.depth:
            raise ValueError(
                f"empirical depth {self.depth} < requested {len(s)}")
        if not s:
            return 1.0
        return self._marginal(len(s)).get(s, 0.0)

    def cylinder_probs(self, depth):
        """cylinder_prob of each cylinder of cylinder_weights, one by one."""
        return np.array([self.cylinder_prob(c)
                         for c, _ in cylinder_weights(self.space, depth)])


def freq(space, depth, row):
    """{window: count} of the nonzero entries of a count row over
    ``space.word_table(depth)``, in table order: its dict form, as the
    oracle keeps it."""
    cols = np.flatnonzero(row)
    words = map(tuple, space.word_table(depth)[cols].tolist())
    return dict(zip(words, np.asarray(row)[cols].tolist()))


def dict_empirical(space, x, n, depth):
    """The first n depth-windows of a word or symbol array, counted one by
    one into a dict; inadmissible windows count too."""
    if n < 1:
        raise ValueError("n must be positive")
    if len(x) < n + depth - 1:
        raise WordsTooShort(f"need length >= {n + depth - 1}, got {len(x)}")
    counts = {}
    s = tuple(map(int, x))
    for i in range(n):
        w = s[i:i + depth]
        counts[w] = counts.get(w, 0) + 1
    return DictEmpiricalMeasure(space, depth, counts)
