"""The dict empirical measure that the count-row ``EmpiricalMeasure`` and
``analysis.empirical`` replaced, kept as their oracle: a {window: count}
dict, whose windows need not be admissible (each counts in the total and
in the cylinders it falls in), and its marginals summed as floats."""
import numpy as np

from sftlab.errors import DepthExceedsEmpirical, WordsTooShort
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

    def max_depth(self):
        return self.depth

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
        s = tuple(symbols)
        if len(s) > self.depth:
            raise DepthExceedsEmpirical(
                f"empirical depth {self.depth} < requested {len(s)}")
        if not s:
            return 1.0
        return self._marginal(len(s)).get(s, 0.0)

    def cylinder_probs(self, depth):
        """cylinder_prob of each cylinder of cylinder_weights, one by one."""
        return np.array([self.cylinder_prob(c)
                         for c, _ in cylinder_weights(self.space, depth)])


def freq(emp):
    """{window: count} of the nonzero rows of a count-row
    ``EmpiricalMeasure``, in table order: its dict form, as the oracle
    keeps it."""
    rows = np.flatnonzero(emp.counts)
    words = map(tuple, emp.space.word_table(emp.depth)[rows].tolist())
    return dict(zip(words, emp.counts[rows].tolist()))


def dict_empirical(space, x, n, depth):
    """analysis.empirical as the window loop built it."""
    if n < 1:
        raise ValueError("n must be positive")
    if len(x) < n + depth - 1:
        raise WordsTooShort(f"need length >= {n + depth - 1}, got {len(x)}")
    freq = {}
    s = x.symbols
    for i in range(n):
        w = s[i:i + depth]
        freq[w] = freq.get(w, 0) + 1
    return DictEmpiricalMeasure(space, depth, freq)
