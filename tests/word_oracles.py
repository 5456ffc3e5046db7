"""The word enumerations and counts that ``SftSpace.word_table`` and its
transfer-matrix counts replaced, kept as their oracles: the depth-first
walk that filled the table, the exponent bracket's depth-first search over
admissible words carrying running products, its necklace filter, the
object-arithmetic word count loop and the pairwise orbit-gap loop over
``dist``.  Also the random spaces the properties draw from."""
import math

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from sftlab.cocycle import periodic_exponent
from sftlab.errors import OrbitsNotDisjoint
from sftlab.shift import SftSpace, Word, dist


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
        if not space.allowed(s[-1], s[0]):
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
