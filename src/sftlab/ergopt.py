"""Ergodic optimization and thermodynamic formalism for locally constant
potentials: maximum ergodic averages, maximizing periodic orbits, pressure,
equilibrium states and level-set entropies.

A depth-r potential is one value per row of the r-word table; it lives on the
edges of the block graph of ell-words, ell = max(r-1, 1), indexed the same
way.  One helper scales the edge values to exact integers, and one max-plus
step over the edge list serves Karp's maximum mean cycle, the tight-cycle
relaxation and the independent periodic-orbit oracle, which agree bit for
bit.  Pressure and equilibrium states come from a dense eigendecomposition.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Optional, Sequence

import numpy as np

from .errors import NotPrimitive, OutsideLf
from .measures import MarkovMeasure, ks_entropy, rng_from
from .shift import SftSpace, Word, word_columns

# --------------------------- potentials ---------------------------


class Potential:
    """Depth-r potential: one real value per admissible r-word, held as the
    read-only float vector ``values`` in ``space.word_table(r)`` order."""

    def __init__(self, space: SftSpace, r: int, table: dict):
        keys = [tuple(int(s) for s in k) for k in table]
        expected = set(map(tuple, space.word_table(r).tolist()))
        if set(keys) != expected:
            raise ValueError(
                f"table must cover exactly the admissible {r}-words "
                f"(missing {len(expected - set(keys))}, "
                f"extra {len(set(keys) - expected)})")
        values = np.empty(len(expected))
        values[word_columns(space, np.array(keys).reshape(len(keys), r))] = [
            float(v) for v in table.values()]
        self.space, self.r, self.values = space, r, values
        values.setflags(write=False)

    @classmethod
    def _of(cls, space: SftSpace, r: int, values: np.ndarray) -> "Potential":
        f = cls.__new__(cls)  # values in word-table order, unchecked
        f.space, f.r, f.values = space, r, values
        values.setflags(write=False)
        return f

    @property
    def table(self) -> MappingProxyType:
        """Read-only {r-word symbols: value}, in lexicographic order."""
        words = map(tuple, self.space.word_table(self.r).tolist())
        return MappingProxyType(dict(zip(words, self.values.tolist())))

    def value(self, window: Sequence[int]) -> float:
        if len(window) != self.r:
            raise ValueError(f"window {tuple(window)} is not an admissible "
                             f"{self.r}-word")
        return float(self.values[word_columns(self.space, np.array([window]))[0]])

    @classmethod
    def constant(cls, space: SftSpace, c: float, r: int = 1) -> "Potential":
        return cls._of(space, r, np.full(len(space.word_table(r)), float(c)))

    @classmethod
    def indicator(cls, space: SftSpace, word: Word) -> "Potential":
        """1 on the given admissible r-word's cylinder, 0 elsewhere."""
        values = np.zeros(len(space.word_table(len(word))))
        values[word_columns(space, np.array([word.symbols]))] = 1.0
        return cls._of(space, len(word), values)

    def scale(self, q: float) -> "Potential":
        return Potential._of(self.space, self.r, q * self.values)

    def add_constant(self, c: float) -> "Potential":
        return Potential._of(self.space, self.r, self.values + c)

    def max_value(self) -> float:
        return float(self.values.max())

    def to_json(self) -> str:
        return json.dumps({"r": self.r, "table": {
            Word(k).to_text(): v for k, v in self.table.items()}})

    @classmethod
    def from_json(cls, space: SftSpace, text: str) -> "Potential":
        data = json.loads(text)
        return cls(space, data["r"], {Word.from_text(k).symbols: v
                                      for k, v in data["table"].items()})


def random_potential(space: SftSpace, r: int, seed: int,
                     low: int = -9, high: int = 9,
                     integer: bool = True) -> Potential:
    """One draw per admissible r-word, in table order."""
    rng, k = rng_from(seed), len(space.word_table(r))
    return Potential._of(space, r, rng.integers(low, high + 1, size=k)
                         .astype(float) if integer
                         else rng.uniform(low, high, size=k))


def coboundary_shift(f: Potential, g: Potential) -> Potential:
    """f + g(shifted window) - g(window): same ergodic averages as f."""
    if g.r != max(f.r - 1, 1):
        raise ValueError("coboundary depth must be one less than the potential's")
    r = max(f.r, g.r + 1)
    words = f.space.word_table(r)
    f0, g1, g0 = (h.values[word_columns(f.space, words[:, i:i + h.r])]
                  for h, i in ((f, 0), (g, 1), (g, 0)))
    return Potential._of(f.space, r, (f0 + g1) - g0)


def mean_potential(mu: MarkovMeasure, f: Potential) -> float:
    """Integral of a depth-r potential against a Markov measure on its space."""
    return sum(mu.cylinder_prob(w) * v for w, v in f.table.items())


# --------------------------- block graphs ---------------------------


@dataclass(frozen=True)
class BlockGraph:
    """The ell-words as nodes, (ell+1)-words as edges, in word-table order."""
    space: SftSpace
    ell: int
    nodes: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int, tuple[int, ...]], ...]  # (u, v, edge word)
    src: np.ndarray  # u of each edge, in edge order
    dst: np.ndarray  # v of each edge

    def n_nodes(self) -> int:
        return len(self.nodes)

    def block_space(self) -> SftSpace:
        if self.ell == 1:
            return self.space
        A = np.zeros((len(self.nodes), len(self.nodes)), dtype=np.int64)
        A[self.src, self.dst] = 1
        return SftSpace(A)


def block_graph(space: SftSpace, ell: int) -> BlockGraph:
    """The ell-block graph, cached on the space."""
    graph = space._block_cache.get(ell)
    if graph is None:
        ew = space.word_table(ell + 1)
        src, dst = word_columns(space, ew[:, :-1]), word_columns(space, ew[:, 1:])
        graph = space._block_cache[ell] = BlockGraph(
            space, ell, tuple(map(tuple, space.word_table(ell).tolist())),
            tuple(zip(src.tolist(), dst.tolist(), map(tuple, ew.tolist()))),
            src, dst)
    return graph


def _edge_values(graph: BlockGraph, f: Potential) -> list[float]:
    """f on each edge, in edge order (at depth 1, on its first symbol)."""
    return (f.values if f.r > graph.ell else f.values[graph.src]).tolist()


def _cycle_word(graph: BlockGraph, cycle_nodes: Sequence[int]) -> Word:
    return Word(graph.nodes[c][0] for c in cycle_nodes)


# --------------------------- exact max-plus core ---------------------------


def _integer_weights(values: Sequence[float], steps: int) -> tuple:
    """(w, den, absent, floor): the values as integers w = values * den, den
    their common (power-of-two) denominator, exact in sums of up to
    ``steps`` entries: float64 while steps * max|w| < 2**53, else Python
    ints.  ``absent`` marks a missing entry (-inf, or the int
    -(2 * steps * max|w| + 1)); a sum of up to ``steps`` entries is above
    ``floor`` (-inf, or -(steps * max|w| + 1)) exactly when it has none."""
    ratios = [v.as_integer_ratio() for v in values]
    den = max((d for _, d in ratios), default=1)
    ints = [a * (den // d) for a, d in ratios]
    bound = max(map(abs, ints), default=0)
    if bound * steps < 2 ** 53:
        return np.array(ints, dtype=float), den, -np.inf, -np.inf
    floor = -(steps * bound + 1)
    return np.array(ints, dtype=object), den, 2 * floor + 1, floor


def _maxplus_step(cur: np.ndarray, src: np.ndarray, dst: np.ndarray,
                  w: np.ndarray, absent) -> np.ndarray:
    """One max-plus product with an edge list: out[..., v] is the largest
    cur[..., u] + w over the edges (u, v), absent where v has none.  The
    scatter runs on the flat array, numpy's fast path for ufunc.at."""
    out = np.full(cur.shape, absent, dtype=cur.dtype)
    flat = dst + np.arange(0, cur.size, cur.shape[-1])[:, None]
    np.maximum.at(out.reshape(-1), flat.ravel(), (cur[..., src] + w).ravel())
    return out


def _karp(graph: BlockGraph, w: np.ndarray, absent) -> tuple[int, int]:
    """Karp's maximum cycle mean with multi-source initialization, as a
    fraction (num, q), q <= n, in the units of the integer weights w.

    D[k, v] is the heaviest walk of k edges into v (never absent: every
    block-graph node has an in-edge), and lam = max_v min_k (D[n, v] -
    D[k, v]) / (n - k), the ratios compared by cross-multiplying: products
    below 2 * n**2 * max|w|, exact in w chosen for 2 * n**2 steps."""
    n = graph.n_nodes()
    D = np.zeros((n + 1, n), dtype=w.dtype)
    for k in range(1, n + 1):
        D[k] = _maxplus_step(D[k - 1], graph.src, graph.dst, w, absent)
    num, den = D[n] - D[0], np.full(n, n, dtype=w.dtype)
    for k in range(1, n):
        a = D[n] - D[k]
        lower = a * den < num * (n - k)
        num, den = np.where(lower, a, num), np.where(lower, n - k, den)
    best = 0
    for v in range(1, n):
        if num[v] * den[best] > num[best] * den[v]:
            best = v
    return int(num[best]), int(den[best])


def _tight_subgraph(graph: BlockGraph, w: np.ndarray, absent,
                    num: int, q: int) -> list[list[int]]:
    """Adjacency lists, in edge order, of the edges with
    h[u] + w - lam == h[v], for lam = num / q and h the longest-walk
    potentials of the graph reweighted by -lam.  With lam the maximum cycle
    mean, its cycles are exactly the optimal cycles.  Scaled by q <= n, the
    relaxation runs on the integers q * w - num, one vectorised sweep per
    round, and stays below 2 * n**2 * max|w|."""
    n = graph.n_nodes()
    wq = q * w - num
    h = np.zeros(n, dtype=w.dtype)
    for _ in range(n + 1):
        nxt = np.maximum(h, _maxplus_step(h, graph.src, graph.dst, wq, absent))
        if (nxt == h).all():
            break
        h = nxt
    else:  # pragma: no cover - would mean a positive cycle above the maximum
        raise ArithmeticError("reweighted relaxation failed to stabilize")
    tight = h[graph.src] + wq == h[graph.dst]
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in zip(graph.src[tight].tolist(), graph.dst[tight].tolist()):
        adj[u].append(v)
    return adj


def _optimum(graph: BlockGraph, values: Sequence[float]
             ) -> tuple[Fraction, list[list[int]]]:
    """The maximum cycle mean of the edge values, exact, and the tight
    subgraph whose cycles are the optimal ones."""
    n = graph.n_nodes()
    w, den, absent, _ = _integer_weights(values, 2 * n * n)
    num, q = _karp(graph, w, absent)
    return Fraction(num, q * den), _tight_subgraph(graph, w, absent, num, q)


def _maxplus_best_mean(n: int, src: np.ndarray, dst: np.ndarray,
                       values: Sequence[float],
                       max_period: int) -> Optional[Fraction]:
    """Largest mean value of a closed walk of length <= max_period on nodes
    0..n-1 with the edges (src, dst), exact, from the diagonals of the
    max-plus powers of the edge values; None without one."""
    w, den, absent, floor = _integer_weights(values, max_period)
    cur = np.full((n, n), absent, dtype=w.dtype)
    np.fill_diagonal(cur, 0)
    best = None  # (walk sum, length)
    for p in range(1, max_period + 1):
        cur = _maxplus_step(cur, src, dst, w, absent)
        top = cur.diagonal().max()
        if top > floor and (best is None or int(top) * best[1] > best[0] * p):
            best = int(top), p
    return None if best is None else Fraction(best[0], best[1] * den)


# --------------------------- maximum mean cycle ---------------------------


@dataclass(frozen=True)
class BetaResult:
    value: float
    cycle: Word
    value_exact: Fraction


def _find_cycle(adj: list[list[int]]) -> Optional[list[int]]:
    """Any directed cycle of an adjacency-list graph (iterative DFS)."""
    n = len(adj)
    color = [0] * n  # 0 fresh, 1 on stack, 2 done
    parent_edge: dict[int, int] = {}
    for root in range(n):
        if color[root]:
            continue
        stack = [(root, iter(adj[root]))]
        color[root] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == 0:
                    color[nxt] = 1
                    parent_edge[nxt] = node
                    stack.append((nxt, iter(adj[nxt])))
                    advanced = True
                    break
                if color[nxt] == 1:
                    cyc = [node]
                    cur = node
                    while cur != nxt:
                        cur = parent_edge[cur]
                        cyc.append(cur)
                    cyc.reverse()
                    return cyc
            if not advanced:
                color[node] = 2
                stack.pop()
    return None


def beta(space: SftSpace, f: Potential) -> BetaResult:
    """Maximum ergodic average of f with an attaining periodic word.

    Solved as maximum mean cycle on the block graph (Karp's algorithm, exact
    in integers); ties inside the optimum are broken by the DFS order of the
    tight subgraph, see classify_smr for tie reporting.
    """
    if space.primitivity_index is None:
        raise NotPrimitive("beta needs a primitive space")
    graph = block_graph(space, max(f.r - 1, 1))
    lam, tight = _optimum(graph, _edge_values(graph, f))
    cycle = _find_cycle(tight)
    if cycle is None:  # pragma: no cover - optimal cycle is always tight
        raise ArithmeticError("no tight cycle found")
    return BetaResult(float(lam), _cycle_word(graph, cycle), lam)


def brute_force_beta(space: SftSpace, f: Potential, max_period: int) -> float:
    """Independent oracle: maximum mean of f over all periodic orbits of
    period <= max_period, by exact max-plus powers of the weight matrix.

    Closed walks decompose into simple cycles, so for max_period >= the
    block-graph node count this equals the maximum mean cycle.
    """
    graph = block_graph(space, max(f.r - 1, 1))
    best = _maxplus_best_mean(graph.n_nodes(), graph.src, graph.dst,
                              _edge_values(graph, f), max_period)
    if best is None:
        raise ValueError("no periodic orbit of the requested period")
    return float(best)


@dataclass(frozen=True)
class SmrClassification:
    periodic: Optional[Word]
    ties: tuple[Word, ...]
    gap: Optional[float]
    value: float


def classify_smr(space: SftSpace, f: Potential) -> SmrClassification:
    """Structure of the maximizing-measure support: a unique optimal simple
    cycle (with its gap to the best cycle avoiding it) or the list of tied
    optimal cycles."""
    graph = block_graph(space, max(f.r - 1, 1))
    values = _edge_values(graph, f)
    lam, tight = _optimum(graph, values)
    n = graph.n_nodes()
    cycles = _simple_cycles(tight)
    words = tuple(_cycle_word(graph, c) for c in cycles)
    if len(cycles) == 1:
        cyc = np.array(cycles[0])
        off = ~np.isin(graph.src * n + graph.dst, cyc * n + np.roll(cyc, -1))
        alt_best = _maxplus_best_mean(n, graph.src[off], graph.dst[off],
                                      np.array(values)[off], n)
        gap = None if alt_best is None else float(lam - alt_best)
        return SmrClassification(words[0], words, gap, float(lam))
    return SmrClassification(None, words, 0.0, float(lam))


def _simple_cycles(adj: list[list[int]]) -> list[list[int]]:
    """All simple cycles, rooted at their smallest node (small graphs only)."""
    n = len(adj)
    out: list[list[int]] = []
    for root in range(n):
        stack = [(root, [root])]
        while stack:
            node, path = stack.pop()
            for nxt in adj[node]:
                if nxt == root:
                    out.append(path[:])
                elif nxt > root and nxt not in path:
                    stack.append((nxt, path + [nxt]))
    return out


# --------------------------- pressure and equilibrium states ---------------------------


def _transfer_matrix(space: SftSpace, f: Potential) -> tuple[BlockGraph, np.ndarray, float]:
    """Transition-masked exp(f) matrix on the block graph, with the potential
    shifted by its maximum for overflow safety (shift returned separately)."""
    graph = block_graph(space, max(f.r - 1, 1))
    shift = f.max_value()
    n = graph.n_nodes()
    M = np.zeros((n, n))
    M[graph.src, graph.dst] = [math.exp(v - shift)
                               for v in _edge_values(graph, f)]
    return graph, M, shift


def _perron(M: np.ndarray) -> tuple[float, np.ndarray]:
    """Perron root and right eigenvector (summing to 1) of a nonnegative
    matrix from a dense eigendecomposition.  Every other eigenvalue has
    modulus at most the real root, so the root has the largest real part,
    also when the matrix is close to periodic.  One multiplication by M
    confirms the root."""
    vals, vecs = np.linalg.eig(M)
    v = vecs[:, np.argmax(vals.real)].real
    v = v / v.sum()
    lam = float((M @ v).sum())
    return lam, v


def spectral_radius(space: SftSpace) -> float:
    """log-free Perron root of the transition matrix itself."""
    lam, _ = _perron(space.transition.astype(float))
    return lam


def topological_entropy(space: SftSpace) -> float:
    return math.log(spectral_radius(space))


def pressure(space: SftSpace, f: Potential) -> float:
    """log spectral radius of the transfer matrix; P(0) recovers h_top."""
    if space.primitivity_index is None:
        raise NotPrimitive("pressure needs a primitive space")
    _, M, shift = _transfer_matrix(space, f)
    lam, _ = _perron(M)
    return math.log(lam) + shift


def _equilibrium(space: SftSpace, f: Potential
                 ) -> tuple[MarkovMeasure, float]:
    """The equilibrium state of f and the pressure P(f), both from one
    Perron solve of the transfer matrix."""
    if space.primitivity_index is None:
        raise NotPrimitive("equilibrium_state needs a primitive space")
    graph, M, shift = _transfer_matrix(space, f)
    lam, right = _perron(M)
    if (right <= 0).any():  # pragma: no cover - Perron vectors are positive
        raise ArithmeticError("non-positive Perron entry")
    Q = M * right / (lam * right[:, None])
    Q = Q / Q.sum(axis=1, keepdims=True)
    return MarkovMeasure(graph.block_space(), Q), math.log(lam) + shift


def equilibrium_state(space: SftSpace, f: Potential) -> MarkovMeasure:
    """The Gibbs/equilibrium measure of a locally constant potential: the
    transfer matrix conjugated by its right Perron eigenvector, with the
    stationary vector from MarkovMeasure's direct solve.

    For depth r <= 2 this is a Markov measure on the original space; deeper
    potentials return the Markov measure on the (r-1)-block space.
    """
    return _equilibrium(space, f)[0]


def equilibrium_mean(space: SftSpace, f: Potential,
                     mu: Optional[MarkovMeasure] = None) -> float:
    """Integral of f against its equilibrium state, via edge flows of the
    block-graph measure (valid for any depth)."""
    graph = block_graph(space, max(f.r - 1, 1))
    measure = mu if mu is not None else equilibrium_state(space, f)
    total = 0.0
    for (u, v, _), val in zip(graph.edges, _edge_values(graph, f)):
        total += measure.stationary[u] * measure.stochastic[u, v] * val
    return total


def equilibrium_residual(space: SftSpace, f: Potential) -> float:
    """|h(mu_f) + int f dmu_f - P(f)|, the variational-principle defect."""
    mu, p = _equilibrium(space, f)
    return abs(ks_entropy(mu) + equilibrium_mean(space, f, mu) - p)


# --------------------------- level sets ---------------------------


def ergodic_average_range(space: SftSpace, f: Potential) -> tuple[float, float]:
    hi = beta(space, f).value
    lo = -beta(space, f.scale(-1.0)).value
    return lo, hi


def level_entropy_detail(space: SftSpace, f: Potential, a: float,
                         q_max: float = 512.0,
                         q_tol: float = 1e-8) -> tuple[float, float]:
    """(t_a, q*) with t_a = inf_q P(q f) - q a by golden-section search.

    Boundary levels keep pushing the minimizer outward; the search then stops
    at q_max and reports the limiting value there.
    """
    if not (q_tol > 0 and 0 < q_max < math.inf):
        raise ValueError("q_tol and q_max must be positive, q_max finite")
    lo, hi = ergodic_average_range(space, f)
    if not lo - 1e-9 <= a <= hi + 1e-9:  # also rejects nan
        raise OutsideLf(f"a={a} outside [{lo}, {hi}]")

    def g(q: float) -> float:
        return pressure(space, f.scale(q)) - q * a

    ql, qr = -1.0, 1.0
    g0 = g(0.0)
    while qr <= q_max:
        if g(ql) >= g0 and g(qr) >= g0:
            break
        ql *= 2.0
        qr *= 2.0
    ql = max(ql, -q_max)
    qr = min(qr, q_max)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = qr - invphi * (qr - ql)
    d = ql + invphi * (qr - ql)
    gc, gd = g(c), g(d)
    while qr - ql > q_tol:
        if gc <= gd:
            qr, d, gd = d, c, gc
            c = qr - invphi * (qr - ql)
            gc = g(c)
        else:
            ql, c, gc = c, d, gd
            d = ql + invphi * (qr - ql)
            gd = g(d)
    q_star = 0.5 * (ql + qr)
    return g(q_star), q_star


def level_entropy(space: SftSpace, f: Potential, a: float) -> float:
    """Entropy ceiling of the level set of ergodic average a, via the Legendre
    transform of the pressure function."""
    return level_entropy_detail(space, f, a)[0]
