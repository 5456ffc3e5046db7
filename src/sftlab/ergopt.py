"""Ergodic optimization and thermodynamic formalism for locally constant
potentials: maximum ergodic averages, maximizing periodic orbits, pressure,
equilibrium states and level-set entropies.

A depth-r potential lives on the edges of the block graph whose nodes are the
admissible ell-words, ell = max(r-1, 1).  Maximum mean cycle (Karp) runs in
exact rational arithmetic, and so does the independent periodic-orbit oracle,
numpy max-plus matrix powers over integer-scaled weights, so the two must
agree bit for bit.  Pressure and equilibrium states come from a dense
eigendecomposition of the transfer matrix.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NotPrimitive, OutsideLf
from .measures import MarkovMeasure, ks_entropy, rng_from
from .shift import SftSpace, Word

# --------------------------- potentials ---------------------------


class Potential:
    """Depth-r potential: one real value per admissible r-word."""

    def __init__(self, space: SftSpace, r: int, table: dict):
        if r < 1:
            raise ValueError("depth must be positive")
        tbl = {tuple(int(s) for s in k): float(v) for k, v in table.items()}
        expected = {w.symbols for w in space.words(r)}
        if set(tbl) != expected:
            missing = expected - set(tbl)
            extra = set(tbl) - expected
            raise ValueError(
                f"table must cover exactly the admissible {r}-words "
                f"(missing {len(missing)}, extra {len(extra)})")
        self.space = space
        self.r = r
        self.table = tbl

    def value(self, window: Sequence[int]) -> float:
        return self.table[tuple(window)]

    # -- constructors and arithmetic --

    @classmethod
    def constant(cls, space: SftSpace, c: float, r: int = 1) -> "Potential":
        return cls(space, r, {w.symbols: c for w in space.words(r)})

    @classmethod
    def indicator(cls, space: SftSpace, word: Word) -> "Potential":
        """1 on the given r-word's cylinder, 0 elsewhere."""
        r = len(word)
        return cls(space, r, {
            w.symbols: 1.0 if w.symbols == word.symbols else 0.0
            for w in space.words(r)
        })

    def scale(self, q: float) -> "Potential":
        return Potential(self.space, self.r, {k: q * v for k, v in self.table.items()})

    def add_constant(self, c: float) -> "Potential":
        return Potential(self.space, self.r, {k: v + c for k, v in self.table.items()})

    def max_value(self) -> float:
        return max(self.table.values())

    def min_value(self) -> float:
        return min(self.table.values())

    def to_json(self) -> str:
        return json.dumps({
            "r": self.r,
            "table": {Word(k).to_text(): v for k, v in self.table.items()},
        })

    @classmethod
    def from_json(cls, space: SftSpace, text: str) -> "Potential":
        data = json.loads(text)
        return cls(space, data["r"], {
            Word.from_text(k).symbols: v for k, v in data["table"].items()
        })


def random_potential(space: SftSpace, r: int, seed: int,
                     low: int = -9, high: int = 9,
                     integer: bool = True) -> Potential:
    rng = rng_from(seed)
    table = {}
    for w in space.words(r):
        if integer:
            table[w.symbols] = float(rng.integers(low, high + 1))
        else:
            table[w.symbols] = float(rng.uniform(low, high))
    return Potential(space, r, table)


def coboundary_shift(f: Potential, g: Potential) -> Potential:
    """f + g(shifted window) - g(window): same ergodic averages as f."""
    if g.r != max(f.r - 1, 1):
        raise ValueError("coboundary depth must be one less than the potential's")
    table = {}
    for w in f.space.words(max(f.r, g.r + 1)):
        s = w.symbols
        table[s] = f.value(s[:f.r]) + g.value(s[1:1 + g.r]) - g.value(s[:g.r])
    return Potential(f.space, max(f.r, g.r + 1), table)


def mean_potential(mu: MarkovMeasure, f: Potential) -> float:
    """Integral of a depth-r potential against a Markov measure on its space."""
    return sum(mu.cylinder_prob(w) * v for w, v in f.table.items())


# --------------------------- block graphs ---------------------------


@dataclass(frozen=True)
class BlockGraph:
    space: SftSpace
    ell: int
    nodes: tuple[tuple[int, ...], ...]
    index: dict
    edges: tuple[tuple[int, int, tuple[int, ...]], ...]  # (u, v, edge word)

    def n_nodes(self) -> int:
        return len(self.nodes)

    def block_space(self) -> SftSpace:
        if self.ell == 1:
            return self.space
        A = np.zeros((len(self.nodes), len(self.nodes)), dtype=np.int64)
        for u, v, _ in self.edges:
            A[u, v] = 1
        return SftSpace(A)


_BLOCK_CACHE: dict[tuple[bytes, int], BlockGraph] = {}


def block_graph(space: SftSpace, ell: int) -> BlockGraph:
    key = (space.transition.tobytes(), ell)
    if key not in _BLOCK_CACHE:
        nodes = tuple(w.symbols for w in space.words(ell))
        index = {w: i for i, w in enumerate(nodes)}
        edges = []
        for i, u in enumerate(nodes):
            for b in space.successors(u[-1]):
                v = u[1:] + (b,)
                if v in index:
                    edges.append((i, index[v], u + (b,)))
        _BLOCK_CACHE[key] = BlockGraph(space, ell, nodes, index, tuple(edges))
    return _BLOCK_CACHE[key]


def _graph_for(space: SftSpace, f: Potential) -> BlockGraph:
    return block_graph(space, max(f.r - 1, 1))


def _edge_weight_fn(f: Potential) -> Callable[[tuple[int, ...]], float]:
    r = f.r
    return lambda edge_word: f.value(edge_word[:r])


def _exact(v: float):
    return int(v) if float(v).is_integer() else Fraction(v)


def _exact_weights(graph: BlockGraph, f: Potential) -> list:
    """Edge weights of f on its block graph as ints or Fractions."""
    wfn = _edge_weight_fn(f)
    return [_exact(wfn(e[2])) for e in graph.edges]


def _cycle_word(graph: BlockGraph, cycle_nodes: Sequence[int]) -> Word:
    return Word(graph.nodes[c][0] for c in cycle_nodes)


# --------------------------- maximum mean cycle ---------------------------


@dataclass(frozen=True)
class BetaResult:
    value: float
    cycle: Word
    value_exact: Fraction


def _karp(graph: BlockGraph, weights: list) -> Fraction:
    """Karp's maximum mean cycle with multi-source initialization, exact
    arithmetic."""
    n = graph.n_nodes()
    in_edges: list[list[tuple[int, object]]] = [[] for _ in range(n)]
    for (u, v, _), w in zip(graph.edges, weights):
        in_edges[v].append((u, w))
    D = [[None] * n for _ in range(n + 1)]
    D[0] = [0] * n
    for k in range(1, n + 1):
        row = D[k]
        prev = D[k - 1]
        for v in range(n):
            best = None
            for u, w in in_edges[v]:
                if prev[u] is None:
                    continue
                cand = prev[u] + w
                if best is None or cand > best:
                    best = cand
            row[v] = best
    lam = None
    for v in range(n):
        if D[n][v] is None:
            continue
        worst = None
        for k in range(n):
            if D[k][v] is None:
                continue
            mean = Fraction(D[n][v] - D[k][v], n - k)
            if worst is None or mean < worst:
                worst = mean
        if worst is not None and (lam is None or worst > lam):
            lam = worst
    if lam is None:  # pragma: no cover - graphs here always carry cycles
        raise ValueError("graph has no cycle")
    return lam


def _tight_subgraph(graph: BlockGraph, weights: list,
                    lam: Fraction) -> list[list[int]]:
    """Adjacency lists of the edges with h[u] + w - lam == h[v], for h the
    longest-walk potentials of the graph reweighted by -lam.  With lam the
    maximum cycle mean, its cycles are exactly the optimal cycles."""
    n = graph.n_nodes()
    h = [Fraction(0)] * n
    for _ in range(n + 1):
        changed = False
        for (u, v, _), w in zip(graph.edges, weights):
            cand = h[u] + w - lam
            if cand > h[v]:
                h[v] = cand
                changed = True
        if not changed:
            break
    else:  # pragma: no cover - would mean a positive cycle above the maximum
        raise ArithmeticError("reweighted relaxation failed to stabilize")
    tight: list[list[int]] = [[] for _ in range(n)]
    for (u, v, _), w in zip(graph.edges, weights):
        if h[u] + w - lam == h[v]:
            tight[u].append(v)
    return tight


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
    rationals); ties inside the optimum are broken by the DFS order of the
    tight subgraph, see classify_smr for tie reporting.
    """
    if space.primitivity_index is None:
        raise NotPrimitive("beta needs a primitive space")
    graph = _graph_for(space, f)
    weights = _exact_weights(graph, f)
    lam = _karp(graph, weights)
    cycle = _find_cycle(_tight_subgraph(graph, weights, lam))
    if cycle is None:  # pragma: no cover - optimal cycle is always tight
        raise ArithmeticError("no tight cycle found")
    return BetaResult(float(lam), _cycle_word(graph, cycle), lam)


def brute_force_beta(space: SftSpace, f: Potential, max_period: int) -> float:
    """Independent oracle: maximum mean of f over all periodic orbits of
    period <= max_period, by exact max-plus powers of the weight matrix.

    Closed walks decompose into simple cycles, so for max_period >= the
    block-graph node count this equals the maximum mean cycle.
    """
    graph = _graph_for(space, f)
    edges = [((u, v), w) for (u, v, _), w
             in zip(graph.edges, _exact_weights(graph, f))]
    best = _maxplus_best_mean(graph.n_nodes(), edges, max_period)
    if best is None:
        raise ValueError("no periodic orbit of the requested period")
    return float(best)


def _maxplus_best_mean(n: int, edges: list,
                       max_period: int) -> Optional[Fraction]:
    """Largest mean weight of a closed walk of length <= max_period on nodes
    0..n-1, exact, from the diagonals of the max-plus powers W, W^2, ... of
    the edge weights ``((u, v), w)`` (int or Fraction); None without one.

    The weights are scaled by their common denominator to integers.  Walk
    sums are then bounded by max|w| * max_period, so float64 holds them
    exactly below 2**53 and absent entries are -inf; above it the arrays hold
    Python ints and an absent entry is an int below every real walk sum of
    the same length, which stays true of any sum that includes it.
    """
    if not edges:
        return None
    den = math.lcm(*(Fraction(w).denominator for _, w in edges))
    ints = [int(w * den) for _, w in edges]
    bound = max(map(abs, ints))
    if bound * max_period < 2 ** 53:
        W = np.full((n, n), -np.inf)
    else:
        W = np.full((n, n), -(2 * max_period * bound + 1), dtype=object)
    for ((u, v), _), w in zip(edges, ints):
        W[u, v] = w
    cur = W
    best = None
    for p in range(1, max_period + 1):
        if p > 1:
            cur = (cur[:, :, None] + W[None]).max(axis=1)
        top = cur.diagonal().max()
        if top >= -p * bound:
            mean = Fraction(int(top), p)
            if best is None or mean > best:
                best = mean
    return None if best is None else best / den


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
    graph = _graph_for(space, f)
    weights = _exact_weights(graph, f)
    lam = _karp(graph, weights)
    n = graph.n_nodes()
    cycles = _simple_cycles(_tight_subgraph(graph, weights, lam))
    words = tuple(_cycle_word(graph, c) for c in cycles)
    if len(cycles) == 1:
        cyc_edges = {(c, cycles[0][(i + 1) % len(cycles[0])])
                     for i, c in enumerate(cycles[0])}
        alt_W = [((u, v), w) for (u, v, _), w in zip(graph.edges, weights)
                 if (u, v) not in cyc_edges]
        alt_best = _maxplus_best_mean(n, alt_W, n)
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
    graph = _graph_for(space, f)
    wfn = _edge_weight_fn(f)
    shift = f.max_value()
    n = graph.n_nodes()
    M = np.zeros((n, n))
    for u, v, ew in graph.edges:
        M[u, v] = math.exp(wfn(ew) - shift)
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


def equilibrium_state(space: SftSpace, f: Potential) -> MarkovMeasure:
    """The Gibbs/equilibrium measure of a locally constant potential: the
    transfer matrix conjugated by its right Perron eigenvector, with the
    stationary vector from MarkovMeasure's direct solve.

    For depth r <= 2 this is a Markov measure on the original space; deeper
    potentials return the Markov measure on the (r-1)-block space.
    """
    if space.primitivity_index is None:
        raise NotPrimitive("equilibrium_state needs a primitive space")
    graph, M, _ = _transfer_matrix(space, f)
    lam, right = _perron(M)
    if (right <= 0).any():  # pragma: no cover - Perron vectors are positive
        raise ArithmeticError("non-positive Perron entry")
    Q = M * right / (lam * right[:, None])
    Q = Q / Q.sum(axis=1, keepdims=True)
    return MarkovMeasure(graph.block_space(), Q)


def equilibrium_mean(space: SftSpace, f: Potential,
                     mu: Optional[MarkovMeasure] = None) -> float:
    """Integral of f against its equilibrium state, via edge flows of the
    block-graph measure (valid for any depth)."""
    graph = _graph_for(space, f)
    wfn = _edge_weight_fn(f)
    measure = mu if mu is not None else equilibrium_state(space, f)
    total = 0.0
    for u, v, ew in graph.edges:
        total += measure.stationary[u] * measure.stochastic[u, v] * wfn(ew)
    return total


def equilibrium_residual(space: SftSpace, f: Potential) -> float:
    """|h(mu_f) + int f dmu_f - P(f)|, the variational-principle defect."""
    mu = equilibrium_state(space, f)
    return abs(ks_entropy(mu) + equilibrium_mean(space, f, mu) - pressure(space, f))


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
    lo, hi = ergodic_average_range(space, f)
    if a < lo - 1e-9 or a > hi + 1e-9:
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
