"""Ergodic optimization and thermodynamic formalism for locally constant
potentials: maximum ergodic averages, maximizing periodic orbits, pressure,
equilibrium states and level-set entropies.

A depth-r potential is one value per row of the r-word table; it lives on the
edges of the block graph of ell-words, ell = max(r-1, 1), indexed the same
way.  One helper scales the edge values to exact integers, and one max-plus
step, a gather over the block graph's padded in-edge table, serves Karp's
maximum mean cycle, the tight-cycle relaxation and the independent
periodic-orbit oracle, which agree bit for bit.  Pressure and equilibrium
states come from a dense eigendecomposition.

The solvers take a leading batch axis: :func:`betas`,
:func:`brute_force_betas`, :func:`pressures` and
:func:`equilibrium_residuals` solve the potentials of one block graph
together, in batches of bounded size, and :func:`beta`,
:func:`brute_force_beta`, :func:`pressure` and :func:`equilibrium_residual`
are their one-potential cases.  Every result is exact or comes from a
per-matrix LAPACK call, so it does not depend on the batch it was solved in;
:func:`level_entropy_details` runs its golden-section searches in lockstep on
:func:`pressures` for the same reason.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Optional, Sequence

import numpy as np

from .errors import OutsideLf, PerronNotPositive, SpaceMismatch
from .measures import MarkovMeasure, ks_entropies, markov_measures, rng_from
from .shift import (BlockGraph, InEdges, SftSpace, Word, _perron, block_graph,
                    by_word_row, word_columns, words_of_one_length)

# --------------------------- potentials ---------------------------


class Potential:
    """Depth-r potential: one real value per admissible r-word, held as the
    read-only float vector ``values`` in ``space.word_table(r)`` order."""

    def __init__(self, space: SftSpace, r: int, table: dict):
        values = np.array([float(v) for v in
                           by_word_row(space, r, table, "table")])
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

    def to_json(self) -> str:
        return json.dumps({"table": {
            Word(k).to_text(): v for k, v in self.table.items()}})

    @classmethod
    def from_json(cls, space: SftSpace, text: str) -> "Potential":
        return cls(space, *words_of_one_length(json.loads(text)["table"],
                                               "table"))


def random_potential(space: SftSpace, r: int, seed: int,
                     low: int = -9, high: int = 9,
                     integer: bool = True) -> Potential:
    """One draw per admissible r-word, in table order."""
    rng, k = rng_from(seed), len(space.word_table(r))
    return Potential._of(space, r, rng.integers(low, high + 1, size=k)
                         .astype(float) if integer
                         else rng.uniform(low, high, size=k))


def coboundary_shift(f: Potential, g: Potential) -> Potential:
    """f + g(shifted window) - g(window): same ergodic averages as f;
    SpaceMismatch (potential 1) when g lives on another space."""
    _check_space(f.space, [f, g])
    if g.r != max(f.r - 1, 1):
        raise ValueError("coboundary depth must be one less than the potential's")
    r = max(f.r, g.r + 1)
    words = f.space.word_table(r)
    f0, g1, g0 = (h.values[word_columns(f.space, words[:, i:i + h.r])]
                  for h, i in ((f, 0), (g, 1), (g, 0)))
    return Potential._of(f.space, r, (f0 + g1) - g0)


def mean_potential(mu: MarkovMeasure, f: Potential) -> float:
    """Integral of a depth-r potential against a Markov measure on its space;
    SpaceMismatch when the measure lives on another space."""
    _check_space(mu.space, [f])
    return sum(mu.cylinder_prob(w) * v for w, v in f.table.items())


# --------------------------- batches on block graphs ---------------------------


# A batched solve is cut so that the largest array it holds per potential
# (Karp's D table, the oracle's gather, a Perron call's matrix) has at most
# this many elements over the batch: a bound on its memory.  On the oracle,
# 2**16 runs 432 max-plus steps where 2**14 ran 1,436; 2**17 saved under 1%
# more of a pass and added 0.75 MiB to its peak memory.
_BATCH_ELEMENTS = 1 << 16


def _edge_values(graph: BlockGraph, r: int, values: np.ndarray) -> np.ndarray:
    """Depth-r potential values (..., words) on each edge, in edge order (at
    depth 1, on its first symbol)."""
    return values if r > graph.ell else values[..., graph.src]


def _check_space(space: SftSpace, fs: Sequence[Potential]) -> None:
    """SpaceMismatch names the first potential defined on another space."""
    for i, f in enumerate(fs):
        if f.space is not space and f.space != space:
            raise SpaceMismatch(
                f"potential {i} is defined on the space with transition "
                f"{f.space.transition.tolist()}, not on "
                f"{space.transition.tolist()}")


def _batches(space: SftSpace, fs: Sequence[Potential], row_elements):
    """The potentials fs grouped by block graph, in order of first
    appearance, and cut into batches of at most _BATCH_ELEMENTS elements,
    ``row_elements(graph)`` per potential: yields (graph, rows, values), rows
    the batch's indices in fs and values its (len(rows), edges) edge values.
    A potential defined on another space raises SpaceMismatch."""
    _check_space(space, fs)
    groups: dict[int, list[int]] = {}
    for i, f in enumerate(fs):
        groups.setdefault(f.r, []).append(i)
    for r, rows in groups.items():
        graph = block_graph(space, max(r - 1, 1))
        size = max(1, _BATCH_ELEMENTS // row_elements(graph))
        for lo in range(0, len(rows), size):
            batch = rows[lo:lo + size]
            yield graph, batch, _edge_values(
                graph, r, np.stack([fs[i].values for i in batch]))


def _cycle_word(graph: BlockGraph, cycle_nodes: Sequence[int]) -> Word:
    return Word(graph.space.word_table(graph.ell)[cycle_nodes, 0].tolist())


# --------------------------- exact max-plus core ---------------------------


def _integer_weights(values: np.ndarray, steps: int) -> tuple:
    """(w, den, absent, floor) for a batch of value rows: the values as
    integers w = values * den, den their common (power-of-two) denominator
    over the whole batch, exact in sums of up to ``steps`` entries: float64
    while steps * max|w| < 2**53, else Python ints.  ``absent`` marks a
    missing entry (-inf, or the int -(2 * steps * max|w| + 1)); a sum of up
    to ``steps`` entries is above ``floor`` (-inf, or
    -(steps * max|w| + 1)) exactly when it has none."""
    sizes = set(np.abs(values).ravel().tolist())
    den = max((v.as_integer_ratio()[1] for v in sizes), default=1)
    a, d = max(sizes, default=0.0).as_integer_ratio()
    bound = a * (den // d)
    if bound * steps < 2 ** 53:
        return np.ldexp(values, den.bit_length() - 1), den, -np.inf, -np.inf
    floor = -(steps * bound + 1)
    ints = [a * (den // d) for a, d in map(float.as_integer_ratio,
                                           values.ravel().tolist())]
    return (np.array(ints, dtype=object).reshape(values.shape), den,
            2 * floor + 1, floor)


def _maxplus_step(cur: np.ndarray, table: InEdges, W: np.ndarray,
                  absent) -> np.ndarray:
    """One max-plus product with an edge list: out[..., v] is the largest
    of absent and cur[..., u] + w over the edges (u, v), absent where v has
    none.  A gather over the in-edge table, W = table.weights(w, absent),
    with the gathered array the step's one temporary."""
    g = cur[..., table.src]  # (n, d)-major: the max over d is elementwise
    g += W
    out = g.max(axis=-1)
    np.maximum(out, absent, out=out)
    if table.bare.size:
        out[..., table.bare] = absent
    return out


def _karp(graph: BlockGraph, w: np.ndarray, absent
          ) -> tuple[np.ndarray, np.ndarray]:
    """Karp's maximum cycle mean with multi-source initialization for each
    row of a batch of integer weights w (..., edges), as fractions num / q,
    q <= n, in the units of w.

    D[k, ..., v] is the heaviest walk of k edges into v (never absent: every
    block-graph node has an in-edge), and lam = max_v min_k (D[n, v] -
    D[k, v]) / (n - k), the ratios compared by cross-multiplying: products
    below 2 * n**2 * max|w|, exact in w chosen for 2 * n**2 steps."""
    n, table = graph.n_nodes(), graph.in_edges
    W = table.weights(w, absent)
    D = np.zeros((n + 1,) + w.shape[:-1] + (n,), dtype=w.dtype)
    for k in range(1, n + 1):
        D[k] = _maxplus_step(D[k - 1], table, W, absent)
    num, den = D[n] - D[0], np.full(D[n].shape, n, dtype=w.dtype)
    for k in range(1, n):
        a = D[n] - D[k]
        lower = a * den < num * (n - k)
        num, den = np.where(lower, a, num), np.where(lower, n - k, den)
    best_num, best_den = num[..., 0], den[..., 0]
    for v in range(1, n):
        higher = num[..., v] * best_den > best_num * den[..., v]
        best_num = np.where(higher, num[..., v], best_num)
        best_den = np.where(higher, den[..., v], best_den)
    return best_num, best_den


def _tight_subgraph(graph: BlockGraph, w: np.ndarray, absent,
                    num: np.ndarray, q: np.ndarray) -> list[list[list[int]]]:
    """For each row of a batch: adjacency lists, in edge order, of the edges
    with h[u] + w - lam == h[v], for lam = num / q and h the longest-walk
    potentials of the graph reweighted by -lam.  With lam the maximum cycle
    mean, its cycles are exactly the optimal cycles.  Scaled by q <= n, the
    relaxation runs on the integers q * w - num, one vectorised sweep per
    round for the whole batch, and stays below 2 * n**2 * max|w|."""
    n, table = graph.n_nodes(), graph.in_edges
    wq = q[..., None] * w - num[..., None]
    W = table.weights(wq, absent)
    h = np.zeros(w.shape[:-1] + (n,), dtype=w.dtype)
    for _ in range(n + 1):
        nxt = np.maximum(h, _maxplus_step(h, table, W, absent))
        if (nxt == h).all():
            break
        h = nxt
    else:  # pragma: no cover - would mean a positive cycle above the maximum
        raise ArithmeticError("reweighted relaxation failed to stabilize")
    tight = np.asarray(h[..., graph.src] + wq == h[..., graph.dst], dtype=bool)
    out = []
    for row in tight:
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in zip(graph.src[row].tolist(), graph.dst[row].tolist()):
            adj[u].append(v)
        out.append(adj)
    return out


def _optimum(graph: BlockGraph, values: np.ndarray
             ) -> list[tuple[Fraction, list[list[int]]]]:
    """For each row of a batch of edge values: the maximum cycle mean,
    exact, and the tight subgraph whose cycles are the optimal ones."""
    n = graph.n_nodes()
    w, den, absent, _ = _integer_weights(values, 2 * n * n)
    num, q = _karp(graph, w, absent)
    tight = _tight_subgraph(graph, w, absent, num, q)
    return [(Fraction(int(a), int(b) * den), adj)
            for a, b, adj in zip(num.tolist(), q.tolist(), tight)]


def _maxplus_best_mean(table: InEdges, values: np.ndarray,
                       max_period: int) -> list[Optional[Fraction]]:
    """For each row of a batch of edge values on the in-edge table of a
    graph: the largest mean value of a closed walk of length <= max_period,
    exact, from the diagonals of the max-plus powers of the edge values;
    None without one.  The integers are chosen exact for max_period**2
    steps, so a walk sum times a length is exact too."""
    n = len(table.src)
    w, den, absent, floor = _integer_weights(values, max_period ** 2)
    W = table.weights(w, absent)[..., None, :, :]
    diag = np.arange(n)
    cur = np.full(w.shape[:-1] + (n, n), absent, dtype=w.dtype)
    cur[..., diag, diag] = 0
    best_sum = np.full(w.shape[:-1], absent, dtype=w.dtype)  # none yet
    best_len = np.ones(w.shape[:-1], dtype=np.int64)
    for p in range(1, max_period + 1):
        cur = _maxplus_step(cur, table, W, absent)
        top = cur[..., diag, diag].max(axis=-1)
        better = np.asarray((top > floor) & (top * best_len > best_sum * p),
                            dtype=bool)
        best_sum = np.where(better, top, best_sum)
        best_len = np.where(better, p, best_len)
    return [Fraction(int(s), q * den) if s > floor else None
            for s, q in zip(best_sum.tolist(), best_len.tolist())]


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


def betas(space: SftSpace, fs: Sequence[Potential]) -> list[BetaResult]:
    """Maximum ergodic average of each potential with an attaining periodic
    word, in input order.

    Solved as maximum mean cycle on the block graph (Karp's algorithm, exact
    in integers), one batch per block graph; ties inside the optimum are
    broken by the DFS order of the tight subgraph, see classify_smr for tie
    reporting.
    """
    space.gap("beta")
    out: list = [None] * len(fs)
    for graph, rows, values in _batches(  # Karp's (n+1) x n D, or n x d
            space, fs, lambda g: g.n_nodes() * max(g.n_nodes() + 1,
                                                   g.in_edges.src.shape[1])):
        for i, (lam, tight) in zip(rows, _optimum(graph, values)):
            cycle = _find_cycle(tight)
            if cycle is None:  # pragma: no cover - optimal cycle is always tight
                raise ArithmeticError("no tight cycle found")
            out[i] = BetaResult(float(lam), _cycle_word(graph, cycle), lam)
    return out


def beta(space: SftSpace, f: Potential) -> BetaResult:
    """Maximum ergodic average of f with an attaining periodic word: the
    one-potential case of :func:`betas`."""
    return betas(space, [f])[0]


def brute_force_betas(space: SftSpace, fs: Sequence[Potential],
                      max_period: int) -> list[float]:
    """Independent oracle: the maximum mean of each potential over all
    periodic orbits of period <= max_period, in input order, by exact
    max-plus powers of the weight matrix, one batch per block graph.

    Closed walks decompose into simple cycles, so for max_period >= the
    block-graph node count this equals the maximum mean cycle.
    """
    out: list = [None] * len(fs)
    for graph, rows, values in _batches(
            space, fs, lambda g: g.n_nodes() * g.in_edges.src.size):
        for i, best in zip(rows, _maxplus_best_mean(graph.in_edges, values,
                                                    max_period)):
            if best is None:
                raise ValueError("no periodic orbit of the requested period")
            out[i] = float(best)
    return out


def brute_force_beta(space: SftSpace, f: Potential, max_period: int) -> float:
    """The one-potential case of :func:`brute_force_betas`."""
    return brute_force_betas(space, [f], max_period)[0]


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
    _check_space(space, [f])
    graph = block_graph(space, max(f.r - 1, 1))
    values = _edge_values(graph, f.r, f.values)
    (lam, tight), = _optimum(graph, values[None])
    n = graph.n_nodes()
    cycles = _simple_cycles(tight)
    words = tuple(_cycle_word(graph, c) for c in cycles)
    if len(cycles) == 1:
        cyc = np.array(cycles[0])
        off = ~np.isin(graph.src * n + graph.dst, cyc * n + np.roll(cyc, -1))
        alt_best, = _maxplus_best_mean(
            InEdges.of(n, graph.src[off], graph.dst[off]), values[None, off], n)
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


def _transfer_solves(space: SftSpace, fs: Sequence[Potential]):
    """Per batch of :func:`_batches`: (graph, rows, values, M, lam, right,
    shift), M the transition-masked exp(f) matrices on the block graph with
    each potential shifted by its maximum for overflow safety, and lam and
    right their Perron roots and right vectors."""
    for graph, rows, values in _batches(space, fs,
                                        lambda g: g.n_nodes() ** 2):
        shift = values.max(axis=1)
        n = graph.n_nodes()
        M = np.zeros((len(rows), n, n))
        M[:, graph.src, graph.dst] = np.reshape(list(map(
            math.exp, (values - shift[:, None]).ravel().tolist())),
            values.shape)
        lam, right = _perron(M)
        yield graph, rows, values, M, lam, right, shift.tolist()


def pressures(space: SftSpace, fs: Sequence[Potential]) -> list[float]:
    """P(f), the log spectral radius of the transfer matrix, for each
    potential in input order, from one :func:`_transfer_solves` pass."""
    space.gap("pressure")
    out: list = [None] * len(fs)
    for _, rows, _, _, lam, _, shift in _transfer_solves(space, fs):
        for i, li, si in zip(rows, lam.tolist(), shift):
            out[i] = math.log(li) + si
    return out


def pressure(space: SftSpace, f: Potential) -> float:
    """log spectral radius of the transfer matrix; P(0) recovers h_top.  The
    one-potential case of :func:`pressures`."""
    return pressures(space, [f])[0]


def _equilibria(space: SftSpace, fs: Sequence[Potential]):
    """Per batch of :func:`_batches`: (graph, rows, values, mus, pressures),
    the equilibrium states on one block space and the pressures P(f) of the
    batch, from one Perron solve and one :func:`markov_measures` call."""
    space.gap("equilibrium_state")
    for graph, rows, values, M, lam, right, shift in _transfer_solves(space,
                                                                       fs):
        low = right.min(axis=1)
        bad = np.flatnonzero(low <= 0)
        if bad.size:
            raise PerronNotPositive(
                f"potential {rows[bad[0]]}: the computed Perron vector has"
                f" the entry {low[bad[0]]:.3g}, so the transfer matrix is"
                " too ill-conditioned for the eigensolver")
        Q = M * right[:, None, :] / (lam[:, None, None] * right[:, :, None])
        Q = Q / Q.sum(axis=2, keepdims=True)
        yield (graph, rows, values, markov_measures(graph.block_space(), Q),
               [math.log(li) + si for li, si in zip(lam, shift)])


def equilibrium_state(space: SftSpace, f: Potential) -> MarkovMeasure:
    """The Gibbs/equilibrium measure of a locally constant potential: the
    transfer matrix conjugated by its right Perron eigenvector, with the
    stationary vector from MarkovMeasure's direct solve.

    For depth r <= 2 this is a Markov measure on the original space; deeper
    potentials return the Markov measure on the (r-1)-block space.
    """
    (_, _, _, mus, _), = _equilibria(space, [f])
    return mus[0]


def _edge_flow_means(graph: BlockGraph, values: np.ndarray,
                     mus: Sequence[MarkovMeasure]) -> np.ndarray:
    """For each row of a batch of edge values (B, edges) and its measure on
    the block space: the sum of pi[u] * Q[u, v] * value over the edges, left
    to right in edge order."""
    pi = np.stack([mu.stationary for mu in mus])
    Q = np.stack([mu.stochastic for mu in mus])
    flows = pi[:, graph.src] * Q[:, graph.src, graph.dst] * values
    return np.cumsum(flows, axis=1)[:, -1]


def equilibrium_mean(space: SftSpace, f: Potential,
                     mu: Optional[MarkovMeasure] = None) -> float:
    """Integral of f against its equilibrium state, or against a given
    measure on f's block space, via edge flows of the block-graph measure
    (valid for any depth); SpaceMismatch when f lives on another space or
    mu on another block space (edges compared with the graph's, so the
    block space is not built)."""
    _check_space(space, [f])
    graph = block_graph(space, max(f.r - 1, 1))
    if mu is None:
        mu = equilibrium_state(space, f)
    else:
        n, A = graph.n_nodes(), mu.space.transition
        if (len(A), int(A.sum())) != (n, len(graph.src)) \
                or not A[graph.src, graph.dst].all():
            raise SpaceMismatch(
                f"mu must live on the {n}-node block space of the depth-{f.r}"
                f" potential ({len(graph.src)} edges), not on {mu.space!r} "
                f"({int(A.sum())} edges)")
    return float(_edge_flow_means(
        graph, _edge_values(graph, f.r, f.values)[None], [mu])[0])


def equilibrium_residuals(space: SftSpace, fs: Sequence[Potential]
                          ) -> list[float]:
    """|h(mu_f) + int f dmu_f - P(f)|, the variational-principle defect, for
    each potential in input order; per batch, the transfer matrices share
    one eigendecomposition call, the measures one :func:`markov_measures`
    call, and the entropies and edge-flow means are computed as stacks."""
    out: list = [None] * len(fs)
    for graph, rows, values, mus, p in _equilibria(space, fs):
        res = np.abs(ks_entropies(mus) + _edge_flow_means(graph, values, mus)
                     - np.array(p))
        for i, v in zip(rows, res.tolist()):
            out[i] = v
    return out


def equilibrium_residual(space: SftSpace, f: Potential) -> float:
    """The one-potential case of :func:`equilibrium_residuals`."""
    return equilibrium_residuals(space, [f])[0]


# --------------------------- level sets ---------------------------


def ergodic_average_range(space: SftSpace, f: Potential) -> tuple[float, float]:
    hi, neg = betas(space, [f, f.scale(-1.0)])
    return -neg.value, hi.value


def _level_search(a: float, q_max: float, q_tol: float):
    """The golden-section search for t_a = inf_q P(q f) - q a as a
    generator: it yields each q whose pressure P(q f) it needs, is sent
    that pressure, and returns (t_a, q*).

    Boundary levels keep pushing the minimizer outward; the search then stops
    at q_max and reports the limiting value there.
    """
    def g(q: float):
        return (yield q) - q * a

    ql, qr = -1.0, 1.0
    g0 = yield from g(0.0)
    while qr <= q_max:
        if (yield from g(ql)) >= g0 and (yield from g(qr)) >= g0:
            break
        ql *= 2.0
        qr *= 2.0
    ql = max(ql, -q_max)
    qr = min(qr, q_max)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = qr - invphi * (qr - ql)
    d = ql + invphi * (qr - ql)
    gc = yield from g(c)
    gd = yield from g(d)
    while qr - ql > q_tol:
        if gc <= gd:
            qr, d, gd = d, c, gc
            c = qr - invphi * (qr - ql)
            gc = yield from g(c)
        else:
            ql, c, gc = c, d, gd
            d = ql + invphi * (qr - ql)
            gd = yield from g(d)
    q_star = 0.5 * (ql + qr)
    return (yield from g(q_star)), q_star


def level_entropy_details(space: SftSpace, f: Potential,
                          levels: Sequence[float], q_max: float = 512.0,
                          q_tol: float = 1e-8) -> list[tuple[float, float]]:
    """(t_a, q*) for each level a, in input order, with t_a = inf_q P(q f) -
    q a by golden-section search.

    The searches run in lockstep: each round solves the next q of every
    search still running in one :func:`pressures` call.  Every level is
    checked against the range of ergodic averages before any pressure
    solve; OutsideLf names the first one outside it.
    """
    if not (q_tol > 0 and 0 < q_max < math.inf):
        raise ValueError("q_tol and q_max must be positive, q_max finite")
    lo, hi = ergodic_average_range(space, f)
    for a in levels:
        if not lo - 1e-9 <= a <= hi + 1e-9:  # also rejects nan
            raise OutsideLf(f"a={a} outside [{lo}, {hi}]")
    searches = [_level_search(a, q_max, q_tol) for a in levels]
    out: list = [None] * len(levels)
    qs = [next(search) for search in searches]
    running = list(range(len(levels)))
    while running:
        ps = pressures(space, [f.scale(qs[i]) for i in running])
        still = []
        for i, p in zip(running, ps):
            try:
                qs[i] = searches[i].send(p)
                still.append(i)
            except StopIteration as done:
                out[i] = done.value
        running = still
    return out


def level_entropy_detail(space: SftSpace, f: Potential, a: float,
                         q_max: float = 512.0,
                         q_tol: float = 1e-8) -> tuple[float, float]:
    """(t_a, q*): the one-level case of :func:`level_entropy_details`."""
    return level_entropy_details(space, f, [a], q_max, q_tol)[0]


def level_entropy(space: SftSpace, f: Potential, a: float) -> float:
    """Entropy ceiling of the level set of ergodic average a, via the Legendre
    transform of the pressure function."""
    return level_entropy_detail(space, f, a)[0]
