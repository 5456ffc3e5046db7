"""The per-row paths that the stacked Markov-measure builder replaced, kept
as its oracles: MarkovMeasure's per-matrix checks and SVD stationary solve,
the per-measure entropy, the edge-flow mean summed edge by edge in Python,
and equilibrium states conjugated and built one potential at a time.  Also
the per-step sampler, the per-cylinder weak* sums and the Word-scored block
draw that the array-first draws replaced, the one-draw sampler that walked
periodic orbits step by step, which the chunked draw replaced, and the
closure-loop ergodicity check that the frontier sweeps replaced.  And the
two window counters that ``window_counts`` over a sliding view replaced:
its own per-offset scatter loop and the block draw's chunked bincount."""
import math
from types import SimpleNamespace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from sftlab import gluing, measures
from sftlab.ergopt import _edge_values, _transfer_solves, block_graph
from sftlab.errors import StationaryNotUnique
from sftlab.measures import cylinder_weights, rng_from
from sftlab.shift import Word, word_columns

from word_oracles import window_columns


def per_matrix_stationary(Q):
    """The stationary vector of one stochastic matrix from its own SVD."""
    m = Q.shape[0]
    _, sing, vt = np.linalg.svd(Q.T - np.eye(m))
    if m > 1 and sing[-2] <= m * np.finfo(float).eps * sing[0]:
        raise StationaryNotUnique(
            "stochastic matrix has more than one closed class, so its"
            " stationary vector is not unique")
    v = np.clip(vt[-1] / vt[-1].sum(), 0.0, None)
    return v / v.sum()


def per_matrix_measure(space, stochastic, stationary=None):
    """What MarkovMeasure(space, stochastic, stationary) held when it was
    built matrix by matrix: its stochastic matrix, stationary vector and
    their two cumulative tables, as the attributes of a namespace."""
    Q = np.array(stochastic, dtype=float)
    if Q.shape != (space.m, space.m):
        raise ValueError("stochastic matrix shape mismatch")
    if (Q < -1e-15).any():
        raise ValueError("negative transition probability")
    Q = np.clip(Q, 0.0, None)
    if np.abs(Q.sum(axis=1) - 1.0).max() > 1e-12:
        raise ValueError("rows must sum to 1 within 1e-12")
    if ((Q > 0) & (space.transition == 0)).any():
        raise ValueError("support leaks outside the transition matrix")
    pi = (np.array(stationary, dtype=float) if stationary is not None
          else per_matrix_stationary(Q))
    if pi.shape != (space.m,):
        raise ValueError("stationary vector shape mismatch")
    if (pi < -1e-15).any() or abs(pi.sum() - 1.0) > 1e-12:
        raise ValueError("stationary vector must be a probability vector")
    pi = np.clip(pi, 0.0, None)
    if stationary is None:
        pi = pi / pi.sum()
    if np.abs(pi @ Q - pi).max() > 1e-10:
        raise ValueError("stationarity residual above 1e-10")
    return SimpleNamespace(space=space, stochastic=Q, stationary=pi,
                           _row_cum=np.cumsum(Q, axis=1),
                           _pi_cum=np.cumsum(pi))


def closure_is_ergodic(mu):
    """MarkovMeasure.is_ergodic by the reflexive-transitive closure of the
    support graph on charged states, n dense boolean products."""
    support = np.flatnonzero(mu.stationary > 0)
    adj = mu.stochastic[np.ix_(support, support)] > 0
    n = len(support)
    reach = np.eye(n, dtype=bool)
    for _ in range(n):
        reach = reach | (reach @ adj)
    return bool(reach.all())


def per_measure_entropy(mu):
    Q, pi = mu.stochastic, mu.stationary
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(Q > 0, Q * np.log(Q), 0.0)
    return float(-(pi @ plogp.sum(axis=1)))


def loop_equilibrium_mean(space, f, mu):
    graph = block_graph(space, max(f.r - 1, 1))
    total = 0.0
    for u, v, val in zip(graph.src.tolist(), graph.dst.tolist(),
                         _edge_values(graph, f.r, f.values).tolist()):
        total += mu.stationary[u] * mu.stochastic[u, v] * val
    return total


def per_row_equilibria(space, fs):
    """(measure, pressure) of each potential, in input order, each measure
    conjugated and built on its own block space."""
    out = [None] * len(fs)
    for graph, rows, _, M, lam, right, shift in _transfer_solves(space, fs):
        for i, Mi, li, vi, si in zip(rows, M, lam, right, shift):
            Q = Mi * vi / (li * vi[:, None])
            Q = Q / Q.sum(axis=1, keepdims=True)
            out[i] = (per_matrix_measure(graph.block_space(), Q),
                      math.log(li) + si)
    return out


def per_row_residuals(space, fs):
    return [abs(per_measure_entropy(mu) + loop_equilibrium_mean(space, f, mu)
                - p) for f, (mu, p) in zip(fs, per_row_equilibria(space, fs))]


# The per-step sampler, the per-cylinder weak* loops and the Word-scored
# block draw that the array paths replaced.


def per_step_sample_word(mu, n, seed):
    """Oracle for sample_word: one searchsorted per step, clipped to the
    last state, as a Word."""
    u = rng_from(seed).random(n)
    last = mu.space.m - 1
    out = [min(int(np.searchsorted(mu._pi_cum, u[0], side="right")), last)]
    for t in range(1, n):
        out.append(min(int(np.searchsorted(mu._row_cum[out[-1]], u[t],
                                           side="right")), last))
    return Word(out)


def one_draw_sample_word(mu, n, seed):
    """sample_word as it drew all n uniforms at once and walked every chain
    whose successors depend on the state step by step, periodic orbits
    included: a read-only symbol array."""
    u = rng_from(seed).random(n)
    cuts, visited = measures._walk(mu)[:2]
    x = np.empty(n, dtype=mu.space.symbol_dtype)
    x[0] = state = int(cuts[-1].searchsorted(u[0], "right"))
    for lo in range(1, n, measures._CHAIN_CHUNK):
        chunk = u[lo:lo + measures._CHAIN_CHUNK]
        span = slice(lo, lo + len(chunk))
        table = [cuts[a].searchsorted(chunk, "right") for a in visited]
        if all(np.array_equal(row, table[0]) for row in table[1:]):
            x[span] = table[0]
        else:
            succ = [None] * mu.space.m
            for a, row in zip(visited, table):
                succ[a] = row.tolist()
            x[span] = [state := succ[state][t] for t in range(len(chunk))]
        state = int(x[span.stop - 1])
    x.flags.writeable = False
    return x


def loop_weak_star_counts(counts, total, target, depth):
    """weak_star_counts as it summed one cylinder at a time: each cylinder's
    count is the sum of the table rows it prefixes, and its term is added to
    the running distances; a short count row counts the missing rows as
    zero."""
    table = target.space.word_table(depth)
    counts = np.hstack([counts, np.zeros(
        (len(counts), len(table) - counts.shape[1]), dtype=counts.dtype)])
    d = np.zeros(counts.shape[0])
    for cyl, weight in cylinder_weights(target.space, depth):
        run = (table[:, :len(cyl)] == cyl).all(axis=1)
        freq = counts[:, run].sum(axis=1) / total
        d += weight * np.abs(freq - target.cylinder_prob(cyl))
    return d


def loop_weak_star_dist(a, b, depth):
    """weak_star_dist as a Python sum over the cylinders, one
    cylinder_prob call per measure and cylinder."""
    total = 0.0
    for cyl, weight in cylinder_weights(a.space, depth):
        total += weight * abs(a.cylinder_prob(cyl) - b.cylinder_prob(cyl))
    return total


def word_draw_block(st, depth, stage_idx, rep, seed):
    """gluing._draw_block as it drew a Word per attempt and scored it through
    ``to_array``, a sliding window view, a bare bincount and the
    per-cylinder loop: the accepted Word and the attempts it took."""
    for attempt in range(gluing._BLOCK_ATTEMPTS):
        w = per_step_sample_word(
            st.alpha, st.n, gluing._mix(seed, stage_idx, rep, attempt))
        cols = word_columns(st.alpha.space,
                            sliding_window_view(w.to_array(), depth))
        d = loop_weak_star_counts(np.bincount(cols)[None], st.n - depth + 1,
                                  st.alpha, depth)[0]
        if d <= st.zeta:
            return w, attempt + 1
    raise AssertionError("no draw accepted")


def offset_window_counts(space, rows, depth, stops):
    """measures.window_counts as it scatter-added the windows of one column
    offset at a time, every row at once."""
    counts = np.zeros((rows.shape[0], len(space.word_table(depth))),
                      dtype=np.int64)
    every_row = np.arange(rows.shape[0])
    stops = set(stops)
    last = max(stops)
    out = {}
    for i in range(last + 1):
        if i in stops:
            out[i] = counts.copy()
        if i < last:
            counts[every_row, word_columns(space, rows[:, i:i + depth])] += 1
    return out


def chunked_block_counts(space, x, depth, chunk=1 << 14):
    """The count row gluing._draw_block scored: the windows of a 1-d symbol
    array ranked by ``window_columns`` chunk at a time, one bincount per
    chunk, summed."""
    words = len(space.word_table(depth))
    return sum(np.bincount(window_columns(space, x[lo:lo + chunk + depth - 1],
                                          depth), minlength=words)
               for lo in range(0, max(len(x) - depth + 1, 1), chunk))
