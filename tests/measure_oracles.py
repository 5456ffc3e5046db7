"""The per-row paths that the stacked Markov-measure builder replaced, kept
as its oracles: MarkovMeasure's per-matrix checks and SVD stationary solve,
the per-measure entropy, the edge-flow mean summed edge by edge in Python,
and equilibrium states conjugated and built one potential at a time."""
import math
from types import SimpleNamespace

import numpy as np

from sftlab.ergopt import _edge_values, _transfer_solves, block_graph
from sftlab.errors import StationaryNotUnique


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
