"""The chaotic family's replaced planner and emitter, kept as oracles: the
stage record with its own budget, the planner that re-planned every stage
from scratch for each stage count it tried (``simulate``), and the
emitter's loop with its own memoised bridges and skip-empty rule.  The
blocks come from ``gluing._stage_blocks``, the stage draw the emitter
takes, which ``tests/test_gluing.py`` checks against the per-step oracle.
Also the whole-array gap core that the chunked window stats replaced: one
gap array per pair (``orbit_gaps``) and the reports read off it."""
import itertools
import math
from dataclasses import dataclass

import numpy as np

from sftlab import gluing
from sftlab.chaos import (ZERO_GAP, Dc1Report, LiYorkeReport, _checkpoints,
                          _distance, close_gap)
from sftlab.errors import WordsTooShort
from sftlab.gluing import (Stage, StageBudget, ValidationReport,
                           check_budgets, dense_tour)
from sftlab.shift import Word, _symbols, bridge, glue_spans


def orbit_gaps(x, y, n):
    """Integer gaps t with d(shift^i x, shift^i y) = 2.0**-t[i], 0 <= i < n:
    ZERO_GAP past the last disagreement of words of equal length, else the
    symbols remaining."""
    xs, ys = _symbols(x), _symbols(y)
    L = min(len(xs), len(ys))
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > L:
        raise WordsTooShort(f"need both words of length >= {n}")
    pos = np.flatnonzero(xs[:L] != ys[:L])
    nxt = np.append(pos, L)  # each position's next disagreement, else L
    nxt = np.repeat(nxt, np.diff(nxt, prepend=-1))[:n]
    t = nxt - np.arange(n)
    if len(xs) == len(ys):
        t[nxt == L] = ZERO_GAP
    return t


def _prefix(gaps, n):
    if n > len(gaps):
        raise WordsTooShort(f"need both words of length >= {n}")
    return gaps[:n]


def _phi_at(gaps, thr, cps):
    prefix, close = _prefix(gaps, cps[-1]), close_gap(thr)
    counts = itertools.accumulate(np.count_nonzero(prefix[a:b] >= close)
                                  for a, b in zip((0, *cps), cps))
    return [c / n for c, n in zip(counts, cps)]


def phi_from_gaps(gaps, t, n):
    """phi_n of the pair with the given gaps (at least n of them)."""
    if n < 1:
        raise ValueError("n must be positive")
    return _phi_at(gaps, t, (n,))[0]


def dc1_from_gaps(gaps, t0, t_grid, checkpoints, tau_low=0.05,
                  tau_high=0.05):
    """dc1_report of the pair with the given gaps."""
    cps = _checkpoints(checkpoints, unique=False)
    phi_t0 = tuple(_phi_at(gaps, t0, cps))
    grid = tuple(float(t) for t in t_grid)
    phi_grid = {t: tuple(_phi_at(gaps, t, cps)) for t in grid}
    min_phi_t0 = min(phi_t0)
    max_phi = {t: max(v) for t, v in phi_grid.items()}
    ok = min_phi_t0 <= tau_low and all(
        max_phi[t] >= 1.0 - tau_high for t in grid)
    return Dc1Report(
        t0=t0, checkpoints=cps, phi_t0=phi_t0, grid=grid, phi_grid=phi_grid,
        min_phi_t0=min_phi_t0, max_phi=max_phi, tau_low=tau_low,
        tau_high=tau_high,
        verdict="DC1-consistent" if ok else "not-DC1-consistent",
        distal_consistent=_distance(_prefix(gaps, cps[-1]).max()) > 2.0 ** -20,
    )


def li_yorke_from_gaps(gaps, checkpoints, prox_tol=2.0 ** -10,
                       dist_tol=2.0 ** -10):
    """li_yorke_report of the pair with the given gaps: a window's min
    distance is that of its largest gap, its max that of its smallest."""
    cps = _checkpoints(checkpoints, unique=True)
    head = _prefix(gaps, cps[-1])
    starts = (0, *cps[:-1])
    seg_hi = np.maximum.reduceat(head, starts)
    seg_lo = np.minimum.reduceat(head, starts)

    def dists(a):
        return tuple(_distance(t) for t in a.tolist())

    running_min = dists(np.maximum.accumulate(seg_hi))
    seg_min, seg_max = dists(seg_hi), dists(seg_lo)
    ok = seg_min[-1] <= prox_tol and seg_max[-1] >= dist_tol
    return LiYorkeReport(
        checkpoints=cps, running_min=running_min,
        running_max=dists(np.minimum.accumulate(seg_lo)),
        segment_min=seg_min, segment_max=seg_max, prox_tol=prox_tol,
        dist_tol=dist_tol,
        verdict="LiYorke-consistent" if ok else "not-LiYorke-consistent",
        distal_consistent=running_min[-1] > prox_tol)


@dataclass(frozen=True)
class ChaosStage:
    n: int
    reps: int
    ntilde: int
    tour: Word
    zeta: float
    eps: float

    def budget(self, k, end):
        """Stage k's budget: the tour and k excursions are its overhead, and
        its mu0 blocks are the tracking run."""
        return StageBudget(self.n, self.reps, len(self.tour) + k * self.ntilde,
                           self.zeta, self.eps, self.n * self.reps, end)


def simulated_stages(space, eps_star, lambda1, lambda2, horizon, anchor_len,
                     check_depth, min_block_len, max_tour_depth):
    """The stages of the longest ``simulate(count)`` (count up to 32) that
    ends within horizon; each count plans every stage from scratch, and
    only its last stage skips the next stage's overhead."""
    gap = space.primitivity_index
    L = check_depth
    maxp = max(len(lambda1), len(lambda2))
    tours = {}
    params = []
    for k in range(1, 33):
        zeta = 2.0 ** -(k + 1)
        eps = min(2.0 ** -(k + 1), eps_star / 2 ** (k + 2))
        ntilde = max(6, gap, 2 * maxp)
        depth = min(k, max_tour_depth)
        if depth not in tours:
            tours[depth] = dense_tour(space, depth)
        tour = tours[depth]
        n_k = max(gap, min_block_len, L,
                  math.ceil((len(tour) + k * ntilde) / zeta),
                  math.ceil((L - 1) / max(eps, 1e-9)),
                  math.ceil(1.0 / zeta ** 2))
        params.append((zeta, eps, ntilde, tour, n_k))

    def simulate(count):
        sim_stages = []
        past = anchor_len
        for k in range(1, count + 1):
            zeta, eps, ntilde, tour, n_k = params[k - 1]

            def end_at(reps):
                return glue_spans((past, *[n_k] * reps, *[ntilde] * k,
                                   len(tour)), gap)[-1][1]

            N = max(sim_stages[-1].reps + 1 if sim_stages else 1,
                    math.ceil(max(past, 1) / (zeta * n_k)))
            if k < count:
                z2, e2, nt2, tr2, n2 = params[k]
                overhead = n2 + (k + 1) * nt2 + len(tr2)
                N = gluing._smallest_reps(end_at, N, overhead / zeta)
            sim_stages.append(ChaosStage(n=n_k, reps=N, ntilde=ntilde,
                                         tour=tour, zeta=zeta, eps=eps))
            past = end_at(N)
        return sim_stages, past

    stages = None
    for count in range(1, 33):
        trial, end = simulate(count)
        if end > horizon:
            break
        stages = trial
    if stages is None:
        raise gluing.InfeasibleParams(
            f"horizon {horizon} too short for one stage")
    return stages


def bridged_two_orbit(space, orbits, xis, plan, horizon):
    """The members of a two-orbit plan as the emitter's own loop glued them:
    every piece an array, empty pieces skipped, and a bridge memoised per
    (last symbol, first symbol) pair, left out when it is empty."""
    gap = space.primitivity_index
    dtype = space.symbol_dtype
    cycles = [o.to_array().astype(dtype) for o in orbits]
    bridges = {}

    def piece(p, xi):
        if isinstance(p, tuple):
            return np.resize(cycles[xi[p[0]] - 1], p[1])
        return (p.to_array() if isinstance(p, Word) else p).astype(dtype)

    members = {}
    for xi in xis:
        parts = []
        for p in plan:
            a = piece(p, xi)
            if not len(a):
                continue
            if parts:
                key = (int(parts[-1][-1]), int(a[0]))
                if key not in bridges:
                    bridges[key] = np.array(bridge(space, *key, gap),
                                            dtype=dtype)
                if len(bridges[key]):
                    parts.append(bridges[key])
            parts.append(a)
        members[xi] = (np.concatenate(parts)[:horizon] if parts
                       else np.empty(0, dtype))
    return members


def simulated_chaotic_family(space, mu0, lambda1, lambda2, xis, horizon,
                             seed, *, anchor=None, check_depth=2,
                             min_block_len=8, max_tour_depth=6):
    """The replaced ``emit_chaotic_family``, as a dict of its stages, stage
    ends, mu0 run ends, excursion spans, validation, members and plan."""
    eps_star, xi_list = gluing._check_two_orbit(
        space, lambda1, lambda2, xis, "emit_chaotic_family")
    anchor_len = len(anchor) if anchor is not None else 0
    stages = simulated_stages(space, eps_star, lambda1, lambda2, horizon,
                              anchor_len, check_depth, min_block_len,
                              max_tour_depth)
    plan = [] if anchor is None else [anchor]
    run_last, excursions, tour_at = [], [], []
    for k, st in enumerate(stages, start=1):
        run = Stage(alpha=mu0, n=st.n, reps=st.reps, tour=st.tour,
                    zeta=st.zeta, eps=st.eps, depth=min(k, max_tour_depth))
        plan += gluing._stage_blocks(run, check_depth, k, seed)
        run_last.append(len(plan) - 1)
        excursions.append(range(len(plan), len(plan) + k))
        plan += [(q, st.ntilde) for q in range(k)]
        tour_at.append(len(plan))
        plan.append(st.tour)
    members = bridged_two_orbit(space, (lambda1, lambda2), xi_list, plan,
                                horizon)
    spans = glue_spans((p[1] if isinstance(p, tuple) else len(p)
                        for p in plan), space.primitivity_index)
    ends = [spans[i][1] for i in tour_at]
    return {
        "stages": stages,
        "stage_ends": tuple(ends),
        "mu0_run_ends": tuple(spans[i][1] for i in run_last),
        "excursion_spans": tuple(
            tuple((q, *spans[i]) for q, i in enumerate(ex, start=1))
            for ex in excursions),
        "validation": ValidationReport(tuple(check_budgets(
            [st.budget(k, end)
             for k, (st, end) in enumerate(zip(stages, ends), start=1)],
            anchor_len, check_depth))),
        "members": members,
        "plan": plan,
    }
