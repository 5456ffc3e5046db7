"""The chaotic family's replaced planner and emitter, kept as oracles: the
stage record with its own budget, the planner that re-planned every stage
from scratch for each stage count it tried (``simulate``), and the
emitter's loop with its own memoised bridges and skip-empty rule.  The
blocks come from ``gluing._draw_block``, as they always did."""
import math
from dataclasses import dataclass

import numpy as np

from sftlab import gluing
from sftlab.gluing import (Stage, StageBudget, ValidationReport,
                           check_budgets, dense_tour)
from sftlab.shift import Word, bridge, glue_spans


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
        plan += [gluing._draw_block(run, check_depth, k, rep, seed)
                 for rep in range(st.reps)]
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
