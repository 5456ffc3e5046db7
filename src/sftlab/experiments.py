"""Built-in desk-scale experiments, one per headline construction.

Each experiment is a function (seed, **params) -> ExperimentResult with a
pass/fail verdict, a details dict for the summary, and CSV tables whose
bodies are byte-identical across reruns with the same seed.  Its params are
its keyword-only arguments, whose defaults :func:`resolve_params` checks.
"""
from __future__ import annotations

import inspect
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import measures
from .errors import BadParams, InfeasibleParams
from .measures import MarkovMeasure, MeasurePath, ks_entropy
from .shift import (SftSpace, Word, block_graph, hamming_matrix,
                    separated_count)


@dataclass
class ExperimentResult:
    name: str
    passed: bool
    details: dict
    tables: dict = field(default_factory=dict)  # filename -> list of rows

    def summary(self) -> dict:
        return {"passed": self.passed, **self.details}


def _csv(header: list[str], rows: list[list]) -> list[str]:
    out = [",".join(header)]
    for row in rows:
        out.append(",".join(_fmt(v) for v in row))
    return out


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


REGISTRY: dict[str, tuple[Callable, str]] = {}


def experiment(name: str, target: str):
    def deco(fn):
        REGISTRY[name] = (fn, target)
        return fn
    return deco


def catalog() -> list[tuple[str, str]]:
    return [(name, target) for name, (_, target) in sorted(REGISTRY.items())]


_KINDS = {int: "an int", float: "a finite number", str: "a string",
          tuple: "a list"}


def _fits(value, default) -> bool:
    """Whether a param value has its default's type: an int refuses bools
    and floats, a float takes an int or a finite float, and a tuple takes a
    list or tuple whose entries fit its first entry."""
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and all(
            _fits(v, default[0]) for v in value)
    if isinstance(default, float):
        return type(value) is int or (type(value) is float
                                      and math.isfinite(value))
    return type(value) is type(default)


def resolve_params(name: str, params: Optional[dict] = None) -> dict:
    """The named experiment's keyword arguments: its signature's defaults,
    overridden by params.  :class:`BadParams` refuses an undeclared key,
    naming the closest declared one, and a value not of its default's type."""
    if name not in REGISTRY:
        raise KeyError(f"unknown experiment {name!r}; see `sftlab list`")
    declared = {p.name: p.default for p in inspect.signature(
        REGISTRY[name][0]).parameters.values() if p.kind is p.KEYWORD_ONLY}
    params = params or {}
    for key, value in params.items():
        if key not in declared:
            import difflib  # only a refused config needs it
            lower = {k.lower(): k for k in declared}  # {"n": 4} hints 'N'
            near = [lower[k] for k in difflib.get_close_matches(
                key.lower(), lower, 1, 0)]
            raise BadParams(f"{name}: no param {key!r}" + (
                f"; the closest is {near[0]!r}" if near else "; it takes none"))
        if not _fits(value, declared[key]):
            raise BadParams(f"{name}: param {key!r} must be"
                            f" {_KINDS[type(declared[key])]} like its"
                            f" default {declared[key]!r}, got {value!r}")
    return {**declared, **params}


def run_experiment(name: str, seed: int, params: Optional[dict] = None
                   ) -> ExperimentResult:
    params = resolve_params(name, params)
    return REGISTRY[name][0](seed, **params)


# --------------------------- experiments ---------------------------


@experiment("thm1_1_capacity",
            "full upper-capacity entropy of saturated sets via glued"
            " separated families")
def thm1_1_capacity(seed: int, *, eta: float = 0.12,
                    family_sizes: tuple = (12, 16, 20), anchor: str = "0"
                    ) -> ExperimentResult:
    from . import analysis, gluing
    space = SftSpace.full_shift(2)
    target_mu = MarkovMeasure.bernoulli(space, [0.1, 0.9])
    max_ent = MarkovMeasure.bernoulli(space, [0.5, 0.5])
    # growth_rate's fit needs both
    if len(family_sizes) < 3 or len(set(family_sizes)) == 1:
        raise InfeasibleParams(f"family_sizes needs at least three sizes, not"
                               f" all equal; got {family_sizes}")
    anchor = space.parse(anchor)
    h = ks_entropy(max_ent)

    counts = []
    tracking_ok = True
    worst_excess = -math.inf
    for N in family_sizes:
        fam = measures.typical_separated_family(
            max_ent, N, delta=0.05, eta=eta, seed=seed + N)
        sched = gluing.build_gk_schedule(
            space, target_mu, anchor=anchor, stages=3,
            family_len=N, family_entropy=h, family_eta=eta)
        prefix = gluing.member_prefix_len(sched)
        emitted = gluing.emit_separated_family(
            sched, fam, horizon=prefix + 2, seed=seed)
        count = separated_count(emitted, prefix, 1)
        counts.append((prefix, count))
        report = gluing.family_tracking_report(sched, fam, seed=seed)
        tracking_ok = tracking_ok and report.all_ok
        worst_excess = max(worst_excess, max(
            o - b for o, b in zip(report.observed_max, report.bounds)))
    rate = analysis.growth_rate(counts)
    slope_floor = math.log(2) - 0.15
    passed = rate.slope >= slope_floor and tracking_ok
    return ExperimentResult(
        name="thm1_1_capacity",
        passed=passed,
        details={
            "slope": rate.slope,
            "slope_floor": slope_floor,
            "abs_gap_to_log2": abs(rate.slope - math.log(2)),
            "tracking_all_ok": tracking_ok,
            "tracking_worst_excess": worst_excess,
        },
        tables={"counts.csv": _csv(["n", "separated_count"], counts)},
    )


_SAMPLED_LEAVES, _SAMPLED_PAIRS = 64, 32


def _sampled_leaf_checks(tree: gluing.BranchTree, seed: int
                         ) -> tuple[bool, bool]:
    """(layout_ok, split_ok) over seeded sample leaves, at any depth.

    Layout: each sampled leaf is as long as the tree's last prefix end and
    holds, in each stage span, the option word its label names.  Split: each
    sampled pair first disagrees in the first stage where the labels differ
    (that stage's span plus the bridge in front of it), as
    prefix_distinct_report predicts; equal labels give equal leaves.  A pair
    shares a random number of leading stages, so every stage is reached."""
    rng = random.Random(seed)  # randrange is exact at any leaf count
    total, spans = tree.leaf_count(), tree.stage_spans()
    bounds = [0, *tree.prefix_ends()]
    layout_ok = True
    for _ in range(_SAMPLED_LEAVES):
        i = rng.randrange(total)
        w = tree.leaf(i).symbols
        layout_ok &= len(w) == bounds[-1] and all(
            w[a:b] == st.options[c].symbols
            for (a, b), st, c in zip(spans, tree.stages, tree.label(i)))
    split_ok = True
    for _ in range(_SAMPLED_PAIRS):
        block = total // tree.leaf_count(rng.randrange(len(tree.stages)))
        i = rng.randrange(total)
        j = i - i % block + rng.randrange(block)
        x, y = tree.leaf(i).symbols, tree.leaf(j).symbols
        first = next((p for p, (a, b) in enumerate(zip(x, y)) if a != b), None)
        stage = next((s for s, (a, b) in enumerate(
            zip(tree.label(i), tree.label(j))) if a != b), None)
        split_ok &= (first is None if stage is None else first is not None
                     and bounds[stage] <= first < bounds[stage + 1])
    return layout_ok, split_ok


@experiment("thm1_2_packing_tree",
            "packing-entropy branching tree with exact counting-measure"
            " Bowen-ball bounds")
def thm1_2_packing_tree(seed: int, *, depth: int = 3, stage_len: int = 12
                        ) -> ExperimentResult:
    from . import gluing
    space = SftSpace.full_shift(2)
    K = MeasurePath([MarkovMeasure.bernoulli(space, [0.7, 0.3]),
                     MarkovMeasure.bernoulli(space, [0.3, 0.7])])
    tree = gluing.build_branch_tree(space, K, eta=0.1, depth=depth, seed=seed,
                                    stage_len=stage_len)
    mass = tree.mass_bound_report()
    distinct = tree.prefix_distinct_report()
    weight_total = tree.leaf_weight() * tree.leaf_count()
    layout_ok, split_ok = _sampled_leaf_checks(tree, seed)
    passed = (all(e.passed for e in mass) and all(e.passed for e in distinct)
              and weight_total == 1 and layout_ok and split_ok)
    rows = [[e.stage, tree.prefix_ends()[e.stage - 1], e.lhs, e.rhs,
             int(e.passed)] for e in mass]
    return ExperimentResult(
        name="thm1_2_packing_tree",
        passed=passed,
        details={
            "leaves": tree.leaf_count(),
            "weights_sum_exact": str(weight_total),
            "mass_bound_ok": all(e.passed for e in mass),
            "prefix_distinct_ok": all(e.passed for e in distinct),
            "sampled_leaves": _SAMPLED_LEAVES,
            "sampled_layout_ok": layout_ok,
            "sampled_pairs": _SAMPLED_PAIRS,
            "sampled_split_ok": split_ok,
        },
        tables={"mass_bounds.csv": _csv(
            ["stage", "prefix_len", "log_max_mass", "log_bound", "ok"], rows)},
    )


@experiment("prop3_1_family",
            "typical separated families at the entropy rate")
def prop3_1_family(seed: int, *, n: int = 18, eta: float = 0.3,
                   delta: float = 0.05) -> ExperimentResult:
    space = SftSpace.full_shift(2)
    mu = MarkovMeasure.bernoulli(space, [0.5, 0.5])
    fam = measures.typical_separated_family(mu, n, delta, eta, seed=seed)
    target = measures.family_target(n, ks_entropy(mu), eta)
    cap = min(len(fam), 400)
    too_close = hamming_matrix(fam[:cap], n) < delta * n
    pairwise_ok = not np.triu(too_close, 1).any()
    passed = len(fam) >= target and pairwise_ok
    return ExperimentResult(
        name="prop3_1_family",
        passed=passed,
        details={"size": len(fam), "target": target,
                 "pairwise_checked": cap, "pairwise_ok": pairwise_ok},
        tables={"family_sizes.csv": _csv(
            ["n", "eta", "delta", "size", "target"],
            [[n, eta, delta, len(fam), target]])},
    )


@experiment("lemma_ds_tracking",
            "empirical-tracking bound soundness along a measure path")
def lemma_ds_tracking(seed: int, *, stages: int = 3) -> ExperimentResult:
    from . import gluing
    space = SftSpace.full_shift(2)
    a = MarkovMeasure.bernoulli(space, [0.7, 0.3])
    b = MarkovMeasure.bernoulli(space, [0.3, 0.7])
    sched = gluing.build_gk_schedule(space, MeasurePath([a, b]),
                                     stages=stages)
    rows = gluing.tracking_report(sched, seed=seed)
    bounds = [r.bound for r in rows]
    nonincreasing = all(x >= y - 1e-12 for x, y in zip(bounds, bounds[1:]))
    passed = all(r.ok for r in rows) and nonincreasing
    return ExperimentResult(
        name="lemma_ds_tracking",
        passed=passed,
        details={
            "checkpoints": len(rows),
            "max_observed": max(r.observed for r in rows),
            "min_bound": min(bounds),
            "bounds_nonincreasing": nonincreasing,
        },
        tables={"tracking.csv": _csv(
            ["n", "observed", "bound", "ok"],
            [[r.n, r.observed, r.bound, int(r.ok)] for r in rows])},
    )


@experiment("thm1_3_cocycle_family",
            "full-capacity families with prescribed top Lyapunov exponent")
def thm1_3_cocycle_family(seed: int, *, N: int = 8, tail_len: int = 512
                          ) -> ExperimentResult:
    from . import analysis, cocycle
    space = SftSpace.full_shift(2)
    c = cocycle.MatrixCocycle(space, {
        (0,): np.array([[1.2, 0.1], [0.0, 0.9]]),
        (1,): np.array([[0.7, 0.0], [0.2, 1.3]]),
    })
    mu = MarkovMeasure.bernoulli(space, [0.5, 0.5])
    report = cocycle.emit_lyapunov_family(
        c, space, mu, space.parse("0101"), N=N, seed=seed, eta=0.1,
        tail_len=tail_len)
    sep = separated_count(report.members, report.prefix_len, 1)

    # recurrence-time diagnostic along one emitted member
    member = report.members[0]
    ratios = analysis.recurrence_ratios(member, Word("01"))
    late = [r for _, r in ratios[-5:]]
    recurrence_settled = all(r <= 1.5 for r in late)

    passed = (report.all_within_bound()
              and sep == report.family_size
              and report.family_size >= report.target_size
              and recurrence_settled)
    rows = [[i, e, d, report.prefix_bound]
            for i, (e, d) in enumerate(zip(report.exponents,
                                           report.deviations))]
    rec_rows = [[t, r] for t, r in ratios]
    return ExperimentResult(
        name="thm1_3_cocycle_family",
        passed=passed,
        details={
            "family_size": report.family_size,
            "target_size": report.target_size,
            "separated_count": sep,
            "reference_exponent": report.reference_exponent,
            "prefix_bound": report.prefix_bound,
            "max_deviation": max(report.deviations),
            "recurrence_late_max_ratio": max(late),
        },
        tables={
            "exponents.csv": _csv(
                ["member", "exponent", "deviation", "bound"], rows),
            "recurrence.csv": _csv(["t_i", "ratio"], rec_rows),
        },
    )


@experiment("thm1_4_levels_and_smr",
            "level-set entropy ceilings and the periodic structure of"
            " measure-recurrent optimal orbits")
def thm1_4_levels_and_smr(seed: int) -> ExperimentResult:
    from . import ergopt
    space = SftSpace.full_shift(2)
    f = ergopt.Potential.indicator(space, Word("1"))
    grid = [round(0.1 * i, 10) for i in range(1, 10)]
    details = ergopt.level_entropy_details(space, f, grid)
    center, t_boundaryish = (details[grid.index(a)][0] for a in (0.5, 0.9))
    rows = [[a, t, q, -a * math.log(a) - (1 - a) * math.log(1 - a)]
            for a, (t, q) in zip(grid, details)]  # closed form last
    max_err = max(abs(t - expected) for _, t, _, expected in rows)
    smr = ergopt.classify_smr(space, ergopt.Potential(space, 2, {
        (0, 0): 0.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): 0.0}))
    passed = (max_err <= 1e-6
              and abs(center - math.log(2)) <= 1e-8
              and t_boundaryish < math.log(2) - 0.1
              and smr.periodic is not None
              and sorted(smr.periodic.symbols) == [0, 1])
    return ExperimentResult(
        name="thm1_4_levels_and_smr",
        passed=passed,
        details={
            "max_grid_error": max_err,
            "center_value": center,
            "t_at_0.9": t_boundaryish,
            "smr_cycle": smr.periodic.to_text() if smr.periodic else None,
            "smr_gap": smr.gap,
        },
        tables={"levels.csv": _csv(["a", "t_a", "q_star", "closed_form"],
                                   rows)},
    )


@experiment("thm1_5_chaos",
            "chaotic two-orbit families: separation recurrence and"
            " closeness density")
def thm1_5_chaos(seed: int, *, horizon: int = 100_000, n_xi: int = 8
                 ) -> ExperimentResult:
    from . import chaos, gluing
    space = SftSpace.full_shift(2)
    if not 2 <= n_xi <= 1024:  # a pair to check, and distinct 10-bit xis
        raise InfeasibleParams(f"n_xi must lie in [2, 1024], got {n_xi}")
    pair_rows, fam_details = _chaotic_pairs(space, horizon, n_xi, seed)
    sep_ok = all(row[3] for row in pair_rows)
    phi_min = min([1.0] + [row[4] for row in pair_rows])
    ly_ok = all(row[5] == "LiYorke-consistent" for row in pair_rows)
    # measure-recurrent preimage pair: no late alternation
    pre_x = Word("0110" + "1" * 2000)
    pre_y = Word("1001" + "1" * 2000)
    pre_rep = chaos.li_yorke_report(pre_x, pre_y, [500, 1200, 2000])

    # non-fixed-point case: the alternating-domination family is DC1-like
    mu_per = MarkovMeasure.periodic_orbit(space, Word("01"))
    dc1_fam = gluing.emit_dc1_family(space, mu_per, Word("0"), Word("1"),
                                     [(1,) * 4, (2,) * 4], horizon, seed=seed)
    dc1_cps = [n for n in dc1_fam.stage_ends if n <= dc1_fam.horizon]
    t0, t_grid = dc1_fam.eps_star / 2, [2.0 ** -6, 2.0 ** -3, 0.5]
    stats, = chaos.gap_windows(dc1_fam.rows.window, dc1_fam.rows.length,
                               [(0, 1)], dc1_cps,
                               [chaos.close_gap(t) for t in (t0, *t_grid)])
    dc1_rep = chaos.dc1_from_windows(stats, t0, t_grid, dc1_cps)
    traj_rows = [[n, t, dc1_rep.phi_grid[t][i]]
                 for t in t_grid for i, n in enumerate(dc1_rep.checkpoints)]

    passed = (sep_ok and phi_min >= 0.9 and ly_ok
              and not pre_rep.consistent and dc1_rep.consistent)
    return ExperimentResult(
        name="thm1_5_chaos",
        passed=passed,
        details={
            "pairs": len(pair_rows),
            "separation_ok": sep_ok,
            "phi_min_at_run_end": phi_min,
            "li_yorke_all_consistent": ly_ok,
            "preimage_pair_verdict": pre_rep.verdict,
            "dc1_nonfixed_verdict": dc1_rep.verdict,
            **fam_details,
        },
        tables={
            "pairs.csv": _csv(
                ["i", "j", "first_disagreement", "separation_ok", "phi",
                 "verdict"], pair_rows),
            "dc1_trajectories.csv": _csv(["n", "t", "phi"], traj_rows),
        },
    )


def _chaotic_pairs(space: SftSpace, horizon: int, n_xi: int,
                   seed: int) -> tuple[list[list], dict]:
    """thm1_5_chaos's pair rows, scored from one chunked walk of the
    chaotic family's members, and the family's stage count and eps*."""
    from . import chaos, gluing
    mu0 = MarkovMeasure.periodic_orbit(space, Word("0"))
    xis = [tuple(1 + ((k >> i) & 1) for i in range(10)) for k in range(n_xi)]
    fam = gluing.emit_chaotic_family(space, mu0, Word("0"), Word("1"),
                                     xis, horizon, seed=seed)
    n_phi, ends = fam.mu0_run_ends[-1], fam.stage_ends
    cps = [n for n in ends if n <= horizon]
    near = chaos.close_gap(2.0 ** -3)
    far = chaos.close_gap(fam.eps_star / 2)  # window max below eps_star / 2
    pairs = list(itertools.combinations(range(len(xis)), 2))
    rows = []
    for (i, j), stats in zip(pairs, chaos.gap_windows(
            fam.rows.window, fam.rows.length, pairs, [*ends, n_phi],
            [near])):
        u = next(q for q in range(len(xis[i])) if xis[i][q] != xis[j][q])
        lows = stats.extremes(ends)[0]
        pair_sep = all(lows[k - 1] < far
                       for k in range(max(u + 1, 1), len(ends) + 1))
        val = stats.counts(near, [n_phi])[0] / n_phi
        rep = chaos.li_yorke_from_windows(stats, cps)
        rows.append([i, j, u, int(pair_sep), val, rep.verdict])
    return rows, {"stages": len(fam.stages), "eps_star": fam.eps_star}


def _count(count: int) -> None:
    """Check the ``count`` param, a number of trials: it must be positive."""
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")


def _trial_groups(seed: int, salt: int, draws: list[list[int]]):
    """For each (m, r) among the trials' draws, in increasing order: the
    full m-shift, r, the indices of the trials that drew it and the
    generator ``rng_from(seed, salt, m, r)`` of their potentials.  Trial t
    takes the row of its rank in its group, so neither its (m, r) nor its
    potential depends on the number of trials."""
    groups: dict[tuple[int, int], list[int]] = {}
    for t, (m, r) in enumerate(draws):
        groups.setdefault((m, r), []).append(t)
    spaces = {m: SftSpace.full_shift(m) for m, _ in groups}
    for (m, r), trials in sorted(groups.items()):
        yield spaces[m], r, trials, measures.rng_from(seed, salt, m, r)


@experiment("thm1_6_equilibrium",
            "equilibrium states: variational identity and entropy comparisons")
def thm1_6_equilibrium(seed: int, *, count: int = 50) -> ExperimentResult:
    from . import ergopt
    _count(count)
    draws = np.random.default_rng(seed).integers(
        (2, 1), (5, 3), size=(count, 2)).tolist()
    residuals = [0.0] * count
    for space, r, trials, rng in _trial_groups(seed, 1000, draws):
        fs = ergopt.random_potentials(space, r, rng, len(trials),
                                      integer=False, low=-2, high=2)
        for t, res in zip(trials, ergopt.equilibrium_residuals(space, fs)):
            residuals[t] = res
    rows = [[t, m, r, res] for t, ((m, r), res) in
            enumerate(zip(draws, residuals))]
    worst = max([0.0] + residuals)
    # a potential that is genuinely non-constant: its equilibrium state has
    # entropy strictly below the maximal entropy
    space2 = SftSpace.full_shift(2)
    f2 = ergopt.Potential.indicator(space2, Word("1")).scale(1.5)
    mu2 = ergopt.equilibrium_state(space2, f2)
    gap = math.log(2) - ks_entropy(mu2)
    passed = worst <= 1e-9 and gap > 0
    return ExperimentResult(
        name="thm1_6_equilibrium",
        passed=passed,
        details={"count": count, "worst_residual": worst,
                 "entropy_gap_noncohomologous": gap},
        tables={"residuals.csv": _csv(["trial", "m", "r", "residual"], rows)},
    )


@experiment("karp_oracle",
            "maximum mean cycle against the periodic-orbit oracle, exact")
def karp_oracle(seed: int, *, count: int = 100) -> ExperimentResult:
    from . import ergopt
    _count(count)
    # m <= 6 and r <= 3: block graphs of at most 6**2 = 36 nodes
    draws = np.random.default_rng(seed).integers(
        (2, 1), (7, 4), size=(count, 2)).tolist()
    karp, oracle = [0.0] * count, [0.0] * count
    for space, r, trials, rng in _trial_groups(seed, 7919, draws):
        fs = ergopt.random_potentials(space, r, rng, len(trials))
        # the oracle's period is the node count
        nodes = block_graph(space, max(r - 1, 1)).n_nodes()
        for t, res, val in zip(trials, ergopt.betas(space, fs),
                               ergopt.brute_force_betas(space, fs, nodes)):
            karp[t], oracle[t] = res.value, val
    rows = [[t, m, r, karp[t], oracle[t], int(karp[t] == oracle[t])]
            for t, (m, r) in enumerate(draws)]
    all_equal = all(row[-1] for row in rows)
    return ExperimentResult(
        name="karp_oracle",
        passed=all_equal,
        details={"instances": count, "all_equal": all_equal},
        tables={"oracle.csv": _csv(
            ["trial", "m", "r", "karp", "oracle", "equal"], rows)},
    )


@experiment("pressure_identities",
            "pressure normalizations, additivity and the two-shift closed form")
def pressure_identities(seed: int) -> ExperimentResult:
    from . import ergopt
    rows = []
    ok = True
    for m in (2, 3, 4):
        space = SftSpace.full_shift(m)
        p0 = ergopt.pressure(space, ergopt.Potential.constant(space, 0.0))
        err = abs(p0 - math.log(m))
        ok = ok and err <= 1e-9
        rows.append(["htop", m, p0, math.log(m), err])
    space = SftSpace.full_shift(2)
    f = ergopt.random_potential(space, 2, seed=seed, integer=False)
    for c in (-1.0, 0.5, 2.0):
        lhs = ergopt.pressure(space, f.add_constant(c))
        rhs = ergopt.pressure(space, f) + c
        ok = ok and abs(lhs - rhs) <= 1e-9
        rows.append(["additive", c, lhs, rhs, abs(lhs - rhs)])
    for a in (-1.0, 0.3, 2.5):
        ind = ergopt.Potential.indicator(space, Word("1")).scale(a)
        lhs = ergopt.pressure(space, ind)
        rhs = math.log(1 + math.exp(a))
        ok = ok and abs(lhs - rhs) <= 1e-9
        rows.append(["closed_form", a, lhs, rhs, abs(lhs - rhs)])
    return ExperimentResult(
        name="pressure_identities",
        passed=ok,
        details={"checks": len(rows), "all_ok": ok},
        tables={"pressure.csv": _csv(
            ["check", "param", "value", "expected", "error"], rows)},
    )
