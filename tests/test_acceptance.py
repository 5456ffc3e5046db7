"""Acceptance criteria, one test per criterion, tolerances as stated.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines.
"""
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from sftlab import analysis, chaos, cocycle, ergopt, gluing, measures
from sftlab.cli import main as cli_main
from sftlab.ergopt import Potential, block_graph, random_potential
from sftlab.gluing import GluingSchedule, Stage
from sftlab.measures import MarkovMeasure, MeasurePath, ks_entropy
from sftlab.shift import SftSpace, Word, dist, separated_count

from chaos_oracles import float_orbit_distances

FULL2 = SftSpace.full_shift(2)


def report(criterion: int, passed: bool, detail: str):
    print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


class TestAcceptance:
    def test_criterion_1_karp_oracle_equivalence(self):
        rng = np.random.default_rng(101)
        started = time.time()
        checked = 0
        for trial in range(110):
            m = int(rng.integers(2, 7))
            r = int(rng.integers(1, 4))
            if m ** max(r - 1, 1) > 40:
                r = 2  # keep the largest block graphs at 36 nodes
            space = SftSpace.full_shift(m)
            f = random_potential(space, r, seed=trial, low=-9, high=9)
            nodes = block_graph(space, max(r - 1, 1)).n_nodes()
            karp = ergopt.beta(space, f).value
            oracle = ergopt.brute_force_beta(space, f, nodes)
            assert karp == oracle, (trial, m, r, karp, oracle)
            checked += 1
        elapsed = time.time() - started
        report(1, checked >= 100 and elapsed < 10.0,
               f"{checked} instances exactly equal in {elapsed:.2f}s (< 10s)")

    def test_criterion_2_variational_identity(self):
        rng = np.random.default_rng(202)
        worst = 0.0
        for trial in range(50):
            m = int(rng.integers(2, 5))
            r = int(rng.integers(1, 3))
            space = SftSpace.full_shift(m)
            f = random_potential(space, r, seed=5000 + trial, integer=False,
                                 low=-2, high=2)
            worst = max(worst, ergopt.equilibrium_residual(space, f))
        report(2, worst <= 1e-9,
               f"50 random potentials, worst residual {worst:.2e} <= 1e-9")

    def test_criterion_3_level_set_closed_form(self):
        f = Potential.indicator(FULL2, Word("1"))
        max_err = 0.0
        for i in range(1, 10):
            a = 0.1 * i
            t = ergopt.level_entropy(FULL2, f, a)
            expected = -a * math.log(a) - (1 - a) * math.log(1 - a)
            max_err = max(max_err, abs(t - expected))
        center = ergopt.level_entropy(FULL2, f, 0.5)
        t09 = ergopt.level_entropy(FULL2, f, 0.9)
        ok = (max_err <= 1e-6
              and abs(center - math.log(2)) <= 1e-8
              and t09 < math.log(2) - 0.1)
        report(3, ok, f"grid error {max_err:.2e} <= 1e-6, "
                      f"|center - log2| = {abs(center - math.log(2)):.2e}, "
                      f"t(0.9) = {t09:.4f} < log2 - 0.1")

    def test_criterion_4_thm11_mechanism(self):
        started = time.time()
        space = FULL2
        target_mu = MarkovMeasure.bernoulli(space, [0.1, 0.9])  # mass of 1 is 0.9
        max_ent = MarkovMeasure.bernoulli(space, [0.5, 0.5])
        assert abs(ks_entropy(target_mu) - 0.325) < 0.001
        eta = 0.12
        anchor = space.parse("0")
        counts = []
        tracking_ok = True
        for N in (12, 16, 20):
            fam = measures.typical_separated_family(
                max_ent, N, delta=0.05, eta=eta, seed=400 + N)
            sched = gluing.build_gk_schedule(
                space, target_mu, anchor=anchor, stages=3,
                family_len=N, family_entropy=ks_entropy(max_ent),
                family_eta=eta)
            assert len(anchor) <= 40
            prefix = gluing.member_prefix_len(sched)
            emitted = gluing.emit_separated_family(sched, fam,
                                                   horizon=prefix + 2, seed=4)
            counts.append((prefix, separated_count(emitted, prefix, 1)))
            rep = gluing.family_tracking_report(sched, fam, seed=4)
            tracking_ok = tracking_ok and rep.all_ok
        slope = analysis.growth_rate(counts).slope
        elapsed = time.time() - started
        ok = (slope >= math.log(2) - 0.15 and tracking_ok and elapsed < 60.0)
        report(4, ok, f"slope {slope:.4f} >= log2 - 0.15 = "
                      f"{math.log(2) - 0.15:.4f}, tracking sound for every "
                      f"member at every stage end, {elapsed:.1f}s (< 60s)")

    def test_criterion_5_thm12_mechanism(self):
        K = MeasurePath([MarkovMeasure.bernoulli(FULL2, [0.7, 0.3]),
                         MarkovMeasure.bernoulli(FULL2, [0.3, 0.7])])
        tree = gluing.build_branch_tree(FULL2, K, eta=0.1, depth=3, seed=5,
                                        stage_len=12)
        mass = tree.mass_bound_report()
        distinct = tree.prefix_distinct_report()
        weight_total = sum((tree.leaf_weight() for _ in tree.leaves()),
                           start=Fraction(0))
        ok = (all(e.passed for e in mass)
              and all(e.passed for e in distinct)
              and weight_total == 1)
        report(5, ok, f"{tree.leaf_count()} leaves, mass bound exact at "
                      f"{len(mass)} stages, weights sum to {weight_total} "
                      f"exactly")

    def test_criterion_6_thm15_mechanism(self):
        space = FULL2
        mu0 = MarkovMeasure.periodic_orbit(space, Word("0"))
        xis = []
        k = 0
        while len(xis) < 8:
            bits = tuple(1 + ((k >> i) & 1) for i in range(10))
            if bits not in xis:
                xis.append(bits)
            k += 1
        fam = gluing.emit_chaotic_family(space, mu0, Word("0"), Word("1"),
                                         xis, horizon=100_000, seed=6)
        members = list(fam.members.items())
        pairs = 0
        sep_ok = True
        phi_min = 1.0
        ly_ok = True
        n_phi = fam.mu0_run_ends[-1]
        cps = [n for n in fam.stage_ends if n <= fam.horizon]
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                pairs += 1
                xi, x = members[i]
                et, y = members[j]
                u = next(q for q in range(len(xi)) if xi[q] != et[q])
                d = float_orbit_distances(x, y, min(len(x), len(y)))
                for k_idx in range(u + 1, len(fam.stage_ends) + 1):
                    end = fam.stage_ends[k_idx - 1]
                    if end > len(d):
                        continue
                    start = fam.stage_ends[k_idx - 2] if k_idx >= 2 else 0
                    if d[start:end].max() < fam.eps_star / 2:
                        sep_ok = False
                phi_min = min(phi_min,
                              chaos.phi_n(x, y, 2.0 ** -3, n_phi))
                ly_ok = ly_ok and chaos.li_yorke_report(x, y, cps).consistent
        pre_x = Word("0110" + "1" * 2000)
        pre_y = Word("1001" + "1" * 2000)
        pre = chaos.li_yorke_report(pre_x, pre_y, [500, 1200, 2000])
        ok = (pairs == 28 and sep_ok and phi_min >= 0.9 and ly_ok
              and not pre.consistent)
        report(6, ok, f"28 pairs: separation >= 1/2 in every stage past "
                      f"disagreement (exact), phi_min {phi_min:.4f} >= 0.9, "
                      f"Li-Yorke consistent; preimage pair: {pre.verdict}")

    def test_criterion_7_cocycle_exponents(self):
        # diagonal commuting oracle, exact to 1e-10
        a, b = 3.0, 0.5
        c_diag = cocycle.MatrixCocycle.diagonal(
            FULL2, {0: [b, 1 / b], 1: [a, 1 / a]})
        mu = MarkovMeasure.bernoulli(FULL2, [0.4, 0.6])
        w = measures.sample_word(mu, 4000, 7)
        s = sum(math.log(a) if w[i] else math.log(b) for i in range(4000))
        diag_err = abs(cocycle.exponent_along(c_diag, w, 4000) - abs(s) / 4000)

        # constant-matrix exponent at n = 10^4
        A = np.array([[2.0, 1.0], [1.0, 1.0]])
        c_const = cocycle.MatrixCocycle.constant(FULL2, A)
        n = 10 ** 4
        w2 = measures.sample_word(mu, n, 8)
        rho = math.log(max(abs(np.linalg.eigvals(A))))
        const_err = abs(cocycle.exponent_along(c_const, w2, n) - rho)
        const_tol = math.log(2 * np.linalg.cond(A)) / n

        # glued family: all 2^8 members inside the prefix bound
        c_fam = cocycle.MatrixCocycle(FULL2, {
            (0,): np.array([[1.2, 0.1], [0.0, 0.9]]),
            (1,): np.array([[0.7, 0.0], [0.2, 1.3]]),
        })
        rep = cocycle.emit_lyapunov_family(c_fam, FULL2, mu,
                                           FULL2.parse("0101"), N=8, seed=9,
                                           tail_len=512)
        ok = (diag_err <= 1e-10 and const_err <= const_tol
              and rep.family_size == 2 ** 8 and rep.all_within_bound())
        report(7, ok, f"diagonal oracle error {diag_err:.2e} <= 1e-10, "
                      f"constant-matrix error {const_err:.2e} <= "
                      f"{const_tol:.2e}, all {rep.family_size} members "
                      f"within the prefix bound")

    def test_criterion_8_counting_identities(self):
        rng = np.random.default_rng(808)
        for trial in range(200):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(1, 4))
            L = n + k - 1
            pts = [Word(rng.integers(0, 2, L + 3).tolist())
                   for _ in range(int(rng.integers(1, 20)))]

            def d_n(x, y):
                return max(dist(x[j:], y[j:]) for j in range(n))

            eps = 2.0 ** -k
            kept = []
            for w in pts:
                if all(d_n(w, v) > eps for v in kept):
                    kept.append(w)
            assert separated_count(pts, n, k) == len(kept), trial

        # validators accept every generated schedule...
        accepted = True
        for stages in (1, 2, 3):
            sched = gluing.build_gk_schedule(
                FULL2, MarkovMeasure.bernoulli(FULL2, [0.1, 0.9]),
                stages=stages)
            accepted = accepted and gluing.validate_schedule(sched).passed
        golden = SftSpace.golden_mean()
        phi = (1 + math.sqrt(5)) / 2
        parry = MarkovMeasure(golden, [[1 / phi, 1 / phi ** 2], [1.0, 0.0]])
        sched_g = gluing.build_gk_schedule(golden, parry, stages=2)
        accepted = accepted and gluing.validate_schedule(sched_g).passed

        # ... and reject the degenerate single-repetition schedule
        b05 = MarkovMeasure.bernoulli(FULL2, [0.5, 0.5])
        degenerate = GluingSchedule(space=FULL2, stages=[
            Stage(alpha=b05, n=16, reps=1, tour=gluing.dense_tour(FULL2, 1),
                  zeta=0.5, eps=0.5, depth=1),
            Stage(alpha=b05, n=32, reps=1, tour=gluing.dense_tour(FULL2, 2),
                  zeta=0.25, eps=0.25, depth=2),
        ], anchor=FULL2.parse("01010101"))
        rejected = not gluing.validate_schedule(degenerate).passed
        report(8, accepted and rejected,
               "200 random word sets equal the metric greedy exactly; "
               "generated schedules accepted, degenerate reps=1 rejected")

    def test_criterion_9_determinism(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 7,
                                   "experiments": ["thm1_1_capacity"]}))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        code_a = cli_main(["run", str(cfg), "--out", str(out_a)])
        code_b = cli_main(["run", str(cfg), "--out", str(out_b)])
        csv_a = (out_a / "thm1_1_capacity" / "counts.csv").read_bytes()
        csv_b = (out_b / "thm1_1_capacity" / "counts.csv").read_bytes()
        sum_a = (out_a / "summary.json").read_bytes()
        sum_b = (out_b / "summary.json").read_bytes()
        ok = (code_a == 0 and code_b == 0 and csv_a == csv_b
              and sum_a == sum_b)
        report(9, ok, "thm1_1_capacity rerun byte-identical "
                      f"({len(csv_a)} CSV bytes)")
