import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sftlab.errors import OutsideLf
from sftlab.ergopt import (Potential, _exact, _maxplus_best_mean, _perron,
                           beta, block_graph, brute_force_beta,
                           classify_smr, coboundary_shift, equilibrium_mean,
                           equilibrium_residual, equilibrium_state,
                           level_entropy, level_entropy_detail,
                           mean_potential, pressure, random_potential,
                           topological_entropy)
from sftlab.measures import ks_entropy
from sftlab.shift import SftSpace, Word

FULL2 = SftSpace.full_shift(2)
GOLDEN = SftSpace.golden_mean()
PHI = (1 + math.sqrt(5)) / 2
# primitive, without fixed points: no periodic orbit of period 1
NO_FIXED = SftSpace(np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]]))


def loop_brute_force_beta(space, f, max_period):
    """The nested-loop max-plus powers brute_force_beta ran before the numpy
    core, kept as its oracle."""
    graph = block_graph(space, max(f.r - 1, 1))
    n = graph.n_nodes()
    W = [[None] * n for _ in range(n)]
    for u, v, ew in graph.edges:
        W[u][v] = _exact(f.value(ew[:f.r]))
    cur = [row[:] for row in W]
    best = None
    for p in range(1, max_period + 1):
        for v in range(n):
            if cur[v][v] is not None:
                mean = Fraction(cur[v][v], p)
                if best is None or mean > best:
                    best = mean
        if p == max_period:
            break
        nxt = [[None] * n for _ in range(n)]
        for u in range(n):
            for k in range(n):
                if cur[u][k] is None:
                    continue
                for v in range(n):
                    if W[k][v] is None:
                        continue
                    cand = cur[u][k] + W[k][v]
                    if nxt[u][v] is None or cand > nxt[u][v]:
                        nxt[u][v] = cand
        cur = nxt
    if best is None:
        raise ValueError("no periodic orbit of the requested period")
    return float(best)


def loop_max_mean_cycle_excluding(n, edges):
    """The nested-loop maximum mean cycle classify_smr ran on the edges
    off its optimal cycle before the numpy core, kept as its oracle."""
    cur = [[None] * n for _ in range(n)]
    W = [[None] * n for _ in range(n)]
    for (u, v), w in edges:
        W[u][v] = w
        cur[u][v] = w
    best = None
    for p in range(1, n + 1):
        for v in range(n):
            if cur[v][v] is not None:
                mean = Fraction(cur[v][v], p)
                if best is None or mean > best:
                    best = mean
        if p == n:
            break
        nxt = [[None] * n for _ in range(n)]
        for u in range(n):
            for k in range(n):
                if cur[u][k] is None:
                    continue
                for v in range(n):
                    if W[k][v] is None:
                        continue
                    cand = cur[u][k] + W[k][v]
                    if nxt[u][v] is None or cand > nxt[u][v]:
                        nxt[u][v] = cand
        cur = nxt
    return best


# Small integers keep walk sums below 2**53 (the float64 path); integers of
# about 1e15 cross it as the period grows, and non-integer floats scale to
# large integers (the object path).
WEIGHT_KINDS = [
    st.integers(-9, 9),
    st.floats(-9, 9).filter(lambda x: not x.is_integer()),
    st.integers(-4 * 10 ** 15, 4 * 10 ** 15),
]
WEIGHTS = st.sampled_from(WEIGHT_KINDS + [st.one_of(*WEIGHT_KINDS)])
# (space, depth) pairs whose block graphs have at most 6 nodes
MAXPLUS_CASES = [(FULL2, 1), (FULL2, 2), (FULL2, 3), (GOLDEN, 1),
                 (GOLDEN, 2), (GOLDEN, 3), (SftSpace.full_shift(3), 1),
                 (SftSpace.full_shift(3), 2), (NO_FIXED, 1), (NO_FIXED, 2)]


@st.composite
def potentials_and_periods(draw):
    space, r = draw(st.sampled_from(MAXPLUS_CASES))
    weights = draw(WEIGHTS)
    table = {w.symbols: float(draw(weights)) for w in space.words(r)}
    n = block_graph(space, max(r - 1, 1)).n_nodes()
    return space, Potential(space, r, table), draw(st.integers(1, n + 1))


@st.composite
def weighted_digraphs(draw):
    n = draw(st.integers(1, 6))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)),
                          unique=True, max_size=n * n))
    weights = draw(WEIGHTS)
    return n, [((u, v), _exact(float(draw(weights)))) for u, v in pairs]


def enumerate_cycle_means(space, f):
    """Third, fully independent oracle: recursive enumeration of all simple
    cycles of the block graph with exact means."""
    g = block_graph(space, max(f.r - 1, 1))
    adj = {}
    for u, v, ew in g.edges:
        adj.setdefault(u, []).append((v, Fraction(f.value(ew[:f.r]))))
    best = None

    def walk(root, node, weight, length, visited):
        nonlocal best
        for nxt, w in adj.get(node, []):
            if nxt == root:
                mean = (weight + w) / (length + 1)
                if best is None or mean > best:
                    best = mean
            elif nxt > root and nxt not in visited:
                walk(root, nxt, weight + w, length + 1, visited | {nxt})

    for root in range(g.n_nodes()):
        walk(root, root, Fraction(0), 0, {root})
    return best


class TestPotential:
    def test_table_must_cover_admissible_words(self):
        with pytest.raises(ValueError):
            Potential(GOLDEN, 2, {(0, 0): 1.0, (0, 1): 2.0})
        Potential(GOLDEN, 2, {(0, 0): 1.0, (0, 1): 2.0, (1, 0): 3.0})

    def test_json_round_trip(self):
        f = random_potential(GOLDEN, 2, seed=1)
        again = Potential.from_json(GOLDEN, f.to_json())
        assert again.table == f.table


class TestBlockGraph:
    def test_cache_survives_hash_collisions(self):
        class ConstHash(SftSpace):
            def __hash__(self):
                return 0

        for space in (ConstHash.full_shift(2), ConstHash.golden_mean()):
            g = block_graph(space, 3)
            assert g.nodes == tuple(w.symbols for w in space.words(3))


class TestBeta:
    def test_symbol_indicator(self):
        f = Potential.indicator(FULL2, Word("1"))
        out = beta(FULL2, f)
        assert out.value == 1.0
        assert set(out.cycle.symbols) == {1}

    def test_constant_potential(self):
        f = Potential.constant(FULL2, 2.25)
        assert beta(FULL2, f).value == 2.25

    def test_attaining_cycle_realizes_value(self):
        rng = np.random.default_rng(0)
        for trial in range(30):
            f = random_potential(GOLDEN, 2, seed=trial)
            out = beta(GOLDEN, f)
            cyc = out.cycle
            ext = cyc.symbols * 3
            mean = sum(f.value(ext[i:i + f.r]) for i in range(len(cyc))) / len(cyc)
            assert mean == pytest.approx(out.value, abs=1e-12)
            assert GOLDEN.is_admissible(cyc.symbols + (cyc.symbols[0],))

    def test_against_simple_cycle_enumeration(self):
        for trial in range(40):
            f = random_potential(GOLDEN, 2, seed=100 + trial)
            expected = enumerate_cycle_means(GOLDEN, f)
            assert beta(GOLDEN, f).value == float(expected)

    def test_karp_equals_bruteforce_exactly(self):
        rng = np.random.default_rng(1)
        for trial in range(60):
            m = int(rng.integers(2, 7))
            r = int(rng.integers(1, 4))
            if m ** max(r - 1, 1) > 40:
                r = 2
            space = SftSpace.full_shift(m)
            f = random_potential(space, r, seed=1000 + trial)
            nodes = block_graph(space, max(r - 1, 1)).n_nodes()
            assert beta(space, f).value == brute_force_beta(space, f, nodes)

    def test_bruteforce_small_period(self):
        f = Potential.indicator(FULL2, Word("1"))
        assert brute_force_beta(FULL2, f, 1) == 1.0

    def test_additive_shift(self):
        f = random_potential(FULL2, 2, seed=9)
        g = f.add_constant(3.0)
        assert beta(FULL2, g).value == pytest.approx(
            beta(FULL2, f).value + 3.0, abs=1e-12)

    def test_coboundary_invariance(self):
        for trial in range(10):
            f = random_potential(FULL2, 2, seed=20 + trial, integer=False)
            g = random_potential(FULL2, 1, seed=50 + trial, integer=False)
            fc = coboundary_shift(f, g)
            assert beta(FULL2, fc).value == pytest.approx(
                beta(FULL2, f).value, abs=1e-12)


class TestPressure:
    def test_zero_potential_full_shift(self):
        for m in (2, 3, 5):
            space = SftSpace.full_shift(m)
            f = Potential.constant(space, 0.0)
            assert pressure(space, f) == pytest.approx(math.log(m), abs=1e-10)

    def test_constant_adds_to_entropy(self):
        f = Potential.constant(GOLDEN, 1.5)
        assert pressure(GOLDEN, f) == pytest.approx(
            math.log(PHI) + 1.5, abs=1e-10)

    def test_closed_form_two_shift(self):
        for a in (-2.0, -0.5, 0.0, 0.7, 3.0):
            f = Potential.indicator(FULL2, Word("1")).scale(a)
            assert pressure(FULL2, f) == pytest.approx(
                math.log(1 + math.exp(a)), abs=1e-10)

    def test_convex_in_scale(self):
        f = random_potential(FULL2, 2, seed=3, integer=False)
        qs = np.linspace(-2, 2, 21)
        vals = [pressure(FULL2, f.scale(q)) for q in qs]
        second = np.diff(vals, 2)
        assert (second >= -1e-9).all()

    def test_overflow_safe_for_large_scales(self):
        f = random_potential(FULL2, 1, seed=4)  # integer weights up to 9
        p = pressure(FULL2, f.scale(512.0))
        assert math.isfinite(p)


class TestEquilibrium:
    def test_max_entropy_full_shift(self):
        mu = equilibrium_state(FULL2, Potential.constant(FULL2, 0.0))
        assert np.allclose(mu.stochastic, 0.5, atol=1e-10)
        assert ks_entropy(mu) == pytest.approx(math.log(2), abs=1e-10)

    def test_parry_measure_golden_mean(self):
        mu = equilibrium_state(GOLDEN, Potential.constant(GOLDEN, 0.0))
        # closed-form Parry entries via the Perron eigenvector (phi, 1)
        assert mu.stochastic[0, 0] == pytest.approx(1 / PHI, abs=1e-10)
        assert mu.stochastic[0, 1] == pytest.approx(1 / PHI ** 2, abs=1e-10)
        assert mu.stochastic[1, 0] == pytest.approx(1.0, abs=1e-10)
        assert mu.stationary[0] == pytest.approx(
            PHI ** 2 / (1 + PHI ** 2), abs=1e-10)
        assert ks_entropy(mu) == pytest.approx(math.log(PHI), abs=1e-10)

    def test_variational_identity_random(self):
        rng = np.random.default_rng(8)
        for trial in range(12):
            m = int(rng.integers(2, 5))
            space = SftSpace.full_shift(m)
            r = int(rng.integers(1, 3))
            f = random_potential(space, r, seed=300 + trial, integer=False,
                                 low=-2, high=2)
            assert equilibrium_residual(space, f) <= 1e-9

    def test_variational_identity_depth3(self):
        f = random_potential(FULL2, 3, seed=77, integer=False, low=-1, high=1)
        assert equilibrium_residual(FULL2, f) <= 1e-9

    def test_mean_potential_agrees_with_edge_flow(self):
        f = random_potential(FULL2, 2, seed=6, integer=False)
        mu = equilibrium_state(FULL2, f)
        assert mean_potential(mu, f) == pytest.approx(
            equilibrium_mean(FULL2, f, mu), abs=1e-12)


class TestLevelEntropy:
    def test_binary_entropy_closed_form(self):
        f = Potential.indicator(FULL2, Word("1"))
        for a in np.arange(0.1, 0.95, 0.1):
            expected = -a * math.log(a) - (1 - a) * math.log(1 - a)
            assert level_entropy(FULL2, f, float(a)) == pytest.approx(
                expected, abs=1e-6)

    def test_maximal_at_equilibrium_mean(self):
        f = Potential.indicator(FULL2, Word("1"))
        assert level_entropy(FULL2, f, 0.5) == pytest.approx(
            math.log(2), abs=1e-8)

    def test_strictly_below_htop_off_center(self):
        f = Potential.indicator(FULL2, Word("1"))
        assert level_entropy(FULL2, f, 0.9) < math.log(2) - 0.1

    def test_boundary_value_matches_cycle_entropy(self):
        f = Potential.indicator(FULL2, Word("1"))
        # the unique maximizing orbit is the fixed point 1, entropy zero;
        # the minimizer runs outward until the objective is flat to rounding
        t, q = level_entropy_detail(FULL2, f, 1.0)
        assert t == pytest.approx(0.0, abs=1e-6)
        assert q > 20

    def test_outside_range(self):
        f = Potential.indicator(FULL2, Word("1"))
        with pytest.raises(OutsideLf):
            level_entropy(FULL2, f, 1.5)

    def test_ceiling_respected_on_grid(self):
        f = random_potential(FULL2, 1, seed=12)
        lo = -beta(FULL2, f.scale(-1.0)).value
        hi = beta(FULL2, f).value
        htop = topological_entropy(FULL2)
        if hi > lo:
            for a in np.linspace(lo + 1e-3, hi - 1e-3, 7):
                assert level_entropy(FULL2, f, float(a)) <= htop + 1e-9


class TestClassifySmr:
    def test_zero_potential_all_cycles_tie(self):
        out = classify_smr(FULL2, Potential.constant(FULL2, 0.0))
        assert out.periodic is None
        assert len(out.ties) >= 2
        assert out.gap == 0.0

    def test_crafted_two_cycle_optimum(self):
        table = {(0, 0): 0.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): 0.0}
        out = classify_smr(FULL2, Potential(FULL2, 2, table))
        assert out.periodic is not None
        assert sorted(out.periodic.symbols) == [0, 1]
        assert out.value == 1.0
        assert out.gap == pytest.approx(1.0)

    def test_generic_random_weights_unique(self):
        unique = 0
        for trial in range(20):
            f = random_potential(GOLDEN, 2, seed=500 + trial, integer=False)
            out = classify_smr(GOLDEN, f)
            if out.periodic is not None:
                unique += 1
                assert out.gap is None or out.gap > 0
                # the reported optimum matches the exact maximum
                assert out.value == brute_force_beta(GOLDEN, f, 3)
        assert unique >= 18  # float weights tie only on degenerate draws


class TestMaxPlusCore:
    @settings(max_examples=300, deadline=None)
    @given(potentials_and_periods())
    def test_brute_force_beta_matches_loop_oracle(self, case):
        space, f, max_period = case
        try:
            expected = loop_brute_force_beta(space, f, max_period)
        except ValueError:
            with pytest.raises(ValueError):
                brute_force_beta(space, f, max_period)
        else:
            assert brute_force_beta(space, f, max_period) == expected

    @settings(max_examples=300, deadline=None)
    @given(weighted_digraphs())
    def test_cycle_mean_matches_loop_oracle(self, graph):
        n, edges = graph
        assert (_maxplus_best_mean(n, edges, n)
                == loop_max_mean_cycle_excluding(n, edges))

    def test_exact_across_the_float64_limit(self):
        # a loop of weight w and a 2-cycle of sum 2w + 1, which float64
        # rounds to 2w once it passes 2**53
        for w in (2 ** 51, 2 ** 52, 2 ** 60):
            edges = [((0, 0), w), ((0, 1), w), ((1, 0), w + 1)]
            assert _maxplus_best_mean(2, edges, 2) == Fraction(2 * w + 1, 2)
            assert _maxplus_best_mean(2, edges[1:], 1) is None


class TestPerron:
    def test_near_periodic_two_by_two(self):
        # eigenvalues 1 + d and d - 1: power iteration's ratio |l2 / l1| is
        # 1 - 2d / (1 + d), so its old convergence took millions of steps
        for d in (1e-3, 1e-6, 1e-9):
            M = np.array([[d, 2.0], [0.5, d]])
            lam, v = _perron(M)
            assert lam == pytest.approx(1 + d, rel=1e-14)
            assert v == pytest.approx([2 / 3, 1 / 3], rel=1e-12)

    def test_near_periodic_pressure_and_equilibrium(self):
        # f is large only on the alternating words, so exp(f) is close to
        # the period-2 matrix [[0, 1], [1, 0]]
        f = Potential(FULL2, 2, {(0, 0): -20.0, (0, 1): 1.0,
                                 (1, 0): 0.0, (1, 1): -25.0})
        a, d = math.exp(-20.0), math.exp(-25.0)
        root = (a + d) / 2 + math.sqrt(((a - d) / 2) ** 2 + math.exp(1.0))
        assert pressure(FULL2, f) == pytest.approx(math.log(root), abs=1e-14)
        assert equilibrium_residual(FULL2, f) <= 1e-12
