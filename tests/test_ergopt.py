import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sftlab import ergopt
from sftlab.errors import (OutsideLf, PerronNotPositive, SftLabError,
                           SpaceMismatch)
from sftlab.ergopt import (InEdges, Potential, _cycle_word, _edge_values,
                           _equilibria, _find_cycle, _integer_weights,
                           _maxplus_best_mean, _maxplus_step, _optimum,
                           _perron, _simple_cycles, beta, betas,
                           block_graph, brute_force_beta,
                           brute_force_betas, classify_smr, coboundary_shift,
                           equilibrium_mean, equilibrium_residual,
                           equilibrium_residuals, equilibrium_state,
                           ergodic_average_range, level_entropy,
                           level_entropy_detail, level_entropy_details,
                           mean_potential, pressure, pressures,
                           random_potential)
from sftlab.experiments import _csv, run_experiment
from sftlab.measures import MarkovMeasure, ks_entropy
from sftlab.shift import SftSpace, Word, topological_entropy

from measure_oracles import (loop_equilibrium_mean, per_measure_entropy,
                             per_row_equilibria, per_row_residuals)

FULL2 = SftSpace.full_shift(2)
GOLDEN = SftSpace.golden_mean()
PHI = (1 + math.sqrt(5)) / 2
# primitive, without fixed points: no periodic orbit of period 1
NO_FIXED = SftSpace(np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]]))
IND1 = Potential.indicator(FULL2, Word("1"))


def exact(v):
    return int(v) if float(v).is_integer() else Fraction(v)


def graph_edges(graph):
    """(u, v, edge word) per edge of a block graph, in edge order: the
    rows of the (ell+1)-word table with their src and dst."""
    words = map(tuple, graph.space.word_table(graph.ell + 1).tolist())
    return list(zip(graph.src.tolist(), graph.dst.tolist(), words))


def fraction_weights(graph, f):
    """Edge weights of f on its block graph as ints or Fractions."""
    return [exact(f.value(ew[:f.r])) for _, _, ew in graph_edges(graph)]


def fraction_karp(graph, weights):
    """The pure-Python Fraction Karp beta ran before the integer core, kept
    as its oracle: maximum mean cycle with multi-source initialization."""
    n = graph.n_nodes()
    in_edges = [[] for _ in range(n)]
    for (u, v, _), w in zip(graph_edges(graph), weights):
        in_edges[v].append((u, w))
    D = [[None] * n for _ in range(n + 1)]
    D[0] = [0] * n
    for k in range(1, n + 1):
        for v in range(n):
            best = None
            for u, w in in_edges[v]:
                if D[k - 1][u] is not None:
                    cand = D[k - 1][u] + w
                    if best is None or cand > best:
                        best = cand
            D[k][v] = best
    lam = None
    for v in range(n):
        if D[n][v] is None:
            continue
        worst = None
        for k in range(n):
            if D[k][v] is not None:
                mean = Fraction(D[n][v] - D[k][v], n - k)
                if worst is None or mean < worst:
                    worst = mean
        if worst is not None and (lam is None or worst > lam):
            lam = worst
    return lam


def fraction_tight_subgraph(graph, weights, lam):
    """The Fraction Bellman-Ford relaxation _tight_subgraph ran before the
    integer core, kept as its oracle: adjacency lists of the edges with
    h[u] + w - lam == h[v]."""
    n = graph.n_nodes()
    h = [Fraction(0)] * n
    for _ in range(n + 1):
        changed = False
        for (u, v, _), w in zip(graph_edges(graph), weights):
            if h[u] + w - lam > h[v]:
                h[v] = h[u] + w - lam
                changed = True
        if not changed:
            break
    tight = [[] for _ in range(n)]
    for (u, v, _), w in zip(graph_edges(graph), weights):
        if h[u] + w - lam == h[v]:
            tight[u].append(v)
    return tight


def fraction_classify_smr(space, f):
    """(periodic, ties, gap) as classify_smr found them before the integer
    core, from the Fraction oracles and the loop max-plus oracle."""
    graph = block_graph(space, max(f.r - 1, 1))
    weights = fraction_weights(graph, f)
    lam = fraction_karp(graph, weights)
    cycles = _simple_cycles(fraction_tight_subgraph(graph, weights, lam))
    words = tuple(_cycle_word(graph, c) for c in cycles)
    if len(cycles) != 1:
        return None, words, 0.0
    cyc = cycles[0]
    on_cycle = {(c, cyc[(i + 1) % len(cyc)]) for i, c in enumerate(cyc)}
    alt = [((u, v), w) for (u, v, _), w in zip(graph_edges(graph), weights)
           if (u, v) not in on_cycle]
    alt_best = loop_max_mean_cycle_excluding(graph.n_nodes(), alt)
    return words[0], words, None if alt_best is None else float(lam - alt_best)


def scatter_maxplus_step(cur, src, dst, w, absent):
    """The scatter max-plus step the in-edge gather replaced, kept as its
    oracle: out[..., v] is the largest cur[..., u] + w over the edges
    (u, v), absent where v has none."""
    out = np.full(cur.shape, absent, dtype=cur.dtype)
    flat = dst + np.arange(0, cur.size, cur.shape[-1])[:, None]
    np.maximum.at(out.reshape(-1), flat.ravel(), (cur[..., src] + w).ravel())
    return out


def optimum(graph, f):
    """The one-row _optimum of a potential."""
    return _optimum(graph, _edge_values(graph, f.r, f.values)[None])[0]


def best_mean(n, src, dst, values, max_period):
    """The one-row _maxplus_best_mean of an edge list."""
    return _maxplus_best_mean(InEdges.of(n, src, dst), np.array([values]),
                              max_period)[0]


def forbid_pressure(monkeypatch):
    def solve(*args):
        raise AssertionError("a bad input reached a pressure solve")
    monkeypatch.setattr(ergopt, "_transfer_solves", solve)


def count_transfer_solves(monkeypatch):
    """The list that records the potentials of every _transfer_solves call."""
    calls = []
    solve = ergopt._transfer_solves
    monkeypatch.setattr(ergopt, "_transfer_solves",
                        lambda space, fs: calls.append(len(fs))
                        or solve(space, fs))
    return calls


def sequential_level_entropy_detail(space, f, a, q_max=512.0, q_tol=1e-8):
    """The one-level golden-section search level_entropy_detail ran before
    the lockstep searches, one pressure solve per step, kept as their
    oracle."""
    if not (q_tol > 0 and 0 < q_max < math.inf):
        raise ValueError("q_tol and q_max must be positive, q_max finite")
    lo, hi = ergodic_average_range(space, f)
    if not lo - 1e-9 <= a <= hi + 1e-9:
        raise OutsideLf(f"a={a} outside [{lo}, {hi}]")

    def g(q):
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


def loop_brute_force_beta(space, f, max_period):
    """The nested-loop max-plus powers brute_force_beta ran before the numpy
    core, kept as its oracle."""
    graph = block_graph(space, max(f.r - 1, 1))
    n = graph.n_nodes()
    W = [[None] * n for _ in range(n)]
    for u, v, ew in graph_edges(graph):
        W[u][v] = exact(f.value(ew[:f.r]))
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
def block_potentials(draw):
    space, r = draw(st.sampled_from(MAXPLUS_CASES))
    weights = draw(WEIGHTS)
    table = {w.symbols: float(draw(weights)) for w in space.words(r)}
    return space, Potential(space, r, table)


@st.composite
def mixed_batches(draw):
    """A space and 3-6 potentials on it, of the depths MAXPLUS_CASES pairs
    with it, one potential of each WEIGHT_KINDS entry first, so the large
    integers put the whole batch on the Python-int path."""
    space = draw(st.sampled_from(list(dict.fromkeys(s for s, _ in MAXPLUS_CASES))))
    depths = [r for s, r in MAXPLUS_CASES if s is space]
    kinds = WEIGHT_KINDS + draw(st.lists(st.sampled_from(WEIGHT_KINDS),
                                         max_size=3))
    fs = []
    for kind in draw(st.permutations(kinds)):
        r = draw(st.sampled_from(depths))
        fs.append(Potential(space, r, {w.symbols: float(draw(kind))
                                       for w in space.words(r)}))
    return space, fs


@st.composite
def equilibrium_batches(draw):
    """A space and 1-6 potentials on it with values in [-3, 3], of the
    depths MAXPLUS_CASES pairs with it."""
    space = draw(st.sampled_from(list(dict.fromkeys(
        s for s, _ in MAXPLUS_CASES))))
    depths = [r for s, r in MAXPLUS_CASES if s is space]
    fs = []
    for _ in range(draw(st.integers(1, 6))):
        r = draw(st.sampled_from(depths))
        fs.append(Potential(space, r, {w.symbols: draw(st.floats(-3, 3))
                                       for w in space.words(r)}))
    return space, fs


@st.composite
def maxplus_states(draw):
    """A weighted digraph, a batch shape with 0, 1 or 2 leading axes and,
    for each batch entry, edge values and a state vector over the nodes
    (some entries absent), as integer weights on the float64 path or, with
    a step count past 2**53, on the Python-int path."""
    n, edges = draw(weighted_digraphs())
    shape = draw(st.sampled_from([(), (2,), (3, 2)]))
    size = int(np.prod(shape))
    weights = draw(WEIGHTS)
    values = np.array([float(draw(weights)) for _ in range(size * len(edges))]
                      + [float(draw(weights)) for _ in range(size * n)]
                      ).reshape(shape + (len(edges) + n,))
    steps = draw(st.sampled_from([n + 1, 2 ** 60]))
    w, _, absent, _ = _integer_weights(values, steps)
    gone = np.array(draw(st.lists(st.booleans(), min_size=size * n,
                                  max_size=size * n))).reshape(shape + (n,))
    cur = w[..., len(edges):].copy()
    cur[gone] = absent
    src, dst = (np.array([e[k] for e, _ in edges], dtype=np.intp)
                for k in (0, 1))
    return n, src, dst, w[..., :len(edges)], cur, absent


@st.composite
def potentials_and_periods(draw):
    space, f = draw(block_potentials())
    n = block_graph(space, max(f.r - 1, 1)).n_nodes()
    return space, f, draw(st.integers(1, n + 1))


@st.composite
def weighted_digraphs(draw):
    n = draw(st.integers(1, 6))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)),
                          unique=True, max_size=n * n))
    weights = draw(WEIGHTS)
    return n, [((u, v), exact(float(draw(weights)))) for u, v in pairs]


def enumerate_cycle_means(space, f):
    """Third, fully independent oracle: recursive enumeration of all simple
    cycles of the block graph with exact means."""
    g = block_graph(space, max(f.r - 1, 1))
    adj = {}
    for u, v, ew in graph_edges(g):
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
            assert g.space is space
            assert g.n_nodes() == space.count_words(3)


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

    def test_residual_solves_once_and_equals_two_solves(self, monkeypatch):
        # one Perron call per batch: here one batch per depth
        solves = []
        perron = ergopt._perron
        monkeypatch.setattr(ergopt, "_perron",
                            lambda M: solves.append(M) or perron(M))
        for space, depths in ((FULL2, (1, 3, 1, 1)), (GOLDEN, (2, 2))):
            fs = [random_potential(space, r, seed=40 + i, integer=False,
                                   low=-2, high=2)
                  for i, r in enumerate(depths)]
            solves.clear()
            got = equilibrium_residuals(space, fs)
            assert [len(M) for M in solves] == [
                depths.count(r) for r in dict.fromkeys(depths)]
            for f, res in zip(fs, got):
                mu = equilibrium_state(space, f)
                assert res == abs(ks_entropy(mu)
                                  + equilibrium_mean(space, f, mu)
                                  - pressure(space, f))

    def test_batch_equals_one_row_bit_for_bit(self):
        for space, depths in ((FULL2, (1, 2, 3, 3, 1)), (GOLDEN, (1, 2, 3)),
                              (SftSpace.full_shift(3), (1, 2, 2))):
            fs = [random_potential(space, r, seed=60 + i, integer=False,
                                   low=-2, high=2)
                  for i, r in enumerate(depths)]
            assert equilibrium_residuals(space, fs) == [
                equilibrium_residual(space, f) for f in fs]

    def test_experiment_equals_per_trial_loop(self):
        # the residuals.csv that thm1_6_equilibrium wrote trial by trial
        rng, rows = np.random.default_rng(7), []
        for trial in range(200):
            m, r = int(rng.integers(2, 5)), int(rng.integers(1, 3))
            space = SftSpace.full_shift(m)
            f = random_potential(space, r, seed=7 * 1000 + trial,
                                 integer=False, low=-2, high=2)
            rows.append([trial, m, r, equilibrium_residual(space, f)])
        got = run_experiment("thm1_6_equilibrium", 7, {"count": 200})
        assert got.tables["residuals.csv"] == _csv(
            ["trial", "m", "r", "residual"], rows)

    @settings(max_examples=60, deadline=None)
    @given(equilibrium_batches())
    def test_batch_equals_per_row_oracle(self, case):
        space, fs = case
        assert equilibrium_residuals(space, fs) == per_row_residuals(space, fs)
        for f, (want, p) in zip(fs, per_row_equilibria(space, fs)):
            mu = equilibrium_state(space, f)
            assert np.array_equal(mu.stochastic, want.stochastic)
            assert np.array_equal(mu.stationary, want.stationary)
            assert ks_entropy(mu) == per_measure_entropy(want)
            assert equilibrium_mean(space, f, mu) == loop_equilibrium_mean(
                space, f, want)

    def test_experiment_draws_equal_per_row_oracle(self):
        rng = np.random.default_rng(21)
        draws = [(int(rng.integers(2, 5)), int(rng.integers(1, 3)))
                 for _ in range(300)]
        for m in (2, 3, 4):
            space = SftSpace.full_shift(m)
            fs = [random_potential(space, r, seed=21 * 1000 + t,
                                   integer=False, low=-2, high=2)
                  for t, (mt, r) in enumerate(draws) if mt == m]
            assert equilibrium_residuals(space, fs) == per_row_residuals(
                space, fs)

    def test_block_space_built_once_per_graph(self):
        graph = block_graph(FULL2, 2)
        assert graph.block_space() is graph.block_space()
        assert block_graph(FULL2, 1).block_space() is FULL2
        f, g = (random_potential(FULL2, 3, seed=s) for s in (1, 2))
        assert equilibrium_state(FULL2, f).space is \
            equilibrium_state(FULL2, g).space is graph.block_space()

    def test_depth3_batch_shares_one_block_space(self):
        fs = [random_potential(FULL2, 3, seed=90 + i, integer=False,
                               low=-2, high=2) for i in range(5)]
        (_, rows, _, mus, _), = _equilibria(FULL2, fs)
        assert rows == list(range(5))
        assert len({id(mu.space) for mu in mus}) == 1
        assert mus[0].space.m == 4
        for f, mu in zip(fs, mus):
            one = equilibrium_state(FULL2, f)
            assert np.array_equal(mu.stochastic, one.stochastic)
            assert np.array_equal(mu.stationary, one.stationary)

    def test_ill_conditioned_perron_vector_named(self):
        # eig returns an entry of about -1e-16 for a vector spanning 1e-17..1
        bad = random_potential(FULL2, 4, seed=3, integer=False)
        assert issubclass(PerronNotPositive, SftLabError)
        assert issubclass(PerronNotPositive, ArithmeticError)
        with pytest.raises(PerronNotPositive, match=r"^potential 0: .* -\d"):
            equilibrium_state(FULL2, bad)
        good = random_potential(FULL2, 4, seed=1, integer=False)
        with pytest.raises(PerronNotPositive, match="^potential 2: "):
            equilibrium_residuals(FULL2, [good, good, bad])

    @pytest.mark.parametrize("name", ["thm1_6_equilibrium", "karp_oracle"])
    @pytest.mark.parametrize("count", [0, -3])
    def test_non_positive_count_rejected(self, name, count):
        with pytest.raises(ValueError,
                           match=f"count must be positive, got {count}"):
            run_experiment(name, 7, {"count": count})

    def test_mean_potential_agrees_with_edge_flow(self):
        f = random_potential(FULL2, 2, seed=6, integer=False)
        mu = equilibrium_state(FULL2, f)
        assert mean_potential(mu, f) == pytest.approx(
            equilibrium_mean(FULL2, f, mu), abs=1e-12)


class TestBatches:
    @settings(max_examples=100, deadline=None)
    @given(mixed_batches())
    def test_betas_equal_one_row_cases(self, case):
        space, fs = case
        got = betas(space, fs)
        assert [(b.value_exact, b.cycle) for b in got] == [
            (b.value_exact, b.cycle) for b in (beta(space, f) for f in fs)]

    @settings(max_examples=100, deadline=None)
    @given(mixed_batches(), st.integers(1, 7))
    def test_brute_force_betas_equal_one_row_cases(self, case, max_period):
        space, fs = case
        try:
            expected = [brute_force_beta(space, f, max_period) for f in fs]
        except ValueError:
            with pytest.raises(ValueError, match="no periodic orbit"):
                brute_force_betas(space, fs, max_period)
        else:
            assert brute_force_betas(space, fs, max_period) == expected

    @settings(max_examples=100, deadline=None)
    @given(mixed_batches(), st.floats(-4, 4))
    def test_pressures_equal_one_row_cases(self, case, q):
        space, fs = case
        fs = [f.scale(q) for f in fs]
        try:
            expected = [pressure(space, f) for f in fs]
        except ValueError:  # a Perron root that underflows to zero
            with pytest.raises(ValueError):
                pressures(space, fs)
        else:
            assert pressures(space, fs) == expected

    def test_empty_batches(self):
        assert betas(FULL2, []) == []
        assert brute_force_betas(FULL2, [], 3) == []
        assert equilibrium_residuals(FULL2, []) == []

    def test_karp_oracle_equals_per_trial_loop(self):
        # the oracle.csv that karp_oracle wrote trial by trial
        rng, rows = np.random.default_rng(7), []
        for trial in range(200):
            m, r = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            if m ** max(r - 1, 1) > 40:
                r = 2
            space = SftSpace.full_shift(m)
            f = random_potential(space, r, seed=7 * 7919 + trial)
            nodes = block_graph(space, max(r - 1, 1)).n_nodes()
            karp = beta(space, f).value
            oracle = brute_force_beta(space, f, nodes)
            rows.append([trial, m, r, karp, oracle, int(karp == oracle)])
        got = run_experiment("karp_oracle", 7, {"count": 200})
        assert got.tables["oracle.csv"] == _csv(
            ["trial", "m", "r", "karp", "oracle", "equal"], rows)

    def test_batches_are_cut_at_the_element_budget(self, monkeypatch):
        # 3 nodes of in-degree 3: Karp's D table holds (3 + 1) * 3 = 12
        # elements a row, the oracle's gather 3 * 3 * 3 = 27 and a Perron
        # call 3 * 3 = 9
        space = SftSpace.full_shift(3)
        fs = [random_potential(space, 2, seed=i) for i in range(7)]
        solves = []

        def record(name, batch_arg):
            solve = getattr(ergopt, name)
            monkeypatch.setattr(ergopt, name, lambda *a: solves.append(
                len(a[batch_arg])) or solve(*a))

        record("_optimum", 1)
        record("_maxplus_best_mean", 1)
        record("_perron", 0)
        expected = (betas(space, fs), brute_force_betas(space, fs, 3),
                    pressures(space, fs))
        for budget, karp, oracle, perron in [
                (11, [1] * 7, [1] * 7, [1] * 7),
                (26, [2, 2, 2, 1], [1] * 7, [2, 2, 2, 1]),
                (36, [3, 3, 1], [1] * 7, [4, 3]),
                (54, [4, 3], [2, 2, 2, 1], [6, 1])]:
            monkeypatch.setattr(ergopt, "_BATCH_ELEMENTS", budget)
            solves.clear()
            assert betas(space, fs) == expected[0] and solves == karp
            solves.clear()
            assert brute_force_betas(space, fs, 3) == expected[1]
            assert solves == oracle
            solves.clear()
            assert pressures(space, fs) == expected[2] and solves == perron


class TestSpaceMismatch:
    # a golden-mean potential on the relabelled golden mean: beta used to
    # return -1 where the right value is 6
    F = random_potential(GOLDEN, 2, seed=3)

    @pytest.mark.parametrize("space", [SftSpace([[0, 1], [1, 1]]), FULL2],
                             ids=repr)
    def test_every_entry_point_names_both_spaces(self, space):
        message = re.escape(f"{GOLDEN.transition.tolist()}, not on "
                            f"{space.transition.tolist()}")
        for call in (lambda: beta(space, self.F),
                     lambda: betas(space, [random_potential(space, 1, 0),
                                           self.F]),
                     lambda: brute_force_beta(space, self.F, 3),
                     lambda: brute_force_betas(space, [self.F], 3),
                     lambda: pressure(space, self.F),
                     lambda: pressures(space, [self.F]),
                     lambda: level_entropy_details(space, self.F, [0.0]),
                     lambda: equilibrium_state(space, self.F),
                     lambda: equilibrium_residual(space, self.F),
                     lambda: equilibrium_residuals(space, [self.F]),
                     lambda: equilibrium_mean(
                         space, self.F,
                         MarkovMeasure.periodic_orbit(space, Word("01"))),
                     lambda: classify_smr(space, self.F)):
            with pytest.raises(SpaceMismatch, match=message):
                call()

    def test_coboundary_shift_names_the_other_space(self):
        # a full-shift g used to give the golden-mean f a coboundary silently
        g = random_potential(FULL2, 1, seed=4)
        with pytest.raises(SpaceMismatch, match=re.escape(
                f"potential 1 is defined on the space with transition "
                f"{FULL2.transition.tolist()}, not on "
                f"{GOLDEN.transition.tolist()}")):
            coboundary_shift(self.F, g)
        twin = random_potential(SftSpace(GOLDEN.transition), 1, seed=4)
        assert coboundary_shift(self.F, twin).r == 2

    def test_mean_potential_names_the_other_space(self):
        # a full-shift f used to be integrated against a golden-mean measure
        mu = MarkovMeasure.periodic_orbit(GOLDEN, Word("01"))
        f = random_potential(FULL2, 2, seed=5)
        with pytest.raises(SpaceMismatch, match=re.escape(
                f"{FULL2.transition.tolist()}, not on "
                f"{GOLDEN.transition.tolist()}")):
            mean_potential(mu, f)
        assert mean_potential(mu, self.F) == pytest.approx(
            (self.F.value((0, 1)) + self.F.value((1, 0))) / 2)

    def test_an_equal_space_is_accepted(self):
        twin = SftSpace(GOLDEN.transition)
        assert beta(twin, self.F) == beta(GOLDEN, self.F)
        assert beta(GOLDEN, self.F).value == 6.0

    # a measure off f's block space used to raise a raw IndexError (the
    # 2-state measure for a depth-3 f) or return a number silently
    @pytest.mark.parametrize("r, mu, nodes, edges", [
        (3, MarkovMeasure.bernoulli(FULL2, [0.5, 0.5]), 4, 8),
        (3, MarkovMeasure.periodic_orbit(SftSpace.full_shift(4),
                                         Word("0123")), 4, 8),
        (2, MarkovMeasure.periodic_orbit(GOLDEN, Word("01")), 2, 4),
    ], ids=["two-states", "full-4-shift", "golden-mean"])
    def test_equilibrium_mean_names_the_block_space(self, r, mu, nodes,
                                                    edges):
        with pytest.raises(SpaceMismatch, match=re.escape(
                f"mu must live on the {nodes}-node block space of the "
                f"depth-{r} potential ({edges} edges), not on {mu.space!r}")):
            equilibrium_mean(FULL2, random_potential(FULL2, r, seed=6), mu)

    @pytest.mark.parametrize("r", [2, 3])
    def test_equilibrium_mean_accepts_an_equal_block_space(self, r):
        f = random_potential(FULL2, r, seed=6)
        mu = equilibrium_state(FULL2, f)
        twin = MarkovMeasure(SftSpace(mu.space.transition), mu.stochastic,
                             mu.stationary)
        assert equilibrium_mean(FULL2, f, twin) == \
            equilibrium_mean(FULL2, f, mu) == equilibrium_mean(FULL2, f)


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

    def test_zero_q_tol_raises_before_pressure(self, monkeypatch):
        forbid_pressure(monkeypatch)
        with pytest.raises(ValueError, match="q_tol"):
            level_entropy_detail(FULL2, IND1, 0.3, q_tol=0.0)

    def test_negative_q_max_raises_before_pressure(self, monkeypatch):
        forbid_pressure(monkeypatch)
        with pytest.raises(ValueError, match="q_max"):
            level_entropy_detail(FULL2, IND1, 0.3, q_max=-1.0)

    def test_nan_level_raises_before_pressure(self, monkeypatch):
        forbid_pressure(monkeypatch)
        with pytest.raises(OutsideLf, match="nan"):
            level_entropy_detail(FULL2, IND1, float("nan"))

    def test_outside_range(self):
        f = Potential.indicator(FULL2, Word("1"))
        with pytest.raises(OutsideLf):
            level_entropy(FULL2, f, 1.5)

    def test_one_bad_level_raises_before_pressure(self, monkeypatch):
        forbid_pressure(monkeypatch)
        with pytest.raises(OutsideLf, match=re.escape("a=1.5 outside")):
            level_entropy_details(FULL2, IND1, [0.2, 0.5, 1.5, -1.0, 0.9])

    def test_lockstep_equals_sequential_searches(self, monkeypatch):
        # the boundary levels 0 and 1 run out to q_max, the grid stops early
        levels = [0.0, 1.0] + [round(0.1 * i, 10) for i in range(1, 10)]
        calls = count_transfer_solves(monkeypatch)
        expected, steps = [], []
        for a in levels:
            expected.append(sequential_level_entropy_detail(FULL2, IND1, a))
            steps.append(len(calls))
            calls.clear()
        assert level_entropy_details(FULL2, IND1, levels) == expected
        # one solve per round, of every search that has not ended
        assert calls == [sum(n > k for n in steps) for k in range(max(steps))]
        assert [level_entropy_detail(FULL2, IND1, a) for a in levels] == expected
        assert level_entropy_details(FULL2, IND1, []) == []

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([(FULL2, 1), (FULL2, 2), (GOLDEN, 2),
                            (SftSpace.full_shift(3), 1), (NO_FIXED, 2)]),
           st.integers(0, 2 ** 32 - 1),
           st.lists(st.floats(0, 1), min_size=1, max_size=4),
           st.sampled_from([(512.0, 1e-8), (8.0, 1e-3)]))
    def test_lockstep_equals_sequential_on_random_potentials(
            self, case, seed, shares, search):
        space, r = case
        f = random_potential(space, r, seed=seed, low=-3, high=3)
        lo, hi = ergodic_average_range(space, f)
        levels = [lo + t * (hi - lo) for t in shares]
        try:
            expected = [sequential_level_entropy_detail(space, f, a, *search)
                        for a in levels]
        except ValueError:  # a Perron root that underflows to zero
            with pytest.raises(ValueError):
                level_entropy_details(space, f, levels, *search)
        else:
            assert level_entropy_details(space, f, levels, *search) == expected

    def test_thm1_4_solves_its_levels_in_lockstep(self, monkeypatch):
        # eleven searches one after another made 555 transfer solves; the
        # grid's nine levels hold 0.5 and 0.9, so no level is searched twice
        calls = count_transfer_solves(monkeypatch)
        assert run_experiment("thm1_4_levels_and_smr", 7, {}).passed
        assert len(calls) <= 60 and calls[0] == 9

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
        src, dst = (np.array([e[k] for e, _ in edges], dtype=np.intp)
                    for k in (0, 1))
        values = [float(w) for _, w in edges]
        assert (best_mean(n, src, dst, values, n)
                == loop_max_mean_cycle_excluding(n, edges))

    @settings(max_examples=300, deadline=None)
    @given(maxplus_states())
    def test_gather_step_matches_scatter_oracle(self, case):
        n, src, dst, w, cur, absent = case
        table = InEdges.of(n, src, dst)
        got = _maxplus_step(cur, table, table.weights(w, absent), absent)
        expected = scatter_maxplus_step(cur, src, dst, w, absent)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tolist() == expected.tolist()

    def test_gather_step_covers_both_paths_and_bare_nodes(self):
        # GOLDEN's and NO_FIXED's in-degrees are uneven or have no loop;
        # dropping node 0's in-edges leaves it bare
        for space in (GOLDEN, NO_FIXED):
            g = block_graph(space, 1)
            keep = g.dst != 0
            table = InEdges.of(g.n_nodes(), g.src[keep], g.dst[keep])
            assert table.bare.tolist() == [0]
            for steps in (3, 2 ** 60):
                values = np.arange(1.0, 1 + 2 * keep.sum()).reshape(2, -1)
                w, _, absent, _ = _integer_weights(values, steps)
                assert (w.dtype == object) == (steps == 2 ** 60)
                cur = np.zeros((2, g.n_nodes()), dtype=w.dtype)
                cur[1, 1] = absent
                assert _maxplus_step(cur, table, table.weights(w, absent),
                                     absent).tolist() == scatter_maxplus_step(
                    cur, g.src[keep], g.dst[keep], w, absent).tolist()

    def test_exact_across_the_float64_limit(self):
        # a loop of weight w and a 2-cycle of sum 2w + d, d the spacing of
        # floats at w, which float64 rounds to 2w
        src, dst = np.array([0, 0, 1]), np.array([0, 1, 0])
        for w in (2.0 ** 51, 2.0 ** 52, 2.0 ** 60):
            d = math.ulp(w)
            values = [w, w, w + d]
            assert (best_mean(2, src, dst, values, 2)
                    == Fraction(w) + Fraction(d) / 2)
            assert best_mean(2, src[1:], dst[1:], values[1:], 1) is None


    @settings(deadline=None)
    @given(block_potentials())
    def test_karp_matches_fraction_oracle(self, case):
        space, f = case
        graph = block_graph(space, max(f.r - 1, 1))
        lam, _ = optimum(graph, f)
        assert lam == fraction_karp(graph, fraction_weights(graph, f))
        assert beta(space, f).value_exact == lam

    @settings(deadline=None)
    @given(block_potentials())
    def test_tight_subgraph_and_cycle_match_fraction_oracle(self, case):
        space, f = case
        graph = block_graph(space, max(f.r - 1, 1))
        weights = fraction_weights(graph, f)
        tight = fraction_tight_subgraph(graph, weights,
                                        fraction_karp(graph, weights))
        assert optimum(graph, f)[1] == tight
        assert beta(space, f).cycle == _cycle_word(graph, _find_cycle(tight))

    @settings(deadline=None)
    @given(block_potentials())
    def test_classify_smr_matches_fraction_oracle(self, case):
        space, f = case
        out = classify_smr(space, f)
        assert (out.periodic, out.ties, out.gap) == \
            fraction_classify_smr(space, f)

    def test_karp_exact_across_the_float64_limit(self):
        # node 0's loop weighs w and the 2-cycle 0 1 sums to 2w + 1.  With
        # 2 * n**2 = 8 steps, w = 2**49 stays on float64 and the larger w
        # take Python ints; float64 would round 2**53 + 1 to 2**53, a tie
        for w in (2 ** 49, 2 ** 50, 2 ** 51, 2 ** 52):
            f = Potential(FULL2, 2, {(0, 0): w, (0, 1): w, (1, 0): w + 1,
                                     (1, 1): -w})
            out = beta(FULL2, f)
            assert out.value_exact == Fraction(2 * w + 1, 2)
            assert out.cycle == Word("01")
            smr = classify_smr(FULL2, f)
            assert smr.periodic == Word("01") and smr.gap == 0.5
        # one loop above a flat complete graph at 2**53 / 3: the walk sums
        # stay below 2**53, Karp's cross-multiplied ratios do not
        x = 2 ** 53 // 3 - 1
        full3 = SftSpace.full_shift(3)
        f = Potential(full3, 2, {w.symbols: x + (w.symbols == (2, 2))
                                 for w in full3.words(2)})
        assert beta(full3, f).value_exact == x + 1


class TestPerron:
    def test_near_periodic_two_by_two(self):
        # eigenvalues 1 + d and d - 1: power iteration's ratio |l2 / l1| is
        # 1 - 2d / (1 + d), so its old convergence took millions of steps
        for d in (1e-3, 1e-6, 1e-9):
            M = np.array([[d, 2.0], [0.5, d]])
            lam, v = _perron(M[None])
            assert lam[0] == pytest.approx(1 + d, rel=1e-14)
            assert v[0] == pytest.approx([2 / 3, 1 / 3], rel=1e-12)

    def test_near_periodic_pressure_and_equilibrium(self):
        # f is large only on the alternating words, so exp(f) is close to
        # the period-2 matrix [[0, 1], [1, 0]]
        f = Potential(FULL2, 2, {(0, 0): -20.0, (0, 1): 1.0,
                                 (1, 0): 0.0, (1, 1): -25.0})
        a, d = math.exp(-20.0), math.exp(-25.0)
        root = (a + d) / 2 + math.sqrt(((a - d) / 2) ** 2 + math.exp(1.0))
        assert pressure(FULL2, f) == pytest.approx(math.log(root), abs=1e-14)
        assert equilibrium_residual(FULL2, f) <= 1e-12
