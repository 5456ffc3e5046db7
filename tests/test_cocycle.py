import math
import re
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sftlab import cocycle, experiments, shift
from sftlab.cocycle import (MatrixCocycle, _cyclic_words, emit_lyapunov_family,
                            exponent_along, exponent_bracket,
                            exponents_along, periodic_exponent)
from sftlab.errors import NotPrimitive, SingularProduct
from sftlab.measures import MarkovMeasure, family_target, sample_word
from sftlab.shift import SftSpace, Word, glue, glue_spans, separated_count

from word_oracles import (cyclic_words_filter, dfs_exponent_bracket,
                          primitive_spaces, unchunked_exponents_along)

FULL2 = SftSpace.full_shift(2)
GOLDEN = SftSpace.golden_mean()


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


class TestExponentAlong:
    def test_constant_diagonal(self):
        c = MatrixCocycle.constant(FULL2, np.diag([2.0, 0.5]))
        w = Word("01" * 200)
        # ||A^n|| = 2^n exactly, so the exponent is exact at every n
        assert exponent_along(c, w, 400) == pytest.approx(
            math.log(2), abs=1e-12)

    def test_single_step_is_log_norm(self):
        A = np.array([[1.0, 2.0], [0.0, 1.0]])
        c = MatrixCocycle.constant(FULL2, A)
        expected = math.log(np.linalg.norm(A, 2))
        assert exponent_along(c, Word("01"), 1) == pytest.approx(expected)

    def test_cadence_independence(self):
        c = MatrixCocycle(FULL2, {
            (0,): np.array([[1.1, 0.3], [0.0, 0.9]]),
            (1,): np.array([[0.8, 0.0], [0.5, 1.2]]),
        })
        mu = MarkovMeasure.bernoulli(FULL2, [0.5, 0.5])
        w = sample_word(mu, 2000, 1)
        # every scaling is by a power of two, so the bits are the same
        a = exponent_along(c, w, 2000, cadence=8)
        b = exponent_along(c, w, 2000, cadence=64)
        assert a == b

    def test_diagonal_birkhoff_oracle(self):
        # commuting diagonals: the exponent equals the largest absolute
        # Birkhoff average of the log diagonal entries, exactly
        a, b = 3.0, 0.5
        c = MatrixCocycle.diagonal(FULL2, {0: [b, 1 / b], 1: [a, 1 / a]})
        mu = MarkovMeasure.bernoulli(FULL2, [0.6, 0.4])
        w = sample_word(mu, 5000, 2)
        n = 5000
        s = sum(math.log(a) if w[i] else math.log(b) for i in range(n))
        assert exponent_along(c, w, n) == pytest.approx(abs(s) / n, abs=1e-10)

    def test_diagonal_closed_form_statistics(self):
        a, b = 2.0, 1.5
        c = MatrixCocycle.diagonal(FULL2, {0: [b, 1 / b], 1: [a, 1 / a]})
        p = 0.7
        mu = MarkovMeasure.bernoulli(FULL2, [1 - p, p])
        w = sample_word(mu, 10 ** 5, 3)
        expected = abs(p * math.log(a) + (1 - p) * math.log(b))
        assert exponent_along(c, w, 10 ** 5) == pytest.approx(expected, abs=0.01)

    def test_depth_two_cocycle(self):
        gens = {w.symbols: np.eye(2) * (1.0 + 0.1 * i)
                for i, w in enumerate(GOLDEN.words(2))}
        c = MatrixCocycle(GOLDEN, gens, depth=2)
        w = GOLDEN.word([0, 1, 0, 0, 1, 0])
        out = exponent_along(c, w, 5)
        assert math.isfinite(out)


class TestPeriodicExponent:
    def test_constant_matrix(self):
        A = np.array([[2.0, 1.0], [1.0, 1.0]])
        c = MatrixCocycle.constant(FULL2, A)
        rho = max(abs(np.linalg.eigvals(A)))
        for cycle in (Word("0"), Word("01"), Word("0011")):
            assert periodic_exponent(c, cycle) == pytest.approx(
                math.log(rho), abs=1e-12)

    def test_two_cycle_product_order(self):
        B = np.array([[1.0, 1.0], [0.0, 1.0]])
        C = np.array([[1.0, 0.0], [2.0, 1.0]])
        c = MatrixCocycle(FULL2, {(0,): B, (1,): C})
        rho = max(abs(np.linalg.eigvals(C @ B)))
        assert periodic_exponent(c, Word("01")) == pytest.approx(
            0.5 * math.log(rho), abs=1e-12)

    def test_cycle_not_periodically_admissible_raises(self):
        # on the golden mean "11" is forbidden, "101" only as it closes up,
        # and 2 is no symbol: "11" used to give 1.0986 at depth 1 and a raw
        # KeyError at depth 2
        gens = {w: np.eye(2) * 3.0 for w in ((0, 0), (0, 1), (1, 0))}
        for c in (MatrixCocycle.constant(GOLDEN, np.eye(2) * 3.0),
                  MatrixCocycle(GOLDEN, gens, depth=2)):
            for text in ("11", "101", "12"):
                with pytest.raises(ValueError, match=re.escape(
                        f"cycle '{text}' is not periodically admissible")):
                    periodic_exponent(c, Word(text))
            assert periodic_exponent(c, Word("01")) == \
                pytest.approx(math.log(3.0))

    def test_submultiplicative_window_bound(self):
        rng = np.random.default_rng(4)
        c = MatrixCocycle(FULL2, {
            (0,): rng.normal(size=(2, 2)) + 2 * np.eye(2),
            (1,): rng.normal(size=(2, 2)) + 2 * np.eye(2),
        })
        mu = MarkovMeasure.bernoulli(FULL2, [0.5, 0.5])
        w = sample_word(mu, 400, 5)
        na, nb = 120, 280
        full = exponent_along(c, w, na + nb) * (na + nb)
        head = exponent_along(c, w, na) * na
        tail = exponent_along(c, w[na:], nb) * nb
        assert full <= head + tail + 1e-9


class TestExponentBracket:
    def test_constant_matrix_brackets_spectral_radius(self):
        A = np.array([[2.0, 1.0], [1.0, 1.0]])
        c = MatrixCocycle.constant(FULL2, A)
        lower, upper = exponent_bracket(c, FULL2, 12, 4)
        rho = math.log(max(abs(np.linalg.eigvals(A))))
        assert lower <= upper + 1e-12  # equality case, two float paths
        assert lower == pytest.approx(rho, abs=1e-9)
        cond = np.linalg.cond(A)
        assert upper <= rho + math.log(2 * cond) / 12 + 1e-9

    def test_commuting_diagonal_width(self):
        a, b = 2.0, 1.25
        c = MatrixCocycle.diagonal(FULL2, {0: [b, 1 / b], 1: [a, 1 / a]})
        n = 12
        lower, upper = exponent_bracket(c, FULL2, n, 4)
        assert lower <= upper
        # the pure-a word dominates; the bracket is tight for diagonals
        assert upper == pytest.approx(math.log(a), abs=1e-9)
        assert lower == pytest.approx(math.log(a), abs=1e-9)

    def test_random_cocycle_ordering(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            g0 = rng.normal(size=(2, 2))
            g1 = rng.normal(size=(2, 2))
            g0 += np.sign(np.linalg.det(g0)) * 1.5 * np.eye(2)
            g1 += np.sign(np.linalg.det(g1)) * 1.5 * np.eye(2)
            c = MatrixCocycle(FULL2, {(0,): g0, (1,): g1})
            lower, upper = exponent_bracket(c, FULL2, 12, 6)
            assert lower <= upper + 1e-12


    def test_nonpositive_n_or_max_period_raise(self):
        c = MatrixCocycle.constant(FULL2, np.eye(2))
        for n, max_period in ((0, 4), (-1, 4), (4, 0)):
            with pytest.raises(ValueError, match=re.escape(
                    f"need n >= 1 and max_period >= 1, got {n} and "
                    f"{max_period}")):
                exponent_bracket(c, FULL2, n, max_period)

    def test_count_past_limit_raises_before_enumerating(self, monkeypatch):
        # 2,178,309 golden-mean 30-words; 1,346,269 29-words pass
        def forbid(A, tails):
            raise AssertionError(f"filled the {len(tails)}-words")

        golden = SftSpace.golden_mean()
        c = MatrixCocycle(golden, {w: np.eye(2) for w in ((0, 0), (0, 1),
                                                          (1, 0))}, depth=2)
        mu = MarkovMeasure.periodic_orbit(golden, Word("01"))
        monkeypatch.setattr(shift, "_fill_words", forbid)
        start = time.perf_counter()
        for call in (lambda: exponent_bracket(c, golden, 29, 2),
                     lambda: exponent_bracket(c, golden, 2, 30),
                     lambda: emit_lyapunov_family(c, golden, mu, None, N=30,
                                                  seed=1)):
            with pytest.raises(ValueError, match=re.escape(
                    "2178309 admissible 30-words: too many")):
                call()
        assert time.perf_counter() - start < 0.5


class TestLyapunovFamily:
    def test_all_words_family_on_full_shift(self):
        c = MatrixCocycle(FULL2, {
            (0,): np.array([[1.2, 0.1], [0.0, 0.9]]),
            (1,): np.array([[0.7, 0.0], [0.2, 1.3]]),
        })
        mu = MarkovMeasure.bernoulli(FULL2, [0.5, 0.5])
        anchor = FULL2.word([0, 1, 0, 0])
        report = emit_lyapunov_family(c, FULL2, mu, anchor, N=8, seed=3,
                                      eta=0.1, tail_len=256)
        assert report.family_size == 2 ** 8
        assert report.family_size >= report.target_size == \
            family_target(8, math.log(2), 0.1)
        assert report.members.shape == (2 ** 8, report.horizon)
        assert not report.members.flags.writeable
        for w in report.members:
            assert FULL2.is_admissible(w)
        # distinct words force separation at the prefix scale, exactly
        n_sep = report.prefix_len - 0  # gap-1 = 0 on the full shift
        assert separated_count(report.members, n_sep, 1) == 2 ** 8
        assert report.all_within_bound()

    def test_empty_anchor_glues_like_none_on_gap_two(self):
        c = MatrixCocycle(GOLDEN, {
            (0,): np.array([[1.2, 0.1], [0.0, 0.9]]),
            (1,): np.array([[0.7, 0.0], [0.2, 1.3]]),
        })
        mu = MarkovMeasure.periodic_orbit(GOLDEN, Word("01"))
        empty = emit_lyapunov_family(c, GOLDEN, mu, Word(()), N=4, seed=3,
                                     tail_len=64)
        none = emit_lyapunov_family(c, GOLDEN, mu, None, N=4, seed=3,
                                    tail_len=64)
        assert empty.prefix_len == none.prefix_len == 4 + 1
        assert empty.horizon == empty.prefix_len + 64
        assert {len(w) for w in empty.members} == {empty.horizon}
        assert np.array_equal(empty.members, none.members)
        assert empty.exponents == none.exponents

    def test_identity_cocycle_zero_exponents(self):
        c = MatrixCocycle.constant(FULL2, np.eye(3))
        mu = MarkovMeasure.bernoulli(FULL2, [0.5, 0.5])
        report = emit_lyapunov_family(c, FULL2, mu, None, N=4, seed=1,
                                      tail_len=64)
        assert all(abs(e) < 1e-12 for e in report.exponents)
        assert report.prefix_bound == 0.0

    def test_non_primitive_space_names_the_builder(self):
        # raised a bare ValueError("needs a primitive space")
        flip = SftSpace([[0, 1], [1, 0]])
        c = MatrixCocycle.constant(flip, np.eye(2))
        mu = MarkovMeasure.periodic_orbit(flip, Word("01"))
        with pytest.raises(NotPrimitive, match="^emit_lyapunov_family needs "
                                               "a primitive space$"):
            emit_lyapunov_family(c, flip, mu, None, N=2, seed=0)

    def test_golden_mean_family_respects_transitions(self):
        c = MatrixCocycle(GOLDEN, {
            (0,): np.array([[1.5, 0.0], [0.0, 0.8]]),
            (1,): np.array([[0.9, 0.2], [0.0, 1.1]]),
        })
        phi = (1 + math.sqrt(5)) / 2
        parry = MarkovMeasure(GOLDEN, [[1 / phi, 1 / phi ** 2], [1.0, 0.0]])
        report = emit_lyapunov_family(c, GOLDEN, parry, GOLDEN.word([0, 1]),
                                      N=6, seed=7, tail_len=128)
        assert report.family_size == GOLDEN.count_words(6)
        for w in report.members:
            assert GOLDEN.is_admissible(w)
        assert report.all_within_bound()


# ---------------- per-member oracles: the exponent loop before batching


def per_step_exponent_along(c, x, n, cadence=32):
    """Oracle of the SVD-rescaled arithmetic: one 2-d product per position
    of one word, divided by its norm every ``cadence`` steps, the logs
    added one by one."""
    if n < 1:
        raise ValueError("n must be positive")
    if len(x) < n + c.depth - 1:
        raise ValueError(f"need word length >= {n + c.depth - 1}")
    s = x.symbols
    P = np.eye(c.d)
    acc = 0.0
    for i in range(n):
        P = c.gen(s[i:i + c.depth]) @ P
        if (i + 1) % cadence == 0:
            norm = np.linalg.norm(P, 2)
            acc += math.log(norm)
            P = P / norm
    return (acc + math.log(np.linalg.norm(P, 2))) / n


def power_of_two_exponent_along(c, x, n, cadence=32):
    """Oracle for exponent_along: one 2-d product per position of one word,
    scaled every ``cadence`` steps and at n by the power of two of its
    largest entry, the powers summed in a Python int."""
    if n < 1:
        raise ValueError("n must be positive")
    s = tuple(shift._symbols(x).tolist())
    if len(s) < n + c.depth - 1:
        raise ValueError(f"need word length >= {n + c.depth - 1}")
    P = np.eye(c.d)
    e = 0
    for i in range(n):
        P = c.gen(s[i:i + c.depth]) @ P
        if (i + 1) % cadence == 0 or i + 1 == n:
            top = float(np.abs(P).max())
            if not (math.isfinite(top) and top > 0):
                raise SingularProduct(f"step {i + 1}")
            k = math.frexp(top)[1]
            P = np.ldexp(P, -k)
            e += k
    f, k = math.frexp(float(np.linalg.norm(P, 2)))
    return (math.log(f) + (e + k) * math.log(2)) / n


def old_walk_tolerance(c, n, cadence):
    """How far the SVD-rescaled walk may sit from the power-of-two one.
    It adds one log per rescaling to a running sum within
    n * max_log_norm, each off by a few ulps of that sum (the rounded
    norm, its log and the sum), and divides by n; the power-of-two walk
    sums integers and takes one log."""
    return (4 * (n // cadence + 2)
            * math.ulp(n * max(1.0, c.max_log_norm())) / n)


def assert_near_old_walk(c, got, old, n, cadence=32):
    tol = old_walk_tolerance(c, n, cadence)
    assert len(got) == len(old)
    for g, o in zip(got, old):
        assert abs(g - o) <= tol, (g, o, tol)


def per_member_lyapunov_family(c, space, mu, anchor, N, seed, tail_len):
    """Oracle for emit_lyapunov_family's members and exponents: each member
    glued and checked on its own, each exponent its own loop."""
    gap = space.primitivity_index
    head = [anchor] if anchor is not None else []
    prefix_len = glue_spans((len(anchor) if anchor is not None else 0, N,
                             tail_len), gap)[-1][0]
    ref = Word(sample_word(mu, prefix_len + tail_len, seed))
    members = tuple(space.word(glue(space, [*head, w, ref[:tail_len]], gap))
                    for w in space.words(N))
    n_eval = len(ref) - (c.depth - 1)
    return (members, power_of_two_exponent_along(c, ref, n_eval),
            power_of_two_exponent_along(c, ref, tail_len),
            tuple(power_of_two_exponent_along(c, w, n_eval)
                  for w in members))


COCYCLE_SPACES = [FULL2, GOLDEN, SftSpace.full_shift(3)]


@st.composite
def cocycles(draw, spaces=st.sampled_from(COCYCLE_SPACES)):
    """A random invertible cocycle of depth 1 or 2 and dimension 2 or 3 on
    a space drawn from ``spaces``."""
    space = draw(spaces)
    depth = draw(st.integers(1, 2))
    d = draw(st.integers(2, 3))
    entry = st.floats(-1.5, 1.5, allow_nan=False, allow_subnormal=False)
    gens = {}
    for w in space.words(depth):
        M = np.array([[draw(entry) for _ in range(d)] for _ in range(d)])
        gens[w.symbols] = M + 2.0 * np.sign(np.linalg.det(M) or 1.0) * np.eye(d)
    return MatrixCocycle(space, gens, depth=depth)


def admissible_words(draw, space, count, length):
    words = []
    for _ in range(count):
        syms = [draw(st.integers(0, space.m - 1))]
        for _ in range(length - 1):
            syms.append(draw(st.sampled_from(space.successors(syms[-1]))))
        words.append(space.word(syms))
    return words


class TestBatchedExponentOracles:
    @settings(max_examples=100, deadline=None)
    @given(cocycles(), st.sampled_from([1, 8, 32]), st.data())
    def test_rows_equal_per_word_loop(self, c, cadence, data):
        length = data.draw(st.integers(c.depth, 90))
        words = admissible_words(data.draw, c.space,
                                 data.draw(st.integers(1, 4)), length)
        n = data.draw(st.integers(1, length - c.depth + 1))
        rows = np.array([w.symbols for w in words], dtype=np.uint8)
        expected = [power_of_two_exponent_along(c, w, n, cadence)
                    for w in words]
        got = exponents_along(c, rows, n, cadence)
        assert got == expected
        assert [exponent_along(c, w, n, cadence) for w in words] == expected
        assert_near_old_walk(c, got, [per_step_exponent_along(
            c, w, n, cadence) for w in words], n, cadence)

    @settings(max_examples=25, deadline=None)
    @given(cocycles(st.sampled_from([FULL2, GOLDEN])), st.integers(0, 2**16),
           st.data())
    def test_family_equals_per_member_oracle(self, c, seed, data):
        space = c.space
        anchor = data.draw(st.sampled_from(
            [None, Word(()), *space.words(1), *space.words(3)]))
        N = data.draw(st.integers(0, 4))
        tail_len = data.draw(st.integers(1, 70))
        phi = (1 + math.sqrt(5)) / 2
        mu = (MarkovMeasure.bernoulli(space, [0.4, 0.6]) if space == FULL2
              else MarkovMeasure(space, [[1 / phi, 1 / phi ** 2], [1.0, 0.0]]))
        try:
            members, ref, tail, exps = per_member_lyapunov_family(
                c, space, mu, anchor, N, seed, tail_len)
        except ValueError as e:  # a horizon too short for the depth
            with pytest.raises(ValueError, match=re.escape(str(e))):
                emit_lyapunov_family(c, space, mu, anchor, N=N, seed=seed,
                                     tail_len=tail_len)
            return
        report = emit_lyapunov_family(c, space, mu, anchor, N=N, seed=seed,
                                      tail_len=tail_len)
        assert list(map(Word, report.members.tolist())) == list(members)
        assert report.reference_exponent == ref
        assert report.tail_exponent == tail
        assert report.exponents == exps

    @settings(max_examples=100, deadline=None)
    @given(cocycles(), st.integers(1, 40), st.integers(1, 200), st.data())
    def test_chunked_equals_unchunked(self, c, cadence, windows, data):
        # window ranks a block of steps at a time, block edges anywhere
        # against the cadence: the same products and the same logs as one
        # block (at most 6 * 150 windows) and as each row's own loop
        length = data.draw(st.integers(c.depth, 150))
        rows = np.array([w.symbols for w in admissible_words(
            data.draw, c.space, data.draw(st.integers(1, 6)), length)],
            dtype=np.uint8)
        n = data.draw(st.integers(1, length - c.depth + 1))
        with mock.patch.object(cocycle, "_RANK_WINDOWS", windows):
            got = exponents_along(c, rows, n, cadence)
        assert got == exponents_along(c, rows, n, cadence) == [
            power_of_two_exponent_along(c, r, n, cadence) for r in rows]
        assert_near_old_walk(c, got, unchunked_exponents_along(
            c, rows, n, cadence), n, cadence)

    @settings(max_examples=100, deadline=None)
    @given(cocycles(), st.integers(1, 40), st.data())
    def test_one_walk_equals_a_walk_per_length(self, c, cadence, data):
        # lengths in any order, repeated, on or off the cadence
        length = data.draw(st.integers(c.depth, 120))
        rows = np.array([w.symbols for w in admissible_words(
            data.draw, c.space, data.draw(st.integers(0, 4)), length)],
            dtype=np.uint8).reshape(-1, length)
        ns = data.draw(st.lists(st.integers(1, length - c.depth + 1),
                                min_size=1, max_size=4))
        assert cocycle._exponents_at(c, rows, ns, cadence) == [
            exponents_along(c, rows, n, cadence) for n in ns]

    @settings(max_examples=100, deadline=None)
    @given(cocycles(), st.integers(1, 200), st.integers(1, 200), st.data())
    def test_every_cadence_gives_the_same_bits(self, c, a, b, data):
        length = data.draw(st.integers(c.depth, 150))
        rows = np.array([w.symbols for w in admissible_words(
            data.draw, c.space, data.draw(st.integers(1, 4)), length)],
            dtype=np.uint8)
        n = data.draw(st.integers(1, length - c.depth + 1))
        assert exponents_along(c, rows, n, a) == exponents_along(c, rows, n, b)

    @settings(max_examples=100, deadline=None)
    @given(cocycles(), st.integers(1, 40), st.data())
    def test_stacked_row_equals_the_row_walked_alone(self, c, cadence, data):
        length = data.draw(st.integers(c.depth, 120))
        rows = np.array([w.symbols for w in admissible_words(
            data.draw, c.space, data.draw(st.integers(2, 6)), length)],
            dtype=np.uint8)
        n = data.draw(st.integers(1, length - c.depth + 1))
        assert exponents_along(c, rows, n, cadence) == [
            exponents_along(c, row[None], n, cadence)[0] for row in rows]

    @settings(max_examples=100, deadline=None)
    @given(cocycles(), st.integers(1, 40), st.data())
    def test_shared_steps_equal_gathered_steps(self, c, cadence, data):
        # rows copied from a few words share many steps; the second walk
        # multiplies every row by its own generator at every step
        length = data.draw(st.integers(c.depth, 120))
        words = admissible_words(data.draw, c.space,
                                 data.draw(st.integers(1, 3)), length)
        picks = data.draw(st.lists(st.integers(0, len(words) - 1),
                                   min_size=1, max_size=6))
        rows = np.array([words[i].symbols for i in picks], dtype=np.uint8)
        n = data.draw(st.integers(1, length - c.depth + 1))
        got = exponents_along(c, rows, n, cadence)
        with mock.patch.object(cocycle, "_shared_steps", lambda block, depth:
                               np.zeros(block.shape[1] - depth + 1, bool)):
            assert exponents_along(c, rows, n, cadence) == got

    @pytest.mark.parametrize("top", [[1e10, 0.0], [1e10, 1.0]])
    def test_overflow_names_row_step_and_cadence(self, top):
        # raised numpy's LinAlgError "SVD did not converge"
        c = MatrixCocycle(FULL2, {(0,): [[1e10, 0.0], [0.0, 1e-10]],
                                  (1,): [top, [0.0, 1e-10]]})
        rows = np.array([[0, 1] * 100, [1] * 200], dtype=np.uint8)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                SingularProduct, match=(
                    r"^row 0: the product of the first 64 generators has "
                    r"largest entry (inf|nan) \(scaled every 64 steps\)")):
            exponents_along(c, rows, 200, cadence=64)

    def test_underflow_names_row_step_and_cadence(self):
        # hit a math.log domain error
        c = MatrixCocycle.diagonal(FULL2, {0: [1e-10, 1e-10], 1: [1.0, 1.0]})
        rows = np.array([[1] * 200, [0] * 200], dtype=np.uint8)
        with pytest.raises(SingularProduct, match=re.escape(
                "row 1: the product of the first 64 generators has largest "
                "entry 0.0 (scaled every 64 steps)")):
            exponents_along(c, rows, 200, cadence=64)
        # the last scaling comes at n
        with pytest.raises(SingularProduct, match=re.escape(
                "row 1: the product of the first 200 generators")):
            exponents_along(c, rows, 200, cadence=1000)

    def test_thm1_3_at_n_12_matches_the_svd_walk(self):
        # 4,096 members of 2,565 steps: many blocks of window ranks, shared
        # steps after the prefix, and a scaling every 32 steps
        reports = []
        emit = cocycle.emit_lyapunov_family

        def recording(c, *args, **kwargs):
            reports.append((c, emit(c, *args, **kwargs)))
            return reports[-1][1]

        with mock.patch.object(cocycle, "emit_lyapunov_family", recording):
            result = experiments.REGISTRY["thm1_3_cocycle_family"][0](
                7, N=12, tail_len=2048)
        assert result.passed
        (c, report), = reports
        assert report.family_size == 2 ** 12
        n = report.horizon - (c.depth - 1)
        picks = np.random.default_rng(0).choice(report.family_size, 64,
                                                replace=False)
        assert_near_old_walk(
            c, [report.exponents[i] for i in picks],
            unchunked_exponents_along(c, report.members[picks], n), n)

    def test_cadence_must_be_positive(self):
        c = MatrixCocycle.constant(FULL2, np.eye(2))
        with pytest.raises(ValueError, match="cadence must be positive"):
            exponents_along(c, np.zeros((1, 4), dtype=np.uint8), 4, 0)

    def test_family_peak_memory_bounded(self):
        # the whole (n, rows) int64 window-rank matrix peaked at 36.9 MiB
        # here at N = 12 (4,097 rows of 529 symbols); blocks of at most
        # 2**17 ranks peak at 6.3 MiB
        c = MatrixCocycle(FULL2, {
            (0,): np.array([[1.2, 0.1], [0.0, 0.9]]),
            (1,): np.array([[0.7, 0.0], [0.2, 1.3]]),
        })
        mu = MarkovMeasure.bernoulli(FULL2, [0.5, 0.5])
        tracemalloc.start()
        try:
            report = emit_lyapunov_family(c, FULL2, mu, FULL2.parse("0101"),
                                          N=12, seed=7, tail_len=512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.family_size == 2 ** 12
        assert peak < 12 * 2**20

    def test_window_without_generator_named(self):
        c = MatrixCocycle(GOLDEN, {w.symbols: np.eye(2) for w in
                                   GOLDEN.words(2)}, depth=2)
        with pytest.raises(ValueError, match=r"window \(1, 1\) is not an "
                           r"admissible 2-word"):
            exponent_along(c, Word("01110"), 4)
        with pytest.raises(ValueError, match=r"window \(1, 2\) is not an "
                           r"admissible 2-word"):
            exponent_along(c, Word("0120"), 3)

    def test_cycle_of_64_symbols_at_depth_5(self):
        # the old stack held one matrix per base-64 code: 64**5 of them
        cycle = SftSpace(np.roll(np.eye(64, dtype=int), 1, axis=1))
        c = MatrixCocycle(cycle, {
            w.symbols: np.diag([2.0 if w.symbols[0] == 0 else 1.0, 1.0])
            for w in cycle.words(5)}, depth=5)
        assert c._stack.shape == (64, 2, 2)
        x = Word([i % 64 for i in range(132)])
        assert exponent_along(c, x, 128) == \
            power_of_two_exponent_along(c, x, 128)
        assert exponent_along(c, x, 128) == pytest.approx(math.log(4) / 128)
        # 64 words of each length: one necklace, at period 64, and one
        # doubled step in every 4 along any 8-word
        lower, upper = exponent_bracket(c, cycle, 4, 64)
        assert lower == pytest.approx(math.log(2) / 64)
        assert upper == pytest.approx(math.log(2) / 4)

    def test_inadmissible_anchor_named(self):
        c = MatrixCocycle.constant(GOLDEN, np.eye(2))
        mu = MarkovMeasure.periodic_orbit(GOLDEN, Word("01"))
        with pytest.raises(ValueError, match="forbidden transition 1->1"):
            emit_lyapunov_family(c, GOLDEN, mu, Word("011"), N=2, seed=1,
                                 tail_len=8)


BRACKET_SPACES = st.one_of(st.just(GOLDEN), primitive_spaces())


class TestWordTableBracketOracles:
    @settings(max_examples=40, deadline=None)
    @given(cocycles(BRACKET_SPACES), st.integers(1, 10), st.integers(1, 4))
    def test_bracket_equals_dfs(self, c, n, max_period):
        # keep the search small: at most 2,000 words of the longest length
        while n > 1 and c.space.count_words(n + c.depth - 1) > 2000:
            n -= 1
        lower, upper = exponent_bracket(c, c.space, n, max_period)
        dfs_lower, dfs_upper = dfs_exponent_bracket(c, c.space, n, max_period)
        assert lower == dfs_lower
        assert upper == pytest.approx(dfs_upper, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(BRACKET_SPACES, st.integers(1, 6))
    def test_cyclic_words_equal_filter(self, space, period):
        assert _cyclic_words(space, period) == \
            list(cyclic_words_filter(space, period))


class TestCocycleJson:
    @settings(max_examples=40, deadline=None)
    @given(cocycles())
    def test_round_trip(self, c):
        back = MatrixCocycle.from_json(c.space, c.to_json())
        assert (back.d, back.depth) == (c.d, c.depth)
        assert back.generators.keys() == c.generators.keys()
        for k, M in c.generators.items():
            assert np.array_equal(back.generators[k], M)
        w = sample_word(MarkovMeasure.periodic_orbit(c.space, Word("0")), 12, 0)
        assert exponent_along(back, w, 10) == exponent_along(c, w, 10)
