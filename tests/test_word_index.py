"""The one word index: ``SftSpace.word_table`` and ``word_columns``, and the
potentials, block graphs and count columns that read them.

The per-word and dict forms the vector code replaced are kept here as
oracles, and every result must equal them exactly."""
import bisect
import functools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sftlab import ergopt, shift
from sftlab.analysis import birkhoff_avg
from sftlab.ergopt import (Potential, beta, block_graph, coboundary_shift,
                           pressure, random_potential)
from sftlab.gluing import dense_tour
from sftlab.measures import (MarkovMeasure, cylinder_weights, rng_from,
                             sample_word)
from sftlab.shift import (SftSpace, Word, _rank_table, _tail_counts, glue,
                          word_columns)
from word_oracles import dfs_words, nonprimitive_spaces, primitive_spaces

GOLDEN = SftSpace.golden_mean()
# primitive, not a full shift, three symbols
THREE = SftSpace([[0, 1, 0], [0, 0, 1], [1, 1, 1]])
SPACES = [GOLDEN, THREE] + [SftSpace.full_shift(m) for m in range(1, 7)]


# --------------------------- oracles: the replaced code ---------------------------


def per_word_random_potential(space, r, seed, low=-9, high=9, integer=True):
    """random_potential's table as it was drawn: one draw per word."""
    rng = rng_from(seed)
    table = {}
    for w in dfs_words(space, r):
        if integer:
            table[w.symbols] = float(rng.integers(low, high + 1))
        else:
            table[w.symbols] = float(rng.uniform(low, high))
    return table


def nested_loop_block_graph(space, ell):
    """(nodes, edges, src, dst) of block_graph as the index dict and the
    successor loop built them."""
    nodes = tuple(w.symbols for w in dfs_words(space, ell))
    index = {w: i for i, w in enumerate(nodes)}
    edges = []
    for i, u in enumerate(nodes):
        for b in space.successors(u[-1]):
            v = u[1:] + (b,)
            if v in index:
                edges.append((i, index[v], u + (b,)))
    uv = np.array([e[:2] for e in edges], dtype=np.intp).reshape(-1, 2)
    return nodes, tuple(edges), uv[:, 0], uv[:, 1]


def dict_scale(f, q):
    return {k: q * v for k, v in f.table.items()}


def dict_add_constant(f, c):
    return {k: v + c for k, v in f.table.items()}


def dict_constant(space, c, r):
    return {w.symbols: float(c) for w in dfs_words(space, r)}


def dict_indicator(space, word):
    return {w.symbols: 1.0 if w.symbols == word.symbols else 0.0
            for w in dfs_words(space, len(word))}


def dict_coboundary_shift(f, g):
    table = {}
    for w in dfs_words(f.space, max(f.r, g.r + 1)):
        s = w.symbols
        table[s] = f.table[s[:f.r]] + g.table[s[1:1 + g.r]] - g.table[s[:g.r]]
    return table


def rebuilt_word_columns(space, words):
    """word_columns as it rebuilt its code array from the word list on
    every call."""
    depth = words.shape[1]
    radix = space.m ** np.arange(depth - 1, -1, -1, dtype=np.int64)
    adm = np.array([w.symbols for w in dfs_words(space, depth)],
                   dtype=np.int64) @ radix
    codes = np.asarray(words, dtype=np.int64) @ radix
    cols = np.minimum(np.searchsorted(adm, codes), len(adm) - 1)
    bad = np.flatnonzero(adm[cols] != codes)
    if len(bad):
        raise ValueError(f"window {tuple(words[bad[0]].tolist())} is not an "
                         f"admissible {depth}-word")
    return cols


@functools.lru_cache(maxsize=None)
def sorted_words(space, length):
    """The admissible words sorted, not in enumeration order: a word's
    count rank is its bisect position."""
    return sorted(w.symbols for w in dfs_words(space, length))


def loop_birkhoff_avg(x, f, n):
    s = x.symbols
    return sum(f.table[s[i:i + f.r]] for i in range(n)) / n


# --------------------------- strategies ---------------------------


@st.composite
def potential_cases(draw):
    space = draw(st.sampled_from(SPACES))
    r = draw(st.integers(1, 3))
    low = draw(st.integers(-20, 20))
    high = draw(st.integers(low, low + 30))
    integer = draw(st.booleans())
    seed = draw(st.integers(0, 2 ** 32))
    return space, r, seed, low, high, integer


def admissible_rows(draw, space, depth, count):
    rows = []
    for _ in range(count):
        syms = [draw(st.integers(0, space.m - 1))]
        while len(syms) < depth:
            syms.append(draw(st.sampled_from(space.successors(syms[-1]))))
        rows.append(syms)
    return np.array(rows, dtype=np.int64).reshape(count, depth)


# --------------------------- the table ---------------------------


class TestWordTable:
    @pytest.mark.parametrize("space", SPACES, ids=repr)
    def test_rows_are_the_words_in_order(self, space):
        for length in (1, 2, 3):
            table = space.word_table(length)
            assert [tuple(row) for row in table.tolist()] == \
                [w.symbols for w in dfs_words(space, length)]
            assert table.dtype == np.int64 and not table.flags.writeable
            assert space.word_table(length) is table

    def test_nonpositive_length_raises(self):
        for length in (0, -1):
            with pytest.raises(ValueError, match="must be positive"):
                GOLDEN.word_table(length)

    def test_table_past_numpy_limit_named(self):
        # 2**57 words of length 57 pass the rank table's int64 check, and
        # numpy's raw "array is too big" used to escape the allocation
        with pytest.raises(ValueError, match=r"144115188075855872 admissible "
                           r"57-words: a table of 65716525762590277632 bytes"):
            SftSpace.full_shift(2).words(57)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(primitive_spaces(), nonprimitive_spaces()),
           st.integers(1, 7))
    def test_fill_equals_the_dfs_walk(self, space, length):
        table = space.word_table(length)
        assert [tuple(row) for row in table.tolist()] == \
            [w.symbols for w in dfs_words(space, length)]
        assert len(table) == space.count_words(length)
        assert list(space.words(length)) == list(dfs_words(space, length))

    def test_words_builds_the_table_at_the_call(self, monkeypatch):
        def forbid(A, tails):
            raise AssertionError(f"filled the {len(tails)}-words")

        monkeypatch.setattr(shift, "_fill_words", forbid)
        golden = SftSpace.golden_mean()  # no table cached yet
        with pytest.raises(AssertionError, match="filled the 3-words"):
            golden.words(3)
        assert list(golden.words(0)) == [Word(())]
        with pytest.raises(ValueError, match="must be non-negative"):
            golden.words(-1)
        with pytest.raises(ValueError, match="pass the int64 limit"):
            SftSpace.full_shift(2).words(64)

    def test_words_past_memory_raise_at_the_call(self):
        # 2**50 rows of 50 symbols: 400 PiB, past any address space, so the
        # allocation fails at once; the walk it replaced yielded lazily
        with pytest.raises(MemoryError):
            SftSpace.full_shift(2).words(50)

    def test_codes_past_int64_raise(self, monkeypatch):
        # a rank is a sum of L entries up to the word count K, so L * K must
        # stay below 2**63; the check reads the count, before any row is
        # filled
        def forbid(A, tails):
            raise AssertionError(f"filled the {len(tails)}-words")

        monkeypatch.setattr(shift, "_fill_words", forbid)
        with pytest.raises(ValueError, match=re.escape(
                f"{2**64} admissible 64-words: rank sums of 64 entries up to "
                f"{2**64} pass the int64 limit 2**63")):
            SftSpace.full_shift(2).word_table(64)
        A = SftSpace.full_shift(2).transition
        assert _rank_table(A, _tail_counts(A, 57)).shape == (57, 3, 2)
        with pytest.raises(ValueError, match=re.escape(  # 57 * 2**57 < 2**63
                f"{2**58} admissible 58-words")):
            _rank_table(A, _tail_counts(A, 58))

    def test_one_symbol_space_past_64_positions(self):
        one = SftSpace([[1]])
        for length in (63, 64, 100):
            assert one.word_table(length).tolist() == [[0] * length]
            assert word_columns(one, np.zeros((2, length), dtype=int)
                                ).tolist() == [0, 0]
        # two words of each length: 0101... ranks 0, 1010... ranks 1
        flip = SftSpace([[0, 1], [1, 0]])
        table = flip.word_table(62)
        ranks = flip._word_cache[62][1]
        assert ranks.shape == (62, 3, 2) and not ranks.flags.writeable
        assert ranks[0, 2].tolist() == [0, 1]  # any predecessor: 0 first
        assert (ranks[1:, [0, 1], [1, 0]] == 0).all()  # the one successor
        assert (ranks[1:, [0, 1], [0, 1]] == 2).all()  # forbidden: K
        assert word_columns(flip, table[::-1]).tolist() == [1, 0]
        with pytest.raises(ValueError, match="not an admissible 100-word"):
            word_columns(one, np.array([[0] * 99 + [1]]))

    @pytest.mark.parametrize("length", [11, 40])
    def test_cycle_past_the_base_m_limit(self, length):
        # 64**11 = 2**66 is past the int64 limit of base-m codes; the ranks
        # count only the 64 words
        cycle = SftSpace(np.roll(np.eye(64, dtype=int), 1, axis=1))
        table = cycle.word_table(length)
        assert len(table) == 64
        assert table[:, 0].tolist() == list(range(64))
        assert (np.diff(table, axis=1) % 64 == 1).all()
        assert word_columns(cycle, table[::-1]).tolist() == \
            list(range(63, -1, -1))
        with pytest.raises(ValueError, match=r"\(0, 2,"):
            word_columns(cycle, np.array([[0, 2] + [3] * (length - 2)]))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_rank_is_the_count_of_smaller_words(self, data):
        space = data.draw(st.sampled_from(SPACES))
        length = data.draw(st.integers(1, 5))
        rows = admissible_rows(data.draw, space, length,
                               data.draw(st.integers(1, 12)))
        smaller = sorted_words(space, length)
        assert word_columns(space, rows).tolist() == [
            bisect.bisect_left(smaller, tuple(row)) for row in rows.tolist()]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_word_columns_equal_rebuilt_oracle(self, data):
        space = data.draw(st.sampled_from(SPACES))
        depth = data.draw(st.integers(1, 3))
        count = data.draw(st.integers(0, 12))
        if data.draw(st.booleans()):
            rows = admissible_rows(data.draw, space, depth, count)
        else:
            rows = np.array(data.draw(st.lists(
                st.lists(st.integers(0, space.m - 1), min_size=depth,
                         max_size=depth), min_size=1, max_size=12)),
                dtype=np.int64)
        try:
            expected = rebuilt_word_columns(space, rows)
        except ValueError as e:
            with pytest.raises(ValueError, match=re.escape(str(e))):
                word_columns(space, rows)
        else:
            assert word_columns(space, rows).tolist() == expected.tolist()

    def test_symbols_outside_the_alphabet_are_named(self):
        # clipped into the alphabet, (0, 2) and (1, -1) would rank as the
        # admissible (0, 1) and (1, 0)
        for row in ([0, 2], [1, -1], [-1, 0], [1, 2]):
            with pytest.raises(ValueError, match=r"is not an admissible 2-word"):
                word_columns(GOLDEN, np.array([row]))
        # the first bad window is named, forbidden or outside
        for rows, named in (([[1, 1], [0, 2]], "(1, 1)"),
                            ([[0, 2], [1, 1]], "(0, 2)"),
                            ([[0, 0], [-1, 0], [1, 1]], "(-1, 0)")):
            with pytest.raises(ValueError, match=re.escape(named)):
                word_columns(GOLDEN, np.array(rows))
        with pytest.raises(ValueError, match=re.escape("(0, 1, 7)")):
            word_columns(GOLDEN, np.array([[0, 1, 7]], dtype=np.uint8))


# --------------------------- potentials ---------------------------


class TestPotentialVectors:
    @settings(max_examples=300, deadline=None)
    @given(potential_cases())
    def test_random_potential_equals_per_word_draws(self, case):
        space, r, seed, low, high, integer = case
        f = random_potential(space, r, seed, low=low, high=high,
                             integer=integer)
        expected = per_word_random_potential(space, r, seed, low, high,
                                             integer)
        assert dict(f.table) == expected
        assert list(f.table) == list(expected)  # lexicographic order
        assert f.values.tolist() == list(expected.values())

    @settings(max_examples=200, deadline=None)
    @given(potential_cases(), st.floats(-50, 50), st.floats(-50, 50))
    def test_arithmetic_equals_dict_forms(self, case, q, c):
        space, r, seed, low, high, integer = case
        f = random_potential(space, r, seed, low=low, high=high,
                             integer=integer)
        assert dict(f.scale(q).table) == dict_scale(f, q)
        assert dict(f.add_constant(c).table) == dict_add_constant(f, c)
        assert dict(Potential.constant(space, c, r).table) == \
            dict_constant(space, c, r)
        assert f.values.max() == max(f.table.values())

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_indicator_equals_dict_form(self, data):
        space = data.draw(st.sampled_from(SPACES))
        r = data.draw(st.integers(1, 3))
        word = Word(admissible_rows(data.draw, space, r, 1)[0].tolist())
        assert dict(Potential.indicator(space, word).table) == \
            dict_indicator(space, word)

    @settings(max_examples=200, deadline=None)
    @given(potential_cases(), st.integers(0, 2 ** 32))
    def test_coboundary_shift_equals_dict_form(self, case, seed2):
        space, r, seed, low, high, integer = case
        f = random_potential(space, r, seed, low=low, high=high,
                             integer=integer)
        g = random_potential(space, max(r - 1, 1), seed2, integer=integer)
        h = coboundary_shift(f, g)
        assert h.r == max(r, 2)
        assert dict(h.table) == dict_coboundary_shift(f, g)

    @settings(max_examples=100, deadline=None)
    @given(potential_cases())
    def test_dict_constructor_and_json_keep_the_values(self, case):
        space, r, seed, low, high, integer = case
        f = random_potential(space, r, seed, low=low, high=high,
                             integer=integer)
        table = dict(reversed(list(f.table.items())))  # any key order
        assert Potential(space, r, table).values.tolist() == f.values.tolist()
        back = Potential.from_json(space, f.to_json())
        assert back.values.tolist() == f.values.tolist()
        assert list(json.loads(f.to_json())["table"]) == \
            [Word(k).to_text() for k in f.table]

    def test_table_and_values_are_read_only(self):
        f = random_potential(GOLDEN, 2, seed=3)
        with pytest.raises(TypeError):
            f.table[(0, 0)] = 1.0
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    def test_dict_constructor_names_missing_and_extra(self):
        with pytest.raises(ValueError, match=r"missing 1, extra 0"):
            Potential(GOLDEN, 2, {(0, 0): 1.0, (0, 1): 2.0})
        with pytest.raises(ValueError, match=r"missing 1, extra 1"):
            Potential(GOLDEN, 2, {(0, 0): 1.0, (0, 1): 2.0, (1, 1): 3.0})
        with pytest.raises(ValueError, match=r"missing 0, extra 1"):
            Potential(GOLDEN, 1, {(0,): 1.0, (1,): 2.0, (0, 1): 3.0})

    @pytest.mark.parametrize("text", ["11", "12"])
    def test_indicator_of_a_forbidden_word_raises(self, text):
        # it used to return the all-zero potential, whose beta is 0.0
        window = re.escape(str(tuple(int(c) for c in text)))
        with pytest.raises(ValueError, match=window):
            Potential.indicator(GOLDEN, Word(text))

    def test_value_of_a_forbidden_window_raises(self):
        f = random_potential(GOLDEN, 2, seed=1)
        assert f.value((1, 0)) == f.table[(1, 0)]
        with pytest.raises(ValueError, match=r"\(1, 1\) is not an admissible"):
            f.value((1, 1))
        with pytest.raises(ValueError, match=r"\(1,\) is not an admissible 2"):
            f.value((1,))

    def test_operations_enumerate_no_words_after_the_first_table(
            self, monkeypatch):
        calls = []
        fill = shift._fill_words

        def counted(A, tails):
            calls.append(len(tails))
            return fill(A, tails)

        monkeypatch.setattr(shift, "_fill_words", counted)
        space = SftSpace.full_shift(3)
        f = random_potential(space, 2, seed=1)
        g = random_potential(space, 1, seed=2, integer=False)
        assert sorted(calls) == [1, 2]
        calls.clear()
        for trial in range(20):
            f = random_potential(space, 2, seed=trial)
            h = coboundary_shift(f.scale(0.5).add_constant(1.0), g)
            Potential.constant(space, 1.0, 2)
            Potential.indicator(space, Word("12"))
            f.value((2, 1))
            f.values.max()
            beta(space, h)
            pressure(space, g)
            Potential.from_json(space, h.to_json())
        assert calls == []


# --------------------------- block graphs ---------------------------


class TestBlockGraphTable:
    @pytest.mark.parametrize("space", SPACES, ids=repr)
    def test_equals_nested_loop_oracle(self, space):
        for ell in (1, 2, 3):
            if space.m ** ell > 216:
                continue
            g = block_graph(space, ell)
            nodes, edges, src, dst = nested_loop_block_graph(space, ell)
            words = space.word_table(ell + 1).tolist()
            assert g.n_nodes() == len(nodes)
            assert tuple(map(tuple, space.word_table(ell).tolist())) == nodes
            assert tuple(zip(g.src.tolist(), g.dst.tolist(),
                             map(tuple, words))) == edges
            assert g.src.tolist() == src.tolist()
            assert g.dst.tolist() == dst.tolist()

    def test_cached_on_the_space_not_globally(self):
        a, b = SftSpace.full_shift(2), SftSpace.full_shift(2)
        assert block_graph(a, 2) is block_graph(a, 2)
        assert block_graph(b, 2) is not block_graph(a, 2)
        assert not hasattr(ergopt, "_BLOCK_CACHE")

    @settings(max_examples=100, deadline=None)
    @given(potential_cases())
    def test_edge_values_equal_edge_word_lookups(self, case):
        space, r, seed, low, high, integer = case
        f = random_potential(space, r, seed, low=low, high=high,
                             integer=integer)
        g = block_graph(space, max(r - 1, 1))
        assert ergopt._edge_values(g, f.r, f.values).tolist() == \
            [f.table[tuple(ew[:f.r])]
             for ew in space.word_table(g.ell + 1).tolist()]


# --------------------------- Birkhoff averages ---------------------------


class TestBirkhoffWindows:
    def test_forbidden_window_is_named(self):
        f = random_potential(GOLDEN, 2, seed=1)
        with pytest.raises(ValueError, match=r"\(1, 1\) is not an admissible"):
            birkhoff_avg(Word("0110"), f, 3)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_the_window_loop(self, data):
        space = data.draw(st.sampled_from([GOLDEN, THREE,
                                           SftSpace.full_shift(3)]))
        r = data.draw(st.integers(1, 3))
        f = random_potential(space, r, data.draw(st.integers(0, 999)),
                             integer=data.draw(st.booleans()))
        row = admissible_rows(data.draw, space,
                              data.draw(st.integers(r, 60)), 1)[0]
        x = Word(row.tolist())
        n = data.draw(st.integers(1, len(x) - r + 1))
        assert birkhoff_avg(x, f, n) == loop_birkhoff_avg(x, f, n)

    def test_long_sampled_word_equals_the_window_loop(self):
        mu = MarkovMeasure.bernoulli(SftSpace.full_shift(3), [0.2, 0.3, 0.5])
        x = Word(sample_word(mu, 5000, seed=4))
        f = random_potential(mu.space, 3, seed=5, integer=False)
        assert birkhoff_avg(x, f, 4998) == loop_birkhoff_avg(x, f, 4998)


def test_cylinder_weights_unchanged_by_the_table():
    # the (length, lex) enumeration and its weights, as the loop built them
    for space in (GOLDEN, THREE):
        out, j = [], 0
        for length in (1, 2, 3):
            for w in dfs_words(space, length):
                j += 1
                out.append((w.symbols, 2.0 ** (-(j + 1))))
        assert cylinder_weights(space, 3) == out


# --------------------------- covering tours ---------------------------


def node_dict_dense_tour(space, depth):
    """dense_tour as it built its own node dict and walked edge pointers."""
    words = list(dfs_words(space, depth))
    targets = [w.symbols for w in words]
    if depth >= 2:
        nodes = {w.symbols: i
                 for i, w in enumerate(dfs_words(space, depth - 1))}
        edges = [(nodes[t[:-1]], nodes[t[1:]], eid)
                 for eid, t in enumerate(targets)]
        n = len(nodes)
        out_deg, in_deg = [0] * n, [0] * n
        adj = [[] for _ in range(n)]
        for u, v, eid in edges:
            out_deg[u] += 1
            in_deg[v] += 1
            adj[u].append((v, eid))
        circuit = None
        if out_deg == in_deg:
            for lst in adj:
                lst.sort()
            ptr = [0] * n
            stack, edge_stack, path = [min(u for u, _, _ in edges)], [], []
            while stack:
                v = stack[-1]
                if ptr[v] < len(adj[v]):
                    nxt, eid = adj[v][ptr[v]]
                    ptr[v] += 1
                    stack.append(nxt)
                    edge_stack.append(eid)
                else:
                    stack.pop()
                    if edge_stack:
                        path.append(edge_stack.pop())
            if len(path) == len(edges):
                circuit = path[::-1]
        if circuit is not None:
            syms = list(targets[circuit[0]])
            for eid in circuit[1:]:
                syms.append(targets[eid][-1])
            return space.word(syms)
    return glue(space, words, space.primitivity_index)


@pytest.mark.parametrize("space", [GOLDEN, THREE, SftSpace.full_shift(2),
                                   SftSpace.full_shift(3),
                                   SftSpace([[1, 1, 0], [0, 1, 1], [1, 1, 1]])],
                         ids=repr)
def test_dense_tour_equals_node_dict_oracle(space):
    for depth in (1, 2, 3, 4):
        assert dense_tour(space, depth) == node_dict_dense_tour(space, depth)
