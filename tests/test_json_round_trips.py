"""JSON round trips of the serialisable objects on random primitive spaces
with alphabets up to 12, where symbols 10 and 11 switch words to the
comma-separated text form."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sftlab.ergopt import Potential, random_potential
from sftlab.gluing import GluingSchedule, build_gk_schedule
from sftlab.measures import MarkovMeasure
from sftlab.shift import SftSpace, Word


@st.composite
def primitive_spaces(draw, max_m=12):
    m = draw(st.integers(1, max_m))
    A = [[int(draw(st.integers(0, 5)) > 0) for _ in range(m)]
         for _ in range(m)]
    try:
        space = SftSpace(A)
    except ValueError:
        assume(False)
    assume(space.primitivity_index is not None)
    return space


def admissible_word(draw, space, length):
    syms = []
    for _ in range(length):
        options = space.successors(syms[-1]) if syms else range(space.m)
        syms.append(draw(st.sampled_from(list(options))))
    return space.word(syms)


def random_markov(draw, space):
    A = space.transition
    W = np.array([[draw(st.floats(0.05, 1.0)) if A[i, j] else 0.0
                   for j in range(space.m)] for i in range(space.m)])
    return MarkovMeasure(space, W / W.sum(axis=1, keepdims=True))


class TestWordText:
    @given(st.lists(st.integers(0, 11), max_size=6))
    def test_round_trip(self, symbols):
        w = Word(symbols)
        assert Word.from_text(w.to_text()) == w

    def test_one_symbol_word_past_nine(self):
        assert Word((10,)).to_text() == "10,"
        assert Word.from_text("10,") == Word((10,))
        assert Word((1, 0)).to_text() == "10"
        assert Word((11, 0)).to_text() == "11,0"


class TestJsonRoundTrips:
    @settings(max_examples=60, deadline=None)
    @given(primitive_spaces())
    def test_space(self, space):
        back = SftSpace.from_json(space.to_json())
        assert back == space and back.m == space.m

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_markov_measure(self, data):
        space = data.draw(primitive_spaces())
        mu = random_markov(data.draw, space)
        back = MarkovMeasure.from_json(space, mu.to_json())
        assert np.array_equal(back.stochastic, mu.stochastic)
        assert np.array_equal(back.stationary, mu.stationary)

    @settings(max_examples=60, deadline=None)
    @given(primitive_spaces(), st.integers(1, 2), st.integers(0, 2**16))
    def test_potential(self, space, r, seed):
        f = random_potential(space, r, seed, integer=seed % 2 == 0)
        back = Potential.from_json(space, f.to_json())
        assert back.r == f.r and back.table == f.table

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_gluing_schedule(self, data):
        space = data.draw(primitive_spaces())
        mu = random_markov(data.draw, space)
        anchor = (admissible_word(data.draw, space,
                                  data.draw(st.integers(1, 3)))
                  if data.draw(st.booleans()) else None)
        sched = build_gk_schedule(space, mu, anchor=anchor, stages=1,
                                  family_len=data.draw(st.integers(0, 3)))
        back = GluingSchedule.from_json(sched.to_json())
        assert back.to_json() == sched.to_json()
        assert back.anchor == sched.anchor
        assert back.stage_ends() == sched.stage_ends()
        assert [st_.tour for st_ in back.stages] == \
            [st_.tour for st_ in sched.stages]

    def test_gluing_schedule_eleven_symbols(self):
        # the one-symbol anchor (10,) was written "10" and read back as 1, 0
        space = SftSpace.full_shift(11)
        mu = MarkovMeasure.bernoulli(space, [1 / 11] * 11)
        sched = build_gk_schedule(space, mu, anchor=Word((10,)), stages=1)
        back = GluingSchedule.from_json(sched.to_json())
        assert back.anchor == Word((10,))
        assert back.to_json() == sched.to_json()
