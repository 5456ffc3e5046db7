"""JSON round trips of the serialisable objects on random primitive spaces
with alphabets up to 12, where symbols 10 and 11 switch words to the
comma-separated text form, and the fields of the reports' JSON."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sftlab.chaos import dc1_report, li_yorke_report
from sftlab.cocycle import MatrixCocycle, emit_lyapunov_family
from sftlab.ergopt import Potential, random_potential
from sftlab.gluing import (GluingSchedule, build_gk_schedule,
                           validate_schedule)
from sftlab.measures import MarkovMeasure, MeasurePath, sample_word
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


def random_cocycle(draw, space):
    """Invertible generators of dimension 1-3 on the words of depth 1-2."""
    depth, d = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    entry = st.floats(-1.5, 1.5, allow_nan=False, allow_subnormal=False)
    gens = {w.symbols: np.array([[draw(entry) for _ in range(d)]
                                 for _ in range(d)]) + 4.0 * np.eye(d)
            for w in space.words(depth)}
    return MatrixCocycle(space, gens, depth)


def plain(value):
    """A field value as JSON reads it back: tuples as lists, dict keys as
    text."""
    if isinstance(value, (tuple, list)):
        return [plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    return value


def assert_every_field(report, left_out=()):
    data = json.loads(report.to_json())
    names = [f.name for f in dataclasses.fields(report)
             if f.name not in left_out]
    assert list(data) == names
    assert data == {k: plain(getattr(report, k)) for k in names}


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
        assert list(json.loads(f.to_json())) == ["table"]  # r: key length

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_measure_path(self, data):
        space = data.draw(primitive_spaces())
        path = MeasurePath([random_markov(data.draw, space)
                            for _ in range(data.draw(st.integers(1, 3)))])
        back = MeasurePath.from_json(space, path.to_json())
        assert back.space == space
        assert len(back.checkpoints) == len(path.checkpoints)
        for a, b in zip(back.checkpoints, path.checkpoints):
            assert np.array_equal(a.stochastic, b.stochastic)
            assert np.array_equal(a.stationary, b.stationary)
        assert back.to_json() == path.to_json()

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matrix_cocycle(self, data):
        space = data.draw(primitive_spaces())
        c = random_cocycle(data.draw, space)
        back = MatrixCocycle.from_json(space, c.to_json())
        assert (back.d, back.depth) == (c.d, c.depth)
        assert list(json.loads(c.to_json())) == ["generators"]
        assert back.generators.keys() == c.generators.keys()
        for k, M in c.generators.items():
            assert np.array_equal(back.generators[k], M)
        assert back.to_json() == c.to_json()

    def test_keys_of_two_lengths_are_named(self):
        # with "r" and "depth" beside the keys, an edited record failed
        # with "must cover exactly the admissible words", naming neither
        f = Potential.constant(FULL2, 1.0, 2)
        record = json.loads(f.to_json())
        record["table"]["101"] = record["table"].pop("10")
        with pytest.raises(ValueError, match=re.escape(
                "table keys must be words of one length, got '00' "
                "(length 2), '101' (length 3)")):
            Potential.from_json(FULL2, json.dumps(record))
        c = MatrixCocycle.constant(FULL2, [[2.0]])
        record = json.loads(c.to_json())
        record["generators"]["01"] = record["generators"].pop("1")
        with pytest.raises(ValueError, match=re.escape(
                "generators keys must be words of one length, got '0' "
                "(length 1), '01' (length 2)")):
            MatrixCocycle.from_json(FULL2, json.dumps(record))
        with pytest.raises(ValueError, match="got no key"):
            MatrixCocycle.from_json(FULL2, '{"generators": {}}')

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_gluing_schedule(self, data):
        space = data.draw(primitive_spaces())
        self.check_schedule(data, space)

    @settings(max_examples=10, deadline=None)
    @given(st.data())
    def test_gluing_schedule_past_ten_symbols(self, data):
        m = data.draw(st.sampled_from([11, 12]))
        space = data.draw(st.sampled_from(
            [SftSpace.full_shift(m), SftSpace(np.ones((m, m)) - np.eye(m))]))
        self.check_schedule(data, space)

    def check_schedule(self, data, space):
        """A schedule with or without an anchor, a family slot with or
        without its entropy and eta, and each stage's tour as built, empty
        or missing, survives the round trip, and its JSON is a fixed
        point."""
        path = MeasurePath([random_markov(data.draw, space)
                            for _ in range(data.draw(st.integers(1, 2)))])
        anchor = (admissible_word(data.draw, space,
                                  data.draw(st.integers(1, 3)))
                  if data.draw(st.booleans()) else None)
        sched = build_gk_schedule(space, path, anchor=anchor,
                                  stages=data.draw(st.integers(1, 2)))
        tour = data.draw(st.sampled_from(["built", None, Word(())]))
        if tour != "built":
            sched = dataclasses.replace(sched, stages=[
                dataclasses.replace(st_, tour=tour) for st_ in sched.stages])
        h = math.log(space.m)
        sched = dataclasses.replace(sched, **data.draw(st.sampled_from(
            [{}, dict(family_len=2), dict(family_len=6, family_entropy=h,
                                          family_eta=0.9 * h)])))
        assume(validate_schedule(sched).passed)
        text = sched.to_json()
        back = GluingSchedule.from_json(text)
        assert back.to_json() == text
        assert (back.space, back.gap, back.check_depth, back.anchor) == \
            (sched.space, sched.gap, sched.check_depth, sched.anchor)
        assert (back.family_len, back.family_entropy, back.family_eta) == \
            (sched.family_len, sched.family_entropy, sched.family_eta)
        for a, b in zip(back.stages, sched.stages, strict=True):
            assert np.array_equal(a.alpha.stochastic, b.alpha.stochastic)
            assert np.array_equal(a.alpha.stationary, b.alpha.stationary)
            assert dataclasses.replace(a, alpha=b.alpha) == b
        assert back.stage_ends() == sched.stage_ends()

    def test_gluing_schedule_eleven_symbols(self):
        # the one-symbol anchor (10,) was written "10" and read back as 1, 0
        space = SftSpace.full_shift(11)
        mu = MarkovMeasure.bernoulli(space, [1 / 11] * 11)
        sched = build_gk_schedule(space, mu, anchor=Word((10,)), stages=1)
        back = GluingSchedule.from_json(sched.to_json())
        assert back.anchor == Word((10,))
        assert back.to_json() == sched.to_json()


FULL2 = SftSpace.full_shift(2)


class TestReportFields:
    """Each report's JSON holds every dataclass field, in field order, as
    JSON reads it back; the Lyapunov report leaves out its member rows."""

    def pair(self, seed):
        mu = MarkovMeasure.bernoulli(FULL2, [0.5, 0.5])
        return sample_word(mu, 400, seed), sample_word(mu, 400, seed + 1)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**16))
    def test_dc1_report(self, seed):
        x, y = self.pair(seed)
        assert_every_field(dc1_report(x, y, 0.25, [0.5, 0.25, 0.125],
                                      [100, 200, 399]))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**16))
    def test_li_yorke_report(self, seed):
        x, y = self.pair(seed)
        assert_every_field(li_yorke_report(x, y, [100, 200, 399]))

    @settings(max_examples=5, deadline=None)
    @given(st.integers(0, 2**16))
    def test_lyapunov_family_report(self, seed):
        c = MatrixCocycle.diagonal(FULL2, {0: [2.0, 0.5], 1: [1.0, 1.5]})
        mu = MarkovMeasure.bernoulli(FULL2, [0.5, 0.5])
        rep = emit_lyapunov_family(c, FULL2, mu, Word("01"), 4, seed,
                                   tail_len=64)
        assert_every_field(rep, left_out=("members",))
