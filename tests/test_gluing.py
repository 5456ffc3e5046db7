import contextlib
import dataclasses
import itertools
import json
import math
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from typing import NamedTuple, Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sftlab import ergopt, experiments, gluing, measures
from sftlab.analysis import empirical
from sftlab.chaos import (close_gap, dc1_report, gap_windows,
                          li_yorke_report, orbit_distances, phi_n)
from sftlab.errors import (BadCheckpoints, FamilyNotSeparated,
                           InfeasibleParams, LeafOutOfRange,
                           MalformedSchedule, MalformedTree, NotPrimitive,
                           OrbitsNotDisjoint, SpaceMismatch, WordsTooShort)
from sftlab.experiments import _sampled_leaf_checks, run_experiment
from sftlab.gluing import (LEAF_ENUMERATION_CAP, BranchTree, ChaoticFamily,
                           CheckEntry,
                           FamilyTrackingReport, GluingSchedule, Stage,
                           TrackingRow, TreeComponent, TreeStage,
                           ValidationReport, _emit_two_orbit,
                           _stage_words, build_branch_tree, build_gk_schedule,
                           check_budgets, dense_tour,
                           emit_chaotic_family, emit_dc1_family, emit_point,
                           emit_separated_family, family_tracking_report,
                           member_prefix_len, tracking_bound,
                           tracking_report, validate_schedule)
from sftlab.measures import (MarkovMeasure, MeasurePath, ks_entropy,
                             sample_word, typical_separated_family,
                             weak_star_dist)
from sftlab.shift import SftSpace, Word, glue, glue_spans, separated_count

from chaos_oracles import bridged_two_orbit, simulated_chaotic_family
from dict_empirical import DictEmpiricalMeasure
from measure_oracles import per_step_sample_word, word_draw_block
from word_oracles import (contains_all_words, iglue, iglue_two_orbit,
                          orbit_gap_loop)

FULL2 = SftSpace.full_shift(2)
GOLDEN = SftSpace.golden_mean()

B05 = MarkovMeasure.bernoulli(FULL2, [0.5, 0.5])
B09 = MarkovMeasure.bernoulli(FULL2, [0.1, 0.9])
POINT0 = MarkovMeasure.periodic_orbit(FULL2, Word("0"))


class TestDenseTour:
    def test_de_bruijn_on_full_shift(self):
        tour = dense_tour(FULL2, 2)
        assert len(tour) == 5  # Eulerian: 4 edges + overlap
        assert contains_all_words(FULL2, tour, 2)

    def test_depth_three_full_shift(self):
        tour = dense_tour(FULL2, 3)
        assert len(tour) == 10
        assert contains_all_words(FULL2, tour, 3)

    def test_golden_mean_tours(self):
        for depth in (1, 2, 3, 4):
            tour = dense_tour(GOLDEN, depth)
            assert GOLDEN.is_admissible(tour.symbols)
            assert contains_all_words(GOLDEN, tour, depth)

    def test_unbalanced_block_graph_falls_back(self):
        # primitive but with unbalanced in/out degrees at depth 2
        space = SftSpace([[0, 1, 0], [0, 0, 1], [1, 1, 1]])
        assert space.primitivity_index is not None
        for depth in (1, 2, 3):
            tour = dense_tour(space, depth)
            assert space.is_admissible(tour.symbols)
            assert contains_all_words(space, tour, depth)


class TestScheduleBasics:
    def test_single_point_mass_block(self):
        sched = GluingSchedule(space=FULL2, stages=[
            Stage(alpha=POINT0, n=5, reps=2, tour=None, zeta=0.5, eps=0.5,
                  depth=1)])
        stream = emit_point(sched, seed=0)
        assert Word(stream.materialize(10)) == Word("0000000000")

    def test_anchor_prefix_contract(self):
        sched = build_gk_schedule(FULL2, B05, anchor=FULL2.parse("01"),
                                  stages=2)
        w = emit_point(sched, seed=1).materialize(40)
        assert w[:2].tolist() == [0, 1]

    def test_emitted_streams_admissible(self):
        sched = build_gk_schedule(GOLDEN, parry(GOLDEN), stages=2)
        w = emit_point(sched, seed=2).materialize(600)
        assert len(w) == 600 and GOLDEN.is_admissible(w)

    def test_deterministic_and_prefix_stable(self):
        sched = build_gk_schedule(FULL2, B09, stages=2)
        a = emit_point(sched, seed=3).materialize(500)
        b = emit_point(sched, seed=3).materialize(500)
        assert Word(a) == Word(b)
        stream = emit_point(sched, seed=3)
        short = stream.materialize(100)
        assert Word(stream.materialize(500)[:100]) == Word(short)

    def test_tour_blocks_cover_cylinders(self):
        sched = build_gk_schedule(FULL2, B05, stages=2)
        ends = sched.stage_ends()
        w = Word(emit_point(sched, seed=4).materialize(ends[-1]))
        subs = {w.symbols[i:i + 2] for i in range(len(w) - 1)}
        assert subs == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_json_round_trip(self):
        sched = build_gk_schedule(FULL2, B09, anchor=FULL2.parse("0110"),
                                  stages=2, family_len=6,
                                  family_entropy=math.log(2), family_eta=0.35)
        again = GluingSchedule.from_json(sched.to_json())
        assert again.stage_ends() == sched.stage_ends()
        assert validate_schedule(again).passed
        w1 = emit_point(sched, seed=9, family_word=Word("010101")).materialize(200)
        w2 = emit_point(again, seed=9, family_word=Word("010101")).materialize(200)
        assert Word(w1) == Word(w2)

    def test_json_lowered_reps_rejected_on_load(self):
        sched = build_gk_schedule(FULL2, B05, stages=2)
        lowered = GluingSchedule(space=FULL2, stages=[
            sched.stages[0], dataclasses.replace(sched.stages[1], reps=1)])
        first = validate_schedule(lowered).failures()[0]
        data = json.loads(sched.to_json())
        data["stages"][1]["reps"] = 1
        message = (f"{first.name} at stage {first.stage}: "
                   f"lhs={first.lhs} rhs={first.rhs}")
        with pytest.raises(InfeasibleParams, match=re.escape(message)):
            GluingSchedule.from_json(json.dumps(data))


class TestValidation:
    def test_builder_output_passes(self):
        for stages in (1, 2, 3):
            sched = build_gk_schedule(FULL2, B05, stages=stages)
            report = validate_schedule(sched)
            assert report.passed, report.failures()

    def test_stage_one_planned_from_the_member_prefix(self):
        # the 12 slot symbols and the bridge into the tail are a 13-symbol
        # member prefix; planned from the 12 alone, stage 1 came out one
        # block short and was repaired after validation
        sched = build_gk_schedule(GOLDEN, parry(GOLDEN), stages=1,
                                  family_len=12)
        entry = validate_schedule(sched).entry("prefix_domination", 1)
        assert entry.lhs == member_prefix_len(sched) == 13
        assert entry.passed and validate_schedule(sched).passed
        assert [st.reps for st in sched.stages] == [2]
        assert sched.stage_ends() == [34]

    def test_first_failure_raised_without_repair(self):
        # a 10-symbol anchor burns more than a 4-symbol slot can repay
        lhs = 4 * (0.4 - 0.1) - math.log(10)
        rhs = (10 + 4) * (0.4 - 2 * 0.1)
        with pytest.raises(InfeasibleParams, match=re.escape(
                f"family_margin: lhs={lhs} rhs={rhs}")):
            build_gk_schedule(FULL2, B05, anchor=Word("0" * 10), stages=1,
                              family_len=4, family_entropy=0.4,
                              family_eta=0.1)

    def test_degenerate_reps_rejected(self):
        tours = [dense_tour(FULL2, 1), dense_tour(FULL2, 2)]
        stages = [
            Stage(alpha=B05, n=16, reps=1, tour=tours[0], zeta=0.5,
                  eps=0.5, depth=1),
            Stage(alpha=B05, n=32, reps=1, tour=tours[1], zeta=0.25,
                  eps=0.25, depth=2),
        ]
        sched = GluingSchedule(space=FULL2, stages=stages,
                               anchor=FULL2.parse("01010101"))
        report = validate_schedule(sched)
        assert not report.passed
        failed = {e.name for e in report.failures()}
        assert "prefix_domination" in failed
        entry = report.entry("prefix_domination", stage=2)
        assert entry.lhs > entry.rhs  # the reported slack is visible

    def test_empty_schedule_vacuous(self):
        sched = GluingSchedule(space=FULL2, stages=[])
        report = validate_schedule(sched)
        assert report.passed
        assert len(report.entries) == 0

    def test_empty_anchor_counts_as_none(self):
        kw = dict(family_len=4, family_entropy=0.4, family_eta=0.1)
        empty = build_gk_schedule(GOLDEN, parry(GOLDEN), anchor=Word(()),
                                  **kw)
        none = build_gk_schedule(GOLDEN, parry(GOLDEN), anchor=None, **kw)
        assert empty.stage_ends() == none.stage_ends()
        assert validate_schedule(empty) == validate_schedule(none)
        assert validate_schedule(empty).passed

    def test_not_primitive_rejected(self):
        flip = SftSpace([[0, 1], [1, 0]])
        with pytest.raises(NotPrimitive):
            GluingSchedule(space=flip, stages=[])

    def test_no_stages_named_at_every_entry_point(self):
        sched = GluingSchedule(space=FULL2, stages=[], anchor=Word("01"))
        fam = [Word("0"), Word("1")]
        calls = [sched.stage_ends,
                 lambda: emit_point(sched, seed=1).materialize(5),
                 lambda: tracking_report(sched, seed=1, checkpoints=[3]),
                 lambda: emit_separated_family(sched, fam, 8, seed=1),
                 lambda: family_tracking_report(sched, fam, seed=1,
                                                checkpoints=[3])]
        for call in calls:
            with pytest.raises(MalformedSchedule, match="has no stages"):
                call()


def parry(space):
    phi = (1 + math.sqrt(5)) / 2
    return MarkovMeasure(space, [[1 / phi, 1 / phi ** 2], [1.0, 0.0]])


class TestTracking:
    def test_single_block_bound_is_zeta_plus_eps(self):
        sched = GluingSchedule(space=FULL2, stages=[
            Stage(alpha=B09, n=64, reps=1, tour=None, zeta=0.125, eps=0.0625,
                  depth=1)])
        assert tracking_bound(sched, 64) == pytest.approx(0.125 + 0.0625)

    def test_bound_nonincreasing_at_stage_ends(self):
        sched = build_gk_schedule(FULL2, B09, stages=3)
        ends = sched.stage_ends()
        bounds = [tracking_bound(sched, n) for n in ends]
        assert all(a >= b - 1e-12 for a, b in zip(bounds, bounds[1:]))

    def test_observed_never_exceeds_bound(self):
        # soundness of the empirical-tracking estimate, single target
        sched = build_gk_schedule(FULL2, B09, stages=3)
        rows = tracking_report(sched, seed=8)
        assert len(rows) == 3
        for row in rows:
            assert row.ok, (row.n, row.observed, row.bound)

    def test_observed_never_exceeds_bound_on_path(self):
        a = MarkovMeasure.bernoulli(FULL2, [0.7, 0.3])
        b = MarkovMeasure.bernoulli(FULL2, [0.3, 0.7])
        sched = build_gk_schedule(FULL2, MeasurePath([a, b]), stages=3)
        for row in tracking_report(sched, seed=9):
            assert row.ok, (row.n, row.observed, row.bound)

    def test_anchored_schedule_tracks_too(self):
        sched = build_gk_schedule(FULL2, B09, anchor=FULL2.parse("0011"),
                                  stages=2)
        for row in tracking_report(sched, seed=10):
            assert row.ok

    def test_golden_mean_tracking(self):
        mu = parry(GOLDEN)
        sched = build_gk_schedule(GOLDEN, mu, stages=2)
        for row in tracking_report(sched, seed=11):
            assert row.ok


class TestSeparatedFamily:
    def make_sched(self, fam_n, eta):
        return build_gk_schedule(
            FULL2, B09, anchor=FULL2.parse("0101"), stages=2,
            family_len=fam_n, family_entropy=ks_entropy(B05), family_eta=eta)

    def test_cardinality_and_separation_exact(self):
        fam = typical_separated_family(B05, 10, 0.05, 0.3, seed=13)
        sched = self.make_sched(10, 0.3)
        out = emit_separated_family(sched, fam, horizon=80, seed=13)
        assert len(out) == len(fam)
        n_sep = member_prefix_len(sched)
        assert separated_count(out, n_sep, 1) == len(fam)

    def test_prefix_len_is_tail_start_on_gap_two(self):
        sched = build_gk_schedule(GOLDEN, parry(GOLDEN), anchor=Word("010"),
                                  stages=1, family_len=4)
        fam = [Word("0100"), Word("0010"), Word("1001")]
        p = member_prefix_len(sched)
        assert p == 3 + 1 + 4 + 1  # anchor, bridge, slot, bridge
        out = emit_separated_family(sched, fam, horizon=p + 40, seed=4)
        assert out.shape == (3, p + 40) and not out.flags.writeable
        assert len({w[p:].tobytes() for w in out}) == 1
        assert len({w[p - 2:p].tobytes() for w in out}) > 1  # slot's last

    def test_horizon_must_cover_bridged_slot(self):
        # anchor 3 + bridge 1 + slot 4 = 8 symbols; a horizon of 7 would cut
        # the slot and emit 0100 and 0101 both as 0100010
        sched = build_gk_schedule(GOLDEN, parry(GOLDEN), anchor=Word("010"),
                                  stages=1, family_len=4)
        fam = [Word("0100"), Word("0101")]
        with pytest.raises(WordsTooShort, match="horizon 7 below prefix"
                           " length 8"):
            emit_separated_family(sched, fam, horizon=7, seed=4)
        out = emit_separated_family(sched, fam, horizon=8, seed=4)
        assert len(set(map(Word, out))) == 2

    def test_single_member(self):
        sched = self.make_sched(6, 0.3)
        out = emit_separated_family(sched, [Word("010101")], horizon=60, seed=1)
        assert len(out) == 1

    def test_duplicates_rejected(self):
        sched = self.make_sched(8, 0.4)
        with pytest.raises(FamilyNotSeparated):
            emit_separated_family(sched, [Word("01010101"), Word("01010101")],
                                  horizon=40, seed=1)

    def test_rate_arithmetic(self):
        # log r / (anchor + n) >= h - 2 eta for the achieved family
        eta = 0.25
        n = 12
        fam = typical_separated_family(B05, n, 0.05, eta, seed=14)
        anchor_len = 4
        rate = math.log(len(fam)) / (anchor_len + n)
        assert rate >= ks_entropy(B05) - 2 * eta

    def test_family_tracking_matches_direct(self):
        fam = typical_separated_family(B05, 8, 0.1, 0.4, seed=15)[:6]
        sched = self.make_sched(8, 0.4)
        report = family_tracking_report(sched, fam, seed=15)
        # oracle: direct per-member empirical measures at each checkpoint
        L = sched.check_depth
        for i, w in enumerate(map(Word, fam)):
            stream = emit_point(sched, seed=15, family_word=w)
            for j, n in enumerate(report.checkpoints):
                word = stream.materialize(n + L - 1)
                direct = weak_star_dist(
                    empirical(FULL2, word, n, L), sched.stretched_alpha(n), L)
                assert report.rows[i][j] == pytest.approx(direct, abs=1e-12)
        assert report.all_ok


def per_member_emit_separated_family(s, family, horizon, seed):
    """Oracle for emit_separated_family: each member's own stream, which
    redraws the stage tail, as a list of Words."""
    return [Word(emit_point(s, seed, family_word=w).materialize(horizon))
            for w in family]


def counter_family_tracking_report(s, family, seed, checkpoints=None):
    """Oracle for family_tracking_report: one Counter and one dict
    empirical measure per member per checkpoint, over the member's prefix
    windows that start before the checkpoint plus the shared tail windows."""
    fam = list(family)
    cps = sorted(checkpoints) if checkpoints is not None else s.stage_ends()
    L = s.check_depth
    space = s.space
    tail = list(itertools.islice(iglue(space, _stage_words(s, seed), s.gap),
                                 cps[-1] + L))
    anchor = s.anchor if s.anchor is not None else Word(())
    tail_head = Word(tail[:1])

    def member_prefix(w):
        return list(glue(space, (anchor, w, tail_head), s.gap).symbols[:-1])

    p = len(member_prefix(fam[0]))
    tail_counts = []
    counter = Counter()
    pos = 0
    for n in cps:
        while pos < n - p:
            counter[tuple(tail[pos:pos + L])] += 1
            pos += 1
        tail_counts.append(counter.copy())
    targets = [s.stretched_alpha(n) for n in cps]
    rows = []
    for w in fam:
        head = member_prefix(w) + tail[:L - 1]
        row = []
        for n, tc, target in zip(cps, tail_counts, targets):
            pre_counts = Counter(tuple(head[i:i + L])
                                 for i in range(min(n, p)))
            emp = DictEmpiricalMeasure(space, L, dict(pre_counts + tc))
            row.append(weak_star_dist(emp, target, L))
        rows.append(tuple(row))
    return FamilyTrackingReport(
        checkpoints=tuple(cps),
        bounds=tuple(tracking_bound(s, n) for n in cps),
        observed_max=tuple(max(r[i] for r in rows) for i in range(len(cps))),
        rows=tuple(rows))


# The last space is primitive but not a full shift, and its bridges depend
# on both neighbouring symbols.
FAMILY_SPACES = [FULL2, GOLDEN, SftSpace.full_shift(3),
                 SftSpace([[0, 1, 0], [0, 0, 1], [1, 1, 1]])]


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


@st.composite
def family_cases(draw):
    """A hand-built schedule with a random family and checkpoints.  zeta=1
    accepts every block draw, so examples spend their time on gluing and
    counting; stage measures differ, so the tracking target moves."""
    space = draw(st.sampled_from(FAMILY_SPACES))
    L = draw(st.integers(1, 3))
    stages = [Stage(alpha=random_markov(draw, space),
                    n=draw(st.integers(max(L, 1), 10)),
                    reps=draw(st.integers(1, 3)),
                    tour=draw(st.sampled_from(
                        [None, dense_tour(space, 1), dense_tour(space, 2)])),
                    zeta=1.0, eps=0.5, depth=1)
              for _ in range(draw(st.integers(1, 2)))]
    anchor = (admissible_word(draw, space, draw(st.integers(1, 3)))
              if draw(st.booleans()) else None)
    N = draw(st.integers(0, 4))
    family = draw(st.lists(st.sampled_from(list(space.words(N))),
                           min_size=1, max_size=6, unique=True))
    gap = space.primitivity_index + draw(st.integers(0, 1))
    sched = GluingSchedule(
        space=space, stages=stages, anchor=anchor, family_len=N,
        check_depth=L, gap=gap)
    checkpoints = draw(st.one_of(st.none(), st.lists(
        st.one_of(st.integers(1, 15), st.integers(1, 120)),
        min_size=1, max_size=5)))
    need = glue_spans((len(anchor) if anchor else 0, N), gap)[-1][1]
    horizon = need + draw(st.integers(0, 30))
    return sched, family, checkpoints, horizon, draw(st.integers(0, 2**16))


class TestSharedTailFamily:
    @settings(max_examples=200, deadline=None)
    @given(family_cases())
    def test_equals_per_member_oracles(self, case):
        sched, family, checkpoints, horizon, seed = case
        want = per_member_emit_separated_family(sched, family, horizon, seed)
        rows = np.array([w.symbols for w in family],
                        dtype=np.uint8).reshape(len(family), -1)
        oracle = counter_family_tracking_report(sched, family, seed,
                                                checkpoints)
        for fam in (family, rows):  # words, or the rows of a symbol array
            out = emit_separated_family(sched, fam, horizon, seed)
            assert out.shape == (len(family), horizon)
            assert list(map(Word, out)) == want
            # blocks of 1 and 4 members: block edges fall inside the family
            for block in (1, 4, gluing._TRACK_BLOCK):
                with mock.patch.object(gluing, "_TRACK_BLOCK", block):
                    got = family_tracking_report(sched, fam, seed,
                                                 checkpoints)
                assert got.rows.shape == (len(family), len(got.checkpoints))
                assert not got.rows.flags.writeable
                assert got == oracle  # all but rows
                assert got.rows.tolist() == list(map(list, oracle.rows))

    def test_checkpoints_below_prefix_match_direct(self):
        fam = typical_separated_family(B05, 9, 0.1, 0.4, seed=15)[:4]
        sched = build_gk_schedule(
            FULL2, B09, anchor=FULL2.parse("0101"), stages=2,
            family_len=9, family_entropy=ks_entropy(B05), family_eta=0.4)
        p = member_prefix_len(sched)
        assert p == 13
        cps = [1, 5, p - 1, p, p + 1, *sched.stage_ends()]
        report = family_tracking_report(sched, fam, seed=15, checkpoints=cps)
        for w, row in zip(map(Word, fam), report.rows):
            direct = tracking_report(sched, seed=15, checkpoints=cps,
                                     family_word=w)
            assert list(row) == [r.observed for r in direct]
        # every checkpoint inside the prefix: no tail window is read
        report = family_tracking_report(sched, fam, seed=15,
                                        checkpoints=[1, 5, p])
        for w, row in zip(map(Word, fam), report.rows):
            oracle = per_point_tracking_report(sched, 15, [1, 5, p], w)
            assert list(row) == [r.observed for r in oracle]

    def test_tail_drawn_once_per_family(self, monkeypatch):
        sched = build_gk_schedule(
            FULL2, B09, anchor=FULL2.parse("0101"), stages=2,
            family_len=8, family_entropy=ks_entropy(B05), family_eta=0.4)
        fam = typical_separated_family(B05, 8, 0.1, 0.4, seed=15)[:6]
        calls = []
        draw = gluing._draw_block
        monkeypatch.setattr(gluing, "_draw_block",
                            lambda *a: calls.append(a) or draw(*a))
        horizon = member_prefix_len(sched) + 2
        emit_separated_family(sched, fam[:1], horizon, seed=3)
        single = len(calls)
        emit_separated_family(sched, fam, horizon, seed=3)
        assert len(calls) == 2 * single
        calls.clear()
        family_tracking_report(sched, fam, seed=3)
        whole_tail = len(calls)
        calls.clear()
        family_tracking_report(sched, fam[:1], seed=3)
        assert len(calls) == whole_tail

    def test_forbidden_member_named(self):
        sched = build_gk_schedule(GOLDEN, parry(GOLDEN), stages=1,
                                  family_len=4)
        with pytest.raises(ValueError, match=r"'0110'.*1->1 at position 2"):
            emit_separated_family(sched, [Word("0100"), Word("0110")],
                                  horizon=20, seed=2)

    def test_forbidden_anchor_named_and_member_after_an_anchor(self):
        # a position counts within the word named
        sched = build_gk_schedule(GOLDEN, parry(GOLDEN), anchor=Word("0"),
                                  stages=1, family_len=4)
        with pytest.raises(ValueError, match=r"^member '0110' has a "
                           r"forbidden transition 1->1 at position 2$"):
            emit_separated_family(sched, [Word("0100"), Word("0110")],
                                  horizon=30, seed=2)
        bad = dataclasses.replace(sched, anchor=Word("011"))
        with pytest.raises(ValueError, match=r"^anchor '011' has a "
                           r"forbidden transition 1->1 at position 2$"):
            emit_separated_family(bad, [Word("0100")], horizon=30, seed=2)

    def test_bad_checkpoints_named(self):
        sched = build_gk_schedule(FULL2, B09, stages=2, family_len=4)
        fam = [Word("0101"), Word("0011")]
        for cps, message in (([], "no tracking checkpoints"),
                             ([5, 0], "got 0"), ([-3, 8], "got -3")):
            with pytest.raises(BadCheckpoints, match=message):
                family_tracking_report(sched, fam, seed=3, checkpoints=cps)
            with pytest.raises(BadCheckpoints, match=message):
                tracking_report(sched, seed=3, checkpoints=cps)
        no_stages = GluingSchedule(space=FULL2, stages=[])
        with pytest.raises(BadCheckpoints):
            tracking_report(no_stages, seed=3)


class Segment(NamedTuple):
    kind: str                 # anchor | family | connector | block | tour
    length: int
    stage: Optional[int]
    rep: Optional[int] = None


def walk_segments(s):
    """Oracle for GluingSchedule.layout: the segment walker it replaced,
    which kept its own bridge count and lists bridges as connector
    segments.  Infinite: past the built stages the last one repeats."""
    conn = s.gap - 1
    first = True

    def bridge():
        nonlocal first
        if not first and conn > 0:
            yield Segment("connector", conn, None)
        first = False

    if s.anchor is not None and len(s.anchor):
        yield from bridge()
        yield Segment("anchor", len(s.anchor), None)
    if s.family_len > 0:
        yield from bridge()
        yield Segment("family", s.family_len, None)
    k = 1
    while True:
        st_ = s._stage_at(k)
        for rep in range(st_.reps):
            yield from bridge()
            yield Segment("block", st_.n, k, rep)
        if st_.tour_len() > 0:
            yield from bridge()
            yield Segment("tour", st_.tour_len(), k)
        k += 1


def walked_stage_ends(s):
    ends = []
    total = 0
    for seg in walk_segments(s):
        if seg.stage is not None and seg.stage > len(s.stages):
            break
        total += seg.length
        if seg.stage is not None:
            st_ = s._stage_at(seg.stage)
            if seg.kind == "tour" or (st_.tour_len() == 0 and seg.kind == "block"
                                      and seg.rep == st_.reps - 1):
                while len(ends) < seg.stage:
                    ends.append(total)
                ends[seg.stage - 1] = total
    return ends


def walked_stretched_alpha(s, n):
    total = 0
    stage_of_n = 1
    for seg in walk_segments(s):
        total += seg.length
        if seg.stage is not None:
            stage_of_n = seg.stage
        if total >= n:
            break
    return s._stage_at(stage_of_n).alpha


def walked_tracking_bound(s, n):
    target = walked_stretched_alpha(s, n)
    bound = 0.0
    cum = 0
    for seg in walk_segments(s):
        if cum >= n:
            break
        take = min(seg.length, n - cum)
        frac = take / n
        if seg.kind == "block" and take == seg.length:
            st_ = s._stage_at(seg.stage)
            drift = weak_star_dist(st_.alpha, target, s.check_depth)
            bound += frac * min(1.0, st_.zeta + st_.eps + drift)
        else:
            bound += frac
        cum += take
    return bound


def per_point_tracking_report(s, seed, checkpoints=None, family_word=None):
    """Oracle for tracking_report: the point's own stream, one dict
    empirical measure per checkpoint, the walker's target and bound."""
    cps = sorted(checkpoints) if checkpoints is not None else s.stage_ends()
    stream = emit_point(s, seed, family_word=family_word)
    L = s.check_depth
    rows = []
    for n in cps:
        w = stream.materialize(n + L - 1)
        obs = weak_star_dist(empirical(s.space, w, n, L),
                             walked_stretched_alpha(s, n), L)
        rows.append(TrackingRow(n=n, observed=obs,
                                bound=walked_tracking_bound(s, n)))
    return rows


@st.composite
def layout_cases(draw):
    """A hand-built schedule (gap up to one above the primitivity index,
    optional anchor and slot, tourless and blockless stages; the last stage
    is never empty, so it can be continued) plus horizons reaching past the
    built stages.  A zeta + eps below one makes complete blocks cheaper
    than the diameter."""
    space = draw(st.sampled_from(FAMILY_SPACES))
    L = draw(st.integers(1, 3))
    count = draw(st.integers(1, 3))
    stages = []
    for k in range(count):
        tour = draw(st.sampled_from(
            [None, dense_tour(space, 1), dense_tour(space, 2)]))
        low = 1 if tour is None and k == count - 1 else 0
        stages.append(Stage(alpha=random_markov(draw, space),
                            n=draw(st.integers(L, 10)),
                            reps=draw(st.integers(low, 3)), tour=tour,
                            zeta=draw(st.sampled_from([0.1, 0.3, 1.0])),
                            eps=draw(st.sampled_from([0.05, 0.5])), depth=1))
    anchor = draw(st.sampled_from([None, Word(()), admissible_word(
        draw, space, draw(st.integers(1, 3)))]))
    N = draw(st.integers(0, 4))
    sched = GluingSchedule(
        space=space, stages=stages, anchor=anchor, family_len=N, check_depth=L,
        gap=space.primitivity_index + draw(st.integers(0, 1)))
    top = sched.layout()[-1].end
    horizons = draw(st.lists(st.integers(1, 3 * top + 5), min_size=1,
                             max_size=6))
    word = draw(st.sampled_from([None, *space.words(N)]))
    return sched, horizons, word, draw(st.integers(0, 2**16))


def blockless_tourless(s):
    return any(st_.reps == 0 and st_.tour is None for st_ in s.stages)


class TestLayout:
    @settings(max_examples=150, deadline=None)
    @given(layout_cases())
    def test_equals_segment_walker(self, case):
        sched, horizons, _, _ = case
        if not blockless_tourless(sched):
            assert sched.stage_ends() == walked_stage_ends(sched)
        top = sched.layout()[-1].end
        for n in [*range(1, top + 12), *horizons]:
            assert sched.stretched_alpha(n) is walked_stretched_alpha(sched, n)
            assert tracking_bound(sched, n) == walked_tracking_bound(sched, n)

    @settings(max_examples=150, deadline=None)
    @given(layout_cases())
    def test_tracking_report_equals_per_point_oracle(self, case):
        sched, horizons, word, seed = case
        # zeta 1 accepts every block draw
        sched.stages = [dataclasses.replace(st_, zeta=1.0)
                        for st_ in sched.stages]
        # default checkpoints are the stage ends, where empty stages differ
        for cps in [horizons] + [None] * (not blockless_tourless(sched)):
            assert tracking_report(sched, seed, cps, word) == \
                per_point_tracking_report(sched, seed, cps, word)

    def test_spans_hold_the_emitted_words(self, monkeypatch):
        blocks = recorded_blocks(monkeypatch)
        tour = dense_tour(GOLDEN, 2)
        sched = GluingSchedule(space=GOLDEN, anchor=Word("010"), family_len=3,
                               stages=[
            Stage(alpha=parry(GOLDEN), n=5, reps=2, tour=tour, zeta=1.0,
                  eps=0.5, depth=2),
            Stage(alpha=parry(GOLDEN), n=4, reps=3, tour=None, zeta=1.0,
                  eps=0.5, depth=1)])
        pieces = sched.layout(200)
        assert [(p.kind, p.stage) for p in pieces[:9]] == [
            ("anchor", None), ("family", None), ("block", 1), ("block", 1),
            ("tour", 1), ("block", 2), ("block", 2), ("block", 2),
            ("tour", 2)]
        assert pieces[-1].end >= 200 > pieces[-5].end  # stage 3 reaches 200
        x = Word(emit_point(sched, seed=6, family_word=Word("001")).materialize(
            pieces[-1].end)).symbols
        reps = Counter()
        for p in pieces:
            word = {"anchor": Word("010").symbols, "family": (0, 0, 1)}.get(
                p.kind)
            if p.kind == "block":
                word = tuple(blocks[p.stage, reps[p.stage]].tolist())
                reps[p.stage] += 1
            elif p.kind == "tour":
                word = tour.symbols if p.stage == 1 else ()
            assert x[p.start:p.end] == word
        assert sched.stage_ends() == [pieces[4].end, pieces[8].end]

    def test_blockless_tourless_stage_ends_where_the_last_did(self):
        a = Stage(alpha=parry(GOLDEN), n=4, reps=1, tour=None, zeta=1.0,
                  eps=0.5, depth=1)
        empty = dataclasses.replace(
            a, reps=0, alpha=MarkovMeasure(GOLDEN, [[0.5, 0.5], [1.0, 0.0]]))
        sched = GluingSchedule(space=GOLDEN, stages=[a, empty, a])
        assert sched.stage_ends() == [4, 4, 9]
        # the walker gave the empty stage the next stage's end
        assert walked_stage_ends(sched) == [4, 9, 9]
        # the bridge at 4 belongs to stage 1, not to the empty stage 2
        assert sched.stretched_alpha(5) is walked_stretched_alpha(sched, 5) \
            is a.alpha

    def test_empty_last_stage_rejected(self):
        # its continuation adds nothing, so emit_point and the walker spun
        # forever past the built stages
        a = Stage(alpha=B05, n=4, reps=1, tour=None, zeta=1.0, eps=0.5,
                  depth=1)
        for last in (dataclasses.replace(a, reps=0),
                     dataclasses.replace(a, reps=0, tour=Word(()))):
            with pytest.raises(MalformedSchedule,
                               match="last stage has no blocks and no tour"):
                GluingSchedule(space=FULL2, stages=[a, last])


class TestScheduleInputs:
    def data(self, **kw):
        sched = build_gk_schedule(FULL2, B05, stages=2, **kw)
        return json.loads(sched.to_json())

    def load(self, data):
        return GluingSchedule.from_json(json.dumps(data))

    def test_record_is_a_list_of_stage_records(self):
        data = self.data(anchor=FULL2.parse("01"))
        assert list(data) == ["space", "gap", "check_depth", "anchor",
                              "family", "stages"]
        assert data["anchor"] == "01" and data["family"] == [0, None, None]
        assert [list(st) for st in data["stages"]] == 2 * [
            ["alpha", "n", "reps", "tour", "zeta", "eps", "depth"]]

    @pytest.mark.parametrize("field", ["space", "gap", "check_depth",
                                       "anchor", "family", "stages"])
    def test_missing_field_named(self, field):
        data = self.data()
        del data[field]
        with pytest.raises(MalformedSchedule, match=(
                f"^schedule field '{field}': KeyError\\('{field}'\\)$")):
            self.load(data)

    @pytest.mark.parametrize("key", ["alpha", "n", "tour", "zeta", "depth"])
    def test_missing_stage_field_named(self, key):
        data = self.data()
        del data["stages"][1][key]
        with pytest.raises(MalformedSchedule,
                           match=f"^schedule field 'stages': .*'{key}'"):
            self.load(data)

    @pytest.mark.parametrize("stages", [5, None, "stages", {"n": 4}])
    def test_non_list_stages_named(self, stages):
        data = self.data()
        data["stages"] = stages
        with pytest.raises(MalformedSchedule,
                           match="^schedule field 'stages': TypeError"):
            self.load(data)

    @pytest.mark.parametrize("field, value", [
        ("gap", "1"), ("check_depth", 2.0), ("family", [0, None]),
        ("anchor", 7), ("space", [[1, 1], [1, 1]])])
    def test_mistyped_field_named(self, field, value):
        data = self.data()
        data[field] = value
        with pytest.raises(MalformedSchedule,
                           match=f"^schedule field '{field}': "):
            self.load(data)

    @pytest.mark.parametrize("kw", [dict(zetas=[0.5, 0.0]),
                                    dict(epsilons=[-0.1, 0.25])])
    def test_nonpositive_zeta_or_eps_named(self, kw):
        with pytest.raises(InfeasibleParams, match="must be positive"):
            build_gk_schedule(FULL2, B05, stages=2, **kw)

    def test_slot_mismatch_named_at_every_family_entry_point(self):
        sched = build_gk_schedule(FULL2, B09, stages=2, family_len=6)
        fam = [Word("0100")]
        calls = [lambda: emit_point(sched, seed=1, family_word=fam[0]),
                 lambda: tracking_report(sched, seed=1, family_word=fam[0]),
                 lambda: emit_separated_family(sched, fam, 40, seed=1),
                 lambda: family_tracking_report(sched, fam, seed=1)]
        for call in calls:
            with pytest.raises(ValueError,
                               match="'0100' has length 4, not the slot"):
                call()

    def test_empty_word_is_no_slot(self):
        sched = build_gk_schedule(FULL2, B09, stages=2, family_len=6)
        assert tracking_report(sched, seed=1, family_word=Word(())) == \
            tracking_report(sched, seed=1)
        assert emit_separated_family(sched, [Word(())], 60, seed=1).tolist() \
            == [emit_point(sched, seed=1).materialize(60).tolist()]


class TestBranchTree:
    def make_tree(self, depth=2):
        K = MeasurePath([MarkovMeasure.bernoulli(FULL2, [0.7, 0.3]),
                         MarkovMeasure.bernoulli(FULL2, [0.3, 0.7])])
        return build_branch_tree(FULL2, K, eta=0.1, depth=depth, seed=16,
                                 stage_len=12)

    def test_leaf_weights_sum_to_one_exactly(self):
        tree = self.make_tree(2)
        total = sum((tree.leaf_weight() for _ in tree.leaves()),
                    start=Fraction(0))
        assert total == 1

    def test_leaf_count_is_product(self):
        tree = self.make_tree(2)
        counts = tree.option_counts()
        assert tree.leaf_count() == counts[0] * counts[1]

    @pytest.mark.parametrize("space, K, kw", [
        (FULL2, MeasurePath([MarkovMeasure.bernoulli(FULL2, [0.7, 0.3]),
                             MarkovMeasure.bernoulli(FULL2, [0.3, 0.7])]),
         dict(depth=3, seed=1234, stage_len=12)),
        (GOLDEN, MeasurePath([MarkovMeasure(GOLDEN, [[0.6, 0.4], [1, 0]]),
                              MarkovMeasure(GOLDEN, [[0.4, 0.6], [1, 0]])]),
         dict(depth=2, seed=5, stage_len=18,
              weights=[Fraction(1, 3), Fraction(2, 3)]))])
    def test_options_equal_glue_of_each_product(self, space, K, kw):
        # one glue_rows call per stage against one glue per combination,
        # with bridges (gap 2) and unequal component counts (3 and 8)
        tree = build_branch_tree(space, K, eta=0.1, **kw)
        for st in tree.stages:
            words = [c.words for c in st.components]
            assert st.options == tuple(glue(space, combo, tree.gap)
                                       for combo in itertools.product(*words))

    def test_leaves_admissible(self):
        tree = self.make_tree(2)
        for _, w in tree.leaves():
            assert FULL2.is_admissible(w.symbols)

    def test_prefix_distinctness_all_stages(self):
        tree = self.make_tree(3)
        for entry in tree.prefix_distinct_report():
            assert entry.passed, entry

    def test_prefix_distinctness_brute_force_pairs(self):
        tree = self.make_tree(2)
        ends = tree.prefix_ends()
        leaves = list(tree.leaves())
        for s, end in enumerate(ends, start=1):
            for i in range(len(leaves)):
                for j in range(i + 1, len(leaves)):
                    li, wi = leaves[i]
                    lj, wj = leaves[j]
                    if li[:s] != lj[:s]:
                        assert wi.symbols[:end] != wj.symbols[:end]

    def test_mass_bound_exact(self):
        tree = self.make_tree(3)
        for entry in tree.mass_bound_report():
            assert entry.passed, entry

    def test_depth_four_builds_with_exact_reports(self):
        tree = self.make_tree(4)
        assert tree.leaf_count() > LEAF_ENUMERATION_CAP
        assert all(e.passed for e in tree.mass_bound_report())
        assert all(e.passed for e in tree.prefix_distinct_report())
        with pytest.raises(InfeasibleParams, match=re.escape(
                f"{tree.leaf_count()} leaves exceed the enumeration cap "
                f"{LEAF_ENUMERATION_CAP}")):
            tree.leaves()

    def test_cap_applies_to_enumeration_only(self, monkeypatch):
        tree = self.make_tree(2)
        count = tree.leaf_count()
        monkeypatch.setattr(gluing, "LEAF_ENUMERATION_CAP", count)
        walked = [w for _, w in tree.leaves()]
        monkeypatch.setattr(gluing, "LEAF_ENUMERATION_CAP", count - 1)
        with pytest.raises(InfeasibleParams, match=f"{count} leaves exceed"):
            tree.leaves()
        assert tree.leaf(count - 1) == walked[-1]

    def test_component_mixture_structure(self):
        tree = self.make_tree(1)
        stage = tree.stages[0]
        assert sum(c.weight for c in stage.components) == 1
        assert len(stage.options) == len(stage.components[0].words) * len(
            stage.components[1].words)


def enumerated_leaves(tree):
    """Oracle for BranchTree.leaves: every label glued from scratch."""
    option_words = [stage.options for stage in tree.stages]
    for label in itertools.product(*(range(len(o)) for o in option_words)):
        yield label, glue(tree.space, (opts[c] for opts, c in
                                       zip(option_words, label)), tree.gap)


def enumerated_prefix_distinct_report(tree):
    """Oracle for prefix_distinct_report: a set of stage-end prefixes over
    every leaf."""
    ends = tree.prefix_ends()
    leaves = list(enumerated_leaves(tree))
    out = []
    for s_idx, end in enumerate(ends, start=1):
        expected = tree.leaf_count(s_idx)
        got = len({w.symbols[:end] for _, w in leaves})
        out.append(CheckEntry("prefix_distinct", s_idx, float(got),
                              float(expected), got == expected))
    return out


def enumerated_mass_bound_report(tree):
    """Oracle for mass_bound_report: leaves grouped by stage-end prefix."""
    ends = tree.prefix_ends()
    total = tree.leaf_count()
    leaves = list(enumerated_leaves(tree))
    out = []
    for s_idx, (end, stage) in enumerate(zip(ends, tree.stages), start=1):
        groups = {}
        for _, w in leaves:
            key = w.symbols[:end]
            groups[key] = groups.get(key, 0) + 1
        max_mass = Fraction(max(groups.values()), total)
        lhs = math.log(max_mass.numerator) - math.log(max_mass.denominator)
        rhs = -end * (tree.h_star - 2 * tree.eta - stage.zeta)
        out.append(CheckEntry(
            "ac_mass", s_idx, lhs, rhs, lhs <= rhs + 1e-12,
            f"max ball mass {max_mass} at prefix {end}"))
    return out


# The last space's bridges depend on both neighbouring symbols.
TREE_SPACES = [(FULL2, 1), (GOLDEN, 2), (SftSpace.full_shift(3), 1),
               (SftSpace([[0, 1, 0], [0, 0, 1], [1, 1, 1]]), 3)]


@st.composite
def hand_built_trees(draw, max_depth=2):
    """Trees over small option pools, so option words repeat often; a stage
    may have a single option."""
    space, gap = draw(st.sampled_from(TREE_SPACES))
    stages = []
    for _ in range(draw(st.integers(1, max_depth))):
        n = draw(st.integers(1, 4))
        pool = list(space.words(n))
        options = draw(st.lists(st.sampled_from(pool), min_size=1,
                                max_size=6))
        stages.append(TreeStage(n=n, zeta=draw(st.floats(0, 0.3)),
                                components=(), options=tuple(options)))
    return BranchTree(space=space, gap=gap, eta=draw(st.floats(0.01, 0.3)),
                      h_star=draw(st.floats(0, 1.2)), stages=tuple(stages))


def hand_tree(*stage_options, space=FULL2, gap=1):
    return BranchTree(space=space, gap=gap, eta=0.1, h_star=0.5, stages=tuple(
        TreeStage(n=len(opts[0]) if opts else 0, zeta=0.05, components=(),
                  options=tuple(Word(o) for o in opts))
        for opts in stage_options))


class TestClosedFormCertificates:
    @settings(max_examples=300, deadline=None)
    @given(hand_built_trees())
    def test_reports_match_enumeration(self, tree):
        assert tree.prefix_distinct_report() == \
            enumerated_prefix_distinct_report(tree)
        assert tree.mass_bound_report() == enumerated_mass_bound_report(tree)

    @settings(max_examples=300, deadline=None)
    @given(hand_built_trees(max_depth=3))
    def test_leaves_match_enumeration(self, tree):
        assert list(tree.leaves()) == list(enumerated_leaves(tree))

    @settings(max_examples=300, deadline=None)
    @given(hand_built_trees(max_depth=3))
    def test_leaf_by_index_matches_walk(self, tree):
        walked = list(tree.leaves())
        indices = range(tree.leaf_count())
        assert [tree.leaf(i) for i in indices] == [w for _, w in walked]
        assert [tree.label(i) for i in indices] == [lab for lab, _ in walked]

    @pytest.mark.parametrize("block", [1, 5, 12, 13])
    def test_leaves_glued_in_blocks(self, block, monkeypatch):
        # blocks that split the 12 leaves unevenly, or hold them all, still
        # pair each row with its label
        space, gap = TREE_SPACES[-1]
        tree = hand_tree(["0", "1", "2"], ["12", "20"], ["0", "2"],
                         space=space, gap=gap)
        monkeypatch.setattr(gluing, "LEAF_BLOCK", block)
        assert list(tree.leaves()) == list(enumerated_leaves(tree))

    def test_bridges_follow_preceding_symbol(self):
        space, gap = TREE_SPACES[-1]
        tree = hand_tree(["0", "2"], ["1", "2"], space=space, gap=gap)
        assert [w.to_text() for _, w in tree.leaves()] == [
            "0121", "0122", "2121", "2012"]
        assert [tree.leaf(i).to_text() for i in range(4)] == [
            "0121", "0122", "2121", "2012"]
        assert list(tree.leaves()) == list(enumerated_leaves(tree))

    def test_leaf_index_out_of_range(self):
        tree = hand_tree(["01", "10"], ["1", "0", "1"])
        for index in (6, 7, -1, -6):
            with pytest.raises(LeafOutOfRange, match=re.escape(
                    f"leaf index {index} outside [0, 6)")):
                tree.leaf(index)
        with pytest.raises(IndexError):
            tree.label(6)

    def test_repeated_options_found(self):
        tree = hand_tree(["01", "01", "10"], ["1", "0", "1", "1"])
        distinct = tree.prefix_distinct_report()
        assert [e.lhs for e in distinct] == [2.0, 4.0]
        assert [e.passed for e in distinct] == [False, False]
        mass = tree.mass_bound_report()
        assert mass == enumerated_mass_bound_report(tree)
        assert mass[1].note == "max ball mass 1/2 at prefix 3"  # 2*3 of 12

    def test_built_depth_two_tree(self):
        K = MeasurePath([MarkovMeasure.bernoulli(FULL2, [0.7, 0.3]),
                         MarkovMeasure.bernoulli(FULL2, [0.3, 0.7])])
        tree = build_branch_tree(FULL2, K, eta=0.1, depth=2, seed=3,
                                 stage_len=12)
        assert tree.prefix_distinct_report() == \
            enumerated_prefix_distinct_report(tree)
        assert tree.mass_bound_report() == enumerated_mass_bound_report(tree)
        assert list(tree.leaves()) == list(enumerated_leaves(tree))

    def test_stage_without_options_rejected(self):
        with pytest.raises(MalformedTree, match=r"stage 2 .*lengths \[\]"):
            hand_tree(["01", "10"], [])

    def test_unequal_option_lengths_rejected(self):
        with pytest.raises(MalformedTree, match=r"stage 1 .*lengths \[1, 2\]"):
            hand_tree(["01", "1"], ["0"])
        with pytest.raises(MalformedTree, match=r"stage 1 .*lengths \[0\]"):
            hand_tree([""])


class TestChaoticFamily:
    def make_family(self, horizon=12_000, n_xi=4):
        xis = []
        k = 0
        while len(xis) < n_xi:
            bits = tuple(1 + ((k >> i) & 1) for i in range(8))
            if bits not in xis:
                xis.append(bits)
            k += 1
        return emit_chaotic_family(FULL2, POINT0, Word("0"), Word("1"),
                                   xis, horizon, seed=17)

    def test_identical_xi_identical_words(self):
        fam1 = self.make_family()
        fam2 = self.make_family()
        for xi in fam1.members:
            assert Word(fam1.members[xi]) == Word(fam2.members[xi])

    def test_orbit_gap_detected(self):
        assert self.make_family().eps_star == 1.0
        with pytest.raises(OrbitsNotDisjoint):
            emit_chaotic_family(FULL2, POINT0, Word("01"), Word("10"),
                                [(1,) * 8, (2,) * 8], 4000, seed=1)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 2), min_size=1, max_size=8),
           st.lists(st.integers(0, 2), min_size=1, max_size=8))
    def test_orbit_gap_equals_pairwise_dist(self, s1, s2):
        lam1, lam2 = Word(s1), Word(s2)
        try:
            expected = orbit_gap_loop(lam1, lam2)
        except OrbitsNotDisjoint as e:
            with pytest.raises(OrbitsNotDisjoint, match=re.escape(str(e))):
                gluing._orbit_gap(FULL2, lam1, lam2)
            return
        assert gluing._orbit_gap(FULL2, lam1, lam2) == expected

    def test_empty_orbit_generator_named(self):
        for lams, name in (((Word(()), Word("1")), "lambda1"),
                           ((Word("0"), Word(())), "lambda2")):
            for emit in (emit_chaotic_family, emit_dc1_family):
                with pytest.raises(ValueError, match=f"orbit generator "
                                   f"{name} is empty"):
                    emit(FULL2, POINT0, *lams, [(1, 2)], 2000, seed=1)

    def test_validation_passes(self):
        fam = self.make_family()
        assert fam.validation.passed, fam.validation.failures()

    def test_non_increasing_reps_fail_visibly(self):
        fam = self.make_family()
        assert len(fam.stages) >= 2
        stages = list(fam.stages)

        def report(stages):
            budgets = [gluing._chaos_budget(st, k, fam.ntilde, end) for k, (st, end)
                       in enumerate(zip(stages, fam.stage_ends), start=1)]
            return ValidationReport(tuple(check_budgets(budgets, 0, 2)))

        assert report(stages) == fam.validation
        stages[1] = dataclasses.replace(stages[1], reps=stages[0].reps)
        entry = report(stages).entry("reps_increasing")
        assert not entry.passed
        assert (entry.lhs, entry.rhs) == (0.0, 1.0)
        assert entry.note == f"reps={[st.reps for st in stages]}"

    def test_separation_in_every_stage_past_disagreement(self):
        fam = self.make_family()
        members = list(fam.members.items())
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                xi, x = members[i]
                eta, y = members[j]
                u = next(q for q in range(len(xi)) if xi[q] != eta[q])
                d = orbit_distances(x, y, min(len(x), len(y)))
                for k_idx, end in enumerate(fam.stage_ends, start=1):
                    if k_idx - 1 < u or end > len(d):
                        continue
                    start = fam.stage_ends[k_idx - 2] if k_idx >= 2 else 0
                    assert d[start:end].max() >= fam.eps_star / 2

    def test_phi_density_at_last_run_end(self):
        fam = self.make_family()
        members = list(fam.members.values())
        n = fam.mu0_run_ends[-1]
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                val = phi_n(members[i], members[j], 2.0 ** -3, n)
                assert val >= 0.9, val

    def test_li_yorke_consistent_pairs(self):
        fam = self.make_family()
        members = list(fam.members.values())
        cps = [n for n in fam.stage_ends if n <= fam.horizon]
        rep = li_yorke_report(members[0], members[1], cps)
        assert rep.consistent

    def test_all_members_admissible(self):
        fam = self.make_family()
        for w in fam.members.values():
            assert FULL2.is_admissible(w) and not w.flags.writeable

    @pytest.mark.parametrize("anchor", [None, Word("010"), Word(())])
    def test_golden_mean_positions_match_members(self, anchor, monkeypatch):
        blocks = recorded_blocks(monkeypatch)
        orbits = (Word("0"), Word("01"))
        xis = [(1, 2, 1), (2, 1, 1)]
        fam = emit_chaotic_family(GOLDEN, parry(GOLDEN), *orbits, xis, 6000,
                                  seed=5, anchor=anchor)
        assert len(fam.stages) == 2
        for xi, w in fam.members.items():
            x = Word(w).symbols
            assert len(x) == fam.stage_ends[-1]
            assert GOLDEN.is_admissible(x)
            for k, st in enumerate(fam.stages, start=1):
                end = fam.mu0_run_ends[k - 1]
                assert x[end - st.n:end] == \
                    tuple(blocks[k, st.reps - 1].tolist())
                for q, start, stop in fam.excursion_spans[k - 1]:
                    orbit = orbits[xi[q - 1] - 1].symbols
                    assert stop - start == fam.ntilde
                    assert x[start:stop] == (orbit * fam.ntilde)[:fam.ntilde]

    def test_short_xi_named(self):
        # two stages select orbits at 20,000 here; the DC1 family selects once
        mu_per = MarkovMeasure.periodic_orbit(FULL2, Word("01"))
        for emit, mu0, xis, message in (
                (emit_chaotic_family, POINT0, [(1,), (2, 1)],
                 "xi prefix length 1 < 2 orbit selections"),
                (emit_dc1_family, mu_per, [(), (2,)],
                 "xi prefix length 0 < 1 orbit selections")):
            with pytest.raises(ValueError, match=message):
                emit(FULL2, mu0, Word("0"), Word("1"), xis, 20_000, seed=1)

    @pytest.mark.parametrize("zeta0", [0.0, -0.1, math.nan, math.inf])
    def test_dc1_bad_zeta0_named(self, zeta0):
        # these used to raise ZeroDivisionError, OverflowError and (nan,
        # inf) ValueError from the run-length arithmetic
        mu_per = MarkovMeasure.periodic_orbit(FULL2, Word("01"))
        with pytest.raises(InfeasibleParams, match=re.escape(
                f"zeta0 must be positive and finite; got zeta0={zeta0}")):
            emit_dc1_family(FULL2, mu_per, Word("0"), Word("1"),
                            [(1,), (2,)], 20_000, seed=1, zeta0=zeta0)

    def test_inadmissible_anchor_named(self, monkeypatch):
        # the golden mean forbids 11: members used to start 1 1 0 ...
        monkeypatch.setattr(gluing, "dense_tour", forbidden("a tour"))
        with pytest.raises(InfeasibleParams,
                           match=re.escape("anchor '11' is not admissible")):
            emit_chaotic_family(GOLDEN, parry(GOLDEN), Word("0"), Word("01"),
                                [(1, 2, 1), (2, 1, 1)], 6000, seed=5,
                                anchor=Word("11"))

    @pytest.mark.parametrize("depth", [0, -1])
    def test_non_positive_max_tour_depth_named(self, depth, monkeypatch):
        # these used to reach dense_tour and fail with a bare ValueError
        monkeypatch.setattr(gluing, "dense_tour", forbidden("a tour"))
        with pytest.raises(InfeasibleParams, match=re.escape(
                f"max_tour_depth must be at least 1, got {depth}")):
            emit_chaotic_family(FULL2, POINT0, Word("0"), Word("1"),
                                [(1, 2), (2, 1)], 20_000, seed=1,
                                max_tour_depth=depth)


def forbidden(what):
    """A stand-in that fails the test when a bad input reaches it."""
    def call(*args, **kwargs):
        raise AssertionError(f"a bad input reached {what}")
    return call


# orbit generator pairs, periodically admissible and disjoint, per space
TWO_ORBITS = {FULL2: [("0", "1"), ("01", "1"), ("001", "11")],
              SftSpace.full_shift(3): [("0", "12"), ("1", "2")],
              GOLDEN: [("0", "01"), ("0", "010")]}


@st.composite
def two_orbit_cases(draw, orbit_pairs=TWO_ORBITS):
    """A random two-orbit plan: shared admissible words (some empty) and
    private orbit runs (some of length 0), distinct xis and a horizon that
    may cut the glued plan."""
    space = draw(st.sampled_from(list(orbit_pairs)))
    orbits = tuple(map(Word, draw(st.sampled_from(orbit_pairs[space]))))
    plan, slots = [], 0
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            plan.append(admissible_word(draw, space, draw(st.integers(0, 6))))
        else:
            plan.append((slots, draw(st.integers(0, 9))))
            slots += 1
    xis = draw(st.lists(st.tuples(*[st.sampled_from((1, 2))] * slots),
                        min_size=1, max_size=4, unique=True))
    total = glue_spans((len(p) if isinstance(p, Word) else p[1]
                        for p in plan), space.primitivity_index)[-1][1]
    return space, orbits, xis, plan, draw(st.integers(0, total + 3))


def recorded_stages(run):
    """The arguments of every stage generator call that run() makes, each
    with the blocks its caller pulled."""
    calls, stage = [], gluing._stage_blocks

    def recording(*args):
        calls.append((args, pulled := []))
        for x in stage(*args):
            pulled.append(x)
            yield x

    with mock.patch.object(gluing, "_stage_blocks", recording):
        run()
    return calls


def recorded_blocks(monkeypatch):
    """{(stage, rep): accepted block} of every block the run pulls."""
    blocks, stage = {}, gluing._stage_blocks

    def recording(st_, depth, k, seed):
        for rep, x in enumerate(stage(st_, depth, k, seed)):
            blocks[k, rep] = x
            yield x

    monkeypatch.setattr(gluing, "_stage_blocks", recording)
    return blocks


def assert_oracle_blocks(args, count, pulled=None):
    """The first count blocks of the stage generator called with args are
    those of ``word_draw_block`` for their reps, each after as many
    attempts (``_draw_block`` calls), and those a run pulled, if given.
    Returns the number of redrawn reps."""
    st_, depth, k, seed = args
    tries = Counter()
    draw = gluing._draw_block

    def counted(*a):
        tries[a[3]] += 1
        return draw(*a)

    with mock.patch.object(gluing, "_draw_block", counted):
        blocks = list(itertools.islice(gluing._stage_blocks(*args), count))
    assert len(blocks) == count
    redrawn = 0
    for rep, x in enumerate(blocks):
        want, attempts = word_draw_block(st_, depth, k, rep, seed)
        assert Word(x) == want and tries[rep] == attempts, (k, rep)
        assert x.dtype == st_.alpha.space.symbol_dtype
        assert not x.flags.writeable
        redrawn += attempts > 1
    if pulled is not None:
        assert all(np.array_equal(x, y) for x, y in zip(blocks, pulled))
    return redrawn


def batch_cap(cap):
    """measures._COUNT_WINDOWS patched to cap symbols (None: as it is)."""
    if cap is None:
        return contextlib.nullcontext()
    return mock.patch.object(measures, "_COUNT_WINDOWS", cap)


DRAW_MEASURES = {
    "full2": (MarkovMeasure(FULL2, [[0.6, 0.4], [0.3, 0.7]]), ("0", "1")),
    "golden": (parry(GOLDEN), ("0", "01")),
    "point0": (POINT0, ("0", "1")),
}


class TestArrayDraws:
    """Blocks are drawn, scored and kept as symbol arrays, a batch of reps
    at a time; each equals the Word the per-step sampler and the
    per-cylinder loop drew, after the same number of attempts."""

    def stage_calls(self):
        path = MeasurePath([MarkovMeasure.bernoulli(FULL2, [0.7, 0.3]),
                            MarkovMeasure.bernoulli(FULL2, [0.3, 0.7])])
        tracking = build_gk_schedule(FULL2, path, stages=3)
        capacity = build_gk_schedule(
            FULL2, B09, anchor=Word("0"), stages=3, family_len=8,
            family_entropy=math.log(2), family_eta=0.12)
        return {
            "chaos": recorded_stages(lambda: emit_chaotic_family(
                FULL2, POINT0, Word("0"), Word("1"), [(1, 2, 1), (2, 1, 2)],
                20_000, seed=7)),
            "tracking": recorded_stages(
                lambda: tracking_report(tracking, seed=7)),
            "capacity": recorded_stages(
                lambda: emit_point(capacity, seed=7).materialize(
                    capacity.stage_ends()[-1])),
        }

    def test_equal_to_the_word_path(self):
        redrawn = 0
        for name, calls in self.stage_calls().items():
            assert calls, name
            for args, pulled in calls:
                # at a quarter of the radius some blocks need redraws
                st_ = args[0]
                quarter = dataclasses.replace(st_, zeta=st_.zeta / 4)
                assert_oracle_blocks(args, len(pulled), pulled)
                redrawn += assert_oracle_blocks((quarter, *args[1:]),
                                                len(pulled))
        assert redrawn

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(list(DRAW_MEASURES)), st.integers(8, 48),
           st.integers(0, 12), st.integers(1, 3),
           st.sampled_from([0.5, 0.2, 0.1]), st.booleans(),
           st.sampled_from([1, 3, 7, 100, None]), st.integers(0, 2 ** 16))
    def test_stage_equals_the_word_path(self, name, n, reps, depth, zeta,
                                        quarter, cap, seed):
        st_ = Stage(alpha=DRAW_MEASURES[name][0], n=n, reps=reps, tour=None,
                    zeta=zeta / 4 if quarter else zeta, eps=0.5, depth=1)
        k = 1 + seed % 5
        try:
            for rep in range(reps):
                word_draw_block(st_, depth, k, rep, seed)
        except AssertionError:  # a rep no attempt brings within zeta
            with batch_cap(cap), pytest.raises(InfeasibleParams, match=(
                    f"^stage {k}: no draw within zeta=")):
                list(gluing._stage_blocks(st_, depth, k, seed))
            return
        with batch_cap(cap):
            assert_oracle_blocks((st_, depth, k, seed), reps)

    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from(list(DRAW_MEASURES)),
           st.sampled_from([2_000, 20_000]), st.sampled_from([1_000, 70_000]),
           st.sampled_from([1, 3, 7, None]), st.integers(0, 2 ** 16))
    def test_family_blocks_equal_the_word_path(self, name, chaos_horizon,
                                               dc1_horizon, cap, seed):
        # a long shared run under a tiny cap is counted a window at a time
        assume(cap is None or dc1_horizon < 10_000)
        mu0, orbits = DRAW_MEASURES[name]
        space, xis = mu0.space, [(1, 2, 1), (2, 1, 2)]
        with batch_cap(cap):
            calls = recorded_stages(lambda: emit_chaotic_family(
                space, mu0, Word(orbits[0]), Word(orbits[1]), xis,
                chaos_horizon, seed=seed))
            calls += recorded_stages(lambda: emit_dc1_family(
                space, mu0, Word(orbits[0]), Word(orbits[1]), xis,
                dc1_horizon, seed=seed))
            assert calls
            for args, pulled in calls:
                assert len(pulled) == args[0].reps
                quarter = dataclasses.replace(args[0], zeta=args[0].zeta / 4)
                assert_oracle_blocks(args, len(pulled), pulled)
                assert_oracle_blocks((quarter, *args[1:]), len(pulled))

    def test_golden_mean_blocks_equal_the_word_path(self):
        st_ = Stage(alpha=parry(GOLDEN), n=40, reps=4, tour=None, zeta=0.02,
                    eps=0.5, depth=1)
        for depth in (1, 2, 3):
            assert_oracle_blocks((st_, depth, 1, 11), 4)

    def test_batches_double_within_the_cap(self):
        st_ = Stage(alpha=B05, n=10, reps=20, tour=None, zeta=1.0, eps=0.5,
                    depth=1)
        for cap, sizes in ((None, [1, 2, 4, 8, 5]), (35, [1, 2, 3, 3, 3, 3, 3,
                                                          2]), (3, [1] * 20)):
            batches = []
            score = gluing._batch_weak_star
            with batch_cap(cap), mock.patch.object(
                    gluing, "_batch_weak_star", lambda space, batch, *a:
                    batches.append(len(batch)) or score(space, batch, *a)):
                blocks = gluing._stage_blocks(st_, 1, 1, 3)
                assert len(list(itertools.islice(blocks, 3))) == 3
                # a lazy pull stops at the batch that holds its last rep
                assert batches == sizes[:1 + (sizes[0] < 3) +
                                        (sum(sizes[:2]) < 3)]
                list(blocks)
            assert batches == sizes

    def test_a_stage_of_equal_blocks_is_scored_once(self):
        # every delta_0 block is the one array sample_word shares: 16,342
        # one-row calls for stage 5 of thm1_5_chaos at horizon 2.5e8
        st_ = Stage(alpha=POINT0, n=10, reps=200, tour=None, zeta=0.5,
                    eps=0.5, depth=1)
        rows = []
        score = gluing._batch_weak_star
        with batch_cap(25), mock.patch.object(
                gluing, "_batch_weak_star", lambda space, batch, *a:
                rows.append(len(batch)) or score(space, batch, *a)):
            blocks = list(gluing._stage_blocks(st_, 2, 5, 3))
        assert rows == [1]
        assert len(blocks) == 200 and all(x is blocks[0] for x in blocks)
        assert blocks[0].tolist() == [0] * 10

    def test_a_two_cycle_scores_each_array_once(self):
        # two entry states, two shared arrays; from the second batch on
        # every batch draws both, so neither is scored again
        st_ = Stage(alpha=MarkovMeasure.periodic_orbit(FULL2, Word("01")),
                    n=10, reps=200, tour=None, zeta=0.5, eps=0.5, depth=1)
        rows = []
        score = gluing._batch_weak_star
        with mock.patch.object(
                gluing, "_batch_weak_star", lambda space, batch, *a:
                rows.append(len(batch)) or score(space, batch, *a)):
            blocks = list(gluing._stage_blocks(st_, 1, 5, 3))
        assert sum(rows) == 2
        assert {x.tolist()[0] for x in blocks} == {0, 1}

    def test_a_nan_score_is_redrawn(self):
        # zeta 1 accepts every real score; rep 0's first score is nan
        st_ = Stage(alpha=B05, n=12, reps=3, tour=None, zeta=1.0, eps=0.5,
                    depth=1)
        score = gluing._batch_weak_star
        calls = []

        def nan_first(*a):
            d = score(*a)
            if not calls:
                d[0] = math.nan
            calls.append(len(d))
            return d

        drawn = []
        draw = gluing._draw_block
        with mock.patch.object(gluing, "_batch_weak_star", nan_first), \
                mock.patch.object(gluing, "_draw_block", lambda *a:
                                  drawn.append(a[1:4]) or draw(*a)):
            blocks = list(gluing._stage_blocks(st_, 2, 4, 9))
        assert drawn == [(0, 4, 0), (1, 4, 0), (0, 4, 1), (0, 4, 2)]
        assert calls == [1, 1, 2]  # the redraw is scored alone
        want = [sample_word(B05, 12, gluing._mix(9, 4, rep, attempt))
                for rep, attempt in ((0, 1), (1, 0), (2, 0))]
        assert [x.tolist() for x in blocks] == [x.tolist() for x in want]

    def test_every_score_nan_is_infeasible(self, monkeypatch):
        st_ = Stage(alpha=B05, n=12, reps=2, tour=None, zeta=1.0, eps=0.5,
                    depth=1)
        monkeypatch.setattr(gluing, "_BLOCK_ATTEMPTS", 4)
        monkeypatch.setattr(gluing, "_batch_weak_star",
                            lambda space, batch, *a: np.full(len(batch),
                                                             math.nan))
        with pytest.raises(InfeasibleParams, match=re.escape(
                "stage 2: no draw within zeta=1.0 after 4 attempts "
                "(best inf)")):
            list(gluing._stage_blocks(st_, 1, 2, 0))

    def test_exhausted_attempts_name_the_first_failed_rep(self, monkeypatch):
        # the best distance is rep 0's over every attempt, the first one
        # included; a seed where attempt 0 scores best shows it
        monkeypatch.setattr(gluing, "_BLOCK_ATTEMPTS", 3)
        st_ = Stage(alpha=B05, n=10, reps=3, tour=None, zeta=1e-9, eps=0.5,
                    depth=2)

        def score(seed, rep, attempt):
            x = per_step_sample_word(B05, 10, gluing._mix(seed, 2, rep,
                                                          attempt))
            return weak_star_dist(empirical(FULL2, x, 9, 2), B05, 2)

        def best(seed, rep):
            return f"{min(score(seed, rep, a) for a in range(3)):.4f}"

        seed = next(s for s in itertools.count()
                    if score(s, 0, 0) < min(score(s, 0, a) for a in (1, 2))
                    and best(s, 0) != best(s, 1))
        with pytest.raises(InfeasibleParams, match=re.escape(
                f"stage 2: no draw within zeta=1e-09 after 3 attempts "
                f"(best {best(seed, 0)}); increase the block length or "
                f"zeta")):
            list(gluing._stage_blocks(st_, 2, 2, seed))

    def test_chaotic_family_builds_each_tour_once(self, monkeypatch):
        depths = []
        tour = gluing.dense_tour
        monkeypatch.setattr(gluing, "dense_tour", lambda space, d:
                            depths.append(d) or tour(space, d))
        emit_chaotic_family(FULL2, POINT0, Word("0"), Word("1"), [(1, 2)],
                            20_000, seed=7, max_tour_depth=3)
        assert depths == [1, 2, 3]


class TestTwoOrbitEmitter:
    @settings(max_examples=300, deadline=None)
    @given(two_orbit_cases())
    def test_equals_iglue_oracle(self, case):
        # full shifts and the golden mean, whose bridges are one symbol;
        # shared pieces as Words and as symbol arrays (sampled blocks)
        space, orbits, xis, plan, horizon = case
        want = iglue_two_orbit(space, orbits, xis, plan, horizon)
        arrays = [p.to_array() if isinstance(p, Word) else p for p in plan]
        for pieces in (plan, arrays):
            rows, spans = _emit_two_orbit(space, orbits, xis, pieces,
                                          horizon)
            members = dict(zip(xis, rows.window(0, rows.length)))
            assert list(members) == list(want)
            for xi, x in members.items():
                assert x.dtype == np.uint8 and not x.flags.writeable
                assert Word(x) == want[xi]
        assert spans == glue_spans((len(p) if isinstance(p, Word) else p[1]
                                    for p in plan), space.primitivity_index)


# a primitive 3-symbol space (index 5) whose bridges, of four symbols,
# depend on both neighbours, with a Markov measure and two disjoint orbits
SFT3 = SftSpace([[0, 1, 0], [1, 0, 1], [1, 0, 0]])
SFT3_MU = MarkovMeasure(SFT3, [[0, 1, 0], [0.5, 0, 0.5], [1, 0, 0]])
CHAOS_CASES = {FULL2: (POINT0, ("0", "1")),
               GOLDEN: (parry(GOLDEN), ("0", "01")),
               SFT3: (SFT3_MU, ("01", "012"))}
CHAOS_ANCHORS = [None, Word(()), Word("010")]


def assert_equals_simulated_family(space, anchor, horizon, depth, seed, xis):
    """emit_chaotic_family equals the replaced planner and emitter loop, and
    each member is the glue of its plan's pieces; a horizon too short for
    one stage raises the same error in both."""
    mu0, orbits = CHAOS_CASES[space]
    args = (space, mu0, Word(orbits[0]), Word(orbits[1]), xis, horizon, seed)
    kw = dict(anchor=anchor, max_tour_depth=depth)
    try:
        want = simulated_chaotic_family(*args, **kw)
    except InfeasibleParams as e:
        with pytest.raises(InfeasibleParams, match=re.escape(str(e))):
            emit_chaotic_family(*args, **kw)
        return 0
    fam = emit_chaotic_family(*args, **kw)
    assert len(fam.stages) == len(want["stages"])
    for k, (got, old) in enumerate(zip(fam.stages, want["stages"]), start=1):
        assert (got.n, got.reps, got.tour, got.zeta, got.eps) == \
            (old.n, old.reps, old.tour, old.zeta, old.eps)
        assert got.alpha is mu0 and got.depth == min(k, depth)
        assert fam.ntilde == old.ntilde
    for name in ("stage_ends", "mu0_run_ends", "excursion_spans",
                 "validation"):
        assert getattr(fam, name) == want[name], name
    assert list(fam.members) == list(want["members"])
    gap = space.primitivity_index
    for xi, x in fam.members.items():
        assert x.dtype == want["members"][xi].dtype == space.symbol_dtype
        assert np.array_equal(x, want["members"][xi])
        words = [Word(p) if isinstance(p, np.ndarray) else p
                 if isinstance(p, Word) else
                 Word(np.resize(Word(orbits[xi[p[0]] - 1]).to_array(), p[1]))
                 for p in want["plan"]]
        assert Word(x) == glue(space, words, gap)
    return len(fam.stages)


class TestChaoticFamilyOracle:
    """The family from the schedule's parts (one ``Stage`` record, one
    planning pass, ``shift.GluedRows``) equals the replaced planner, which
    re-planned every stage for each stage count, and the emitter's own
    bridge loop (``chaos_oracles``), on spaces whose bridges have 0, 1 and
    4 symbols."""

    @pytest.mark.parametrize("space", list(CHAOS_CASES))
    def test_every_stage_count(self, space):
        counts = [assert_equals_simulated_family(
            space, CHAOS_ANCHORS[i % 3], horizon, 1 + (i + depth0) % 6, i,
            [(1, 2, 1), (2, 1, 1), (2, 2, 2)])
            for i, horizon in enumerate((20, 1_000, 40_000, 200_000))
            for depth0 in (0, 3)]
        assert counts == [0, 0, 1, 1, 2, 2, 3, 3]

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(list(CHAOS_CASES)), st.sampled_from(CHAOS_ANCHORS),
           st.sampled_from([20, 100, 1_000, 12_000, 40_000, 120_000]),
           st.integers(1, 6), st.integers(0, 2 ** 16),
           st.lists(st.tuples(*[st.sampled_from((1, 2))] * 3), min_size=1,
                    max_size=3, unique=True))
    def test_equals_simulated_family(self, space, anchor, horizon, depth,
                                     seed, xis):
        assert_equals_simulated_family(space, anchor, horizon, depth, seed,
                                       xis)

    @settings(max_examples=300, deadline=None)
    @given(two_orbit_cases({**TWO_ORBITS, SFT3: [("01", "012")]}))
    def test_emitter_equals_bridge_loop(self, case):
        # plans with empty words and runs between nonempty ones
        space, orbits, xis, plan, horizon = case
        want = bridged_two_orbit(space, orbits, xis, plan, horizon)
        arrays = [p.to_array() if isinstance(p, Word) else p for p in plan]
        for pieces in (plan, arrays):
            rows, _ = _emit_two_orbit(space, orbits, xis, pieces, horizon)
            members = dict(zip(xis, rows.window(0, rows.length)))
            assert list(members) == list(want)
            for xi, x in members.items():
                assert x.dtype == space.symbol_dtype
                assert np.array_equal(x, want[xi])


class TestSampledLeafChecks:
    def test_depth_five_experiment_passes(self):
        got = run_experiment("thm1_2_packing_tree", 7, {"depth": 5})
        assert got.passed
        assert got.details["leaves"] > 10**9
        assert got.details["sampled_leaves"] == 64
        assert got.details["sampled_pairs"] == 32

    def test_repeated_options_fail_the_split(self):
        tree = hand_tree(["01", "01", "10"], ["1", "0", "1", "1"])
        assert _sampled_leaf_checks(tree, seed=1) == (True, False)
        assert _sampled_leaf_checks(hand_tree(["01", "10"], ["1", "0"]),
                                    seed=1) == (True, True)

    def test_pairs_reach_the_last_stage(self):
        # random pairs share the first two stages 1 time in 64; the drawn
        # pairs share a random number of stages, so the repeat is found
        words = ["000", "001", "010", "011", "100", "101", "110", "111"]
        tree = hand_tree(words, words, ["1", "1"])
        assert _sampled_leaf_checks(tree, seed=1) == (True, False)

    @pytest.mark.parametrize("corrupt, verdict", [
        # leaf i + 1 in place of leaf i: its spans hold other options
        (lambda leaf, tree, i: leaf(tree, (i + 1) % tree.leaf_count()),
         (False, False)),
        # one symbol too many after the last stage
        (lambda leaf, tree, i: leaf(tree, i) + Word("0"), (False, True)),
        # the bridge in front of stage 2 follows the stage-3 option, so
        # pairs that first differ at stage 3 disagree two stages early
        (lambda leaf, tree, i: Word(
            leaf(tree, i).symbols[:1] + (tree.label(i)[2],)
            + leaf(tree, i).symbols[2:]), (True, False)),
    ])
    def test_corrupted_leaves_fail(self, monkeypatch, corrupt, verdict):
        space, gap = TREE_SPACES[-1]
        tree = hand_tree(["0", "2"], ["1", "2"], ["1", "2"], space=space,
                         gap=gap)
        assert _sampled_leaf_checks(tree, seed=1) == (True, True)
        leaf = BranchTree.leaf
        monkeypatch.setattr(BranchTree, "leaf",
                            lambda tree, i: corrupt(leaf, tree, i))
        assert _sampled_leaf_checks(tree, seed=1) == verdict

    def test_failed_sample_fails_the_experiment(self, monkeypatch):
        monkeypatch.setattr(experiments, "_sampled_leaf_checks",
                            lambda tree, seed: (True, False))
        got = run_experiment("thm1_2_packing_tree", 7, {"depth": 1})
        assert not got.passed
        assert (got.details["sampled_layout_ok"],
                got.details["sampled_split_ok"]) == (True, False)


class TestCapacityExperimentParams:
    """thm1_1_capacity fits a growth rate through its family sizes, which
    needs at least three sizes, not all equal."""

    @pytest.mark.parametrize("sizes", [[16, 20], [16], [], [16, 16, 16]])
    def test_unfit_sizes_raise_before_any_family(self, sizes, monkeypatch):
        # [16, 20] used to build, emit and track both families before
        # growth_rate raised Degenerate
        def built(*_, **__):
            raise AssertionError("a family was built first")
        monkeypatch.setattr(experiments.measures, "typical_separated_family",
                            built)
        monkeypatch.setattr(gluing, "build_gk_schedule", built)
        with pytest.raises(InfeasibleParams, match=re.escape(
                f"family_sizes needs at least three sizes, not all equal; "
                f"got {sizes}")):
            run_experiment("thm1_1_capacity", 7, {"family_sizes": sizes})

    def test_three_sizes_with_a_repeat_pass(self):
        got = run_experiment("thm1_1_capacity", 7,
                             {"family_sizes": [8, 8, 10]})
        assert got.details["tracking_all_ok"]


class TestDirectBranchTree:
    def test_four_leaves_quarter_weight(self):
        mu_a = MarkovMeasure.bernoulli(FULL2, [0.7, 0.3])
        mu_b = MarkovMeasure.bernoulli(FULL2, [0.3, 0.7])
        comp_a = TreeComponent(Fraction(1, 2), mu_a,
                               (Word("000011"), Word("010010")))
        comp_b = TreeComponent(Fraction(1, 2), mu_b,
                               (Word("111100"), Word("101101")))
        options = tuple(Word(a.symbols + b.symbols)
                        for a in comp_a.words for b in comp_b.words)
        tree = BranchTree(space=FULL2, gap=1, eta=0.1,
                          h_star=ks_entropy(mu_a) - 0.1,
                          stages=(TreeStage(n=12, zeta=0.075,
                                            components=(comp_a, comp_b),
                                            options=options),))
        assert tree.leaf_count() == 4
        assert tree.leaf_weight() == Fraction(1, 4)
        leaves = list(tree.leaves())
        assert len(leaves) == 4
        assert sum((tree.leaf_weight() for _ in leaves),
                   start=Fraction(0)) == 1


class TestDc1Family:
    def make_pair(self, horizon=100_000):
        mu0 = MarkovMeasure.periodic_orbit(FULL2, Word("01"))
        fam = emit_dc1_family(FULL2, mu0, Word("0"), Word("1"),
                              [(1,) * 4, (2,) * 4], horizon, seed=19)
        return fam

    def test_alternating_kinds_and_domination(self):
        fam = self.make_pair()
        assert fam.stage_kinds[0] == "shared"
        assert set(fam.stage_kinds) <= {"shared", "selected"}
        assert fam.validation.passed

    def test_pair_is_dc1_consistent(self):
        from sftlab.chaos import dc1_report
        fam = self.make_pair()
        x, y = fam.members.values()
        cps = [n for n in fam.stage_ends if n <= fam.horizon]
        rep = dc1_report(x, y, t0=fam.eps_star / 2,
                         t_grid=[2.0 ** -6, 2.0 ** -3, 0.5],
                         checkpoints=cps)
        assert rep.consistent, (rep.min_phi_t0, rep.max_phi)

    def test_members_admissible_and_shared_runs_identical(self):
        fam = self.make_pair(horizon=30_000)
        x, y = map(Word, fam.members.values())
        assert FULL2.is_admissible(x.symbols)
        assert FULL2.is_admissible(y.symbols)
        first_end = fam.stage_ends[0]
        assert x.symbols[:first_end] == y.symbols[:first_end]

    def test_golden_mean_ends_match_members(self):
        mu0 = MarkovMeasure.periodic_orbit(GOLDEN, Word("01"))
        fam = emit_dc1_family(GOLDEN, mu0, Word("0"), Word("01"),
                              [(1,) * 4, (2,) * 4], 20_000, seed=1)
        x, y = map(Word, fam.members.values())
        assert fam.stage_kinds == ("shared", "selected")
        assert len(x) == len(y) == fam.stage_ends[-1]
        first_end = fam.stage_ends[0]
        assert x.symbols[:first_end] == y.symbols[:first_end]
        assert x.symbols[first_end + 1:] == (0,) * (len(x) - first_end - 1)
        dc1_report(x, y, t0=fam.eps_star / 2, t_grid=[0.5],
                   checkpoints=list(fam.stage_ends))


# the equilibrium state of a depth-3 potential lives on the 4-node block
# space of the 2-shift, not on the 2-shift
BLOCK_MU = ergopt.equilibrium_state(FULL2,
                                    ergopt.random_potential(FULL2, 3, 5))
TWIN2 = SftSpace(FULL2.transition)  # equal to FULL2, not the same object
BUILDERS = {
    "build_gk_schedule": lambda space, mu: build_gk_schedule(
        space, mu, stages=1),
    "build_branch_tree": lambda space, mu: build_branch_tree(
        space, MeasurePath([mu]), eta=0.1, depth=1, seed=16, stage_len=12),
    "emit_chaotic_family": lambda space, mu: emit_chaotic_family(
        space, mu, Word("0"), Word("1"), [(1, 2), (2, 1)], 20_000, seed=7),
    "emit_dc1_family": lambda space, mu: emit_dc1_family(
        space, mu, Word("0"), Word("1"), [(1,) * 4, (2,) * 4], 20_000,
        seed=7),
}


class TestBuildersCheckTheTargetSpace:
    @pytest.mark.parametrize("who", BUILDERS)
    def test_a_target_from_another_space_is_named(self, who, monkeypatch):
        # the schedule built and failed at its first draw, the tree's
        # certificates passed for leaves that do not exist, and the two-orbit
        # families raised a bare "symbols out of range"
        monkeypatch.setattr(gluing, "_draw_block", self._unplanned)
        message = re.escape(f"{who}: ") + ".* are defined on the spaces " \
            "with transition " + re.escape(
                f"{BLOCK_MU.space.transition.tolist()} and "
                f"{FULL2.transition.tolist()}")
        with pytest.raises(SpaceMismatch, match=message):
            BUILDERS[who](FULL2, BLOCK_MU)

    @staticmethod
    def _unplanned(*args):
        raise AssertionError("planned before the space check")

    @pytest.mark.parametrize("who", BUILDERS)
    def test_an_equal_space_is_accepted(self, who):
        cycle = Word("01") if who == "emit_dc1_family" else Word("0")
        target = (MarkovMeasure.periodic_orbit(TWIN2, cycle)
                  if who.startswith("emit") else
                  MarkovMeasure.bernoulli(TWIN2, [0.5, 0.5]))
        assert BUILDERS[who](FULL2, target) is not None


class TestFamilyWindows:
    """A two-orbit family glues any window of its members, equal to the
    slice of the whole members."""

    @pytest.mark.parametrize("space", list(CHAOS_CASES))
    def test_windows_are_slices_of_the_members(self, space):
        mu0, orbits = CHAOS_CASES[space]
        fam = emit_chaotic_family(space, mu0, Word(orbits[0]),
                                  Word(orbits[1]),
                                  [(1, 2, 1), (2, 1, 1), (2, 2, 2)], 40_000,
                                  seed=3)
        whole = np.stack(list(fam.members.values()))
        assert whole.shape == (3, fam.rows.length) == (3, fam.stage_ends[-1])
        rng = np.random.default_rng(5)
        for lo, hi in [(0, 0), (0, 1), (fam.rows.length - 1, fam.rows.length),
                       *np.sort(rng.integers(0, fam.rows.length + 1,
                                             (40, 2))).tolist()]:
            got = fam.rows.window(lo, hi)
            assert np.array_equal(got, whole[:, lo:hi]) and \
                not got.flags.writeable
        with pytest.raises(ValueError, match="outside"):
            fam.rows.window(0, fam.rows.length + 1)

    def test_members_are_glued_on_first_read_only(self):
        fam = emit_dc1_family(FULL2, MarkovMeasure.periodic_orbit(
            FULL2, Word("01")), Word("0"), Word("1"), [(1,) * 4, (2,) * 4],
            30_000, seed=19)
        assert "members" not in vars(fam)
        assert fam.members is fam.members
        assert list(fam.members) == list(fam.xis)


class TestStagePlanning:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 64), st.sampled_from([0, 1, 37]),
           st.integers(1, 40), st.lists(st.integers(0, 9), max_size=4),
           st.integers(1, 3))
    def test_closed_form_stage_end(self, reps, past, n, tail, gap):
        assert gluing._stage_end(past, n, reps, tail, gap) == \
            glue_spans((past, *[n] * reps, *tail), gap)[-1][1]

    def test_horizon_10_9_plans_in_bounded_memory(self, monkeypatch):
        # the fifth and sixth stages take millions of reps; their ends used
        # to be glued from a list of every block length (222 MiB at 2.5e8)
        planned = []

        def unplanned(st_, depth, k, seed):
            planned.append(st_.reps)
            raise StopPlanning

        monkeypatch.setattr(gluing, "_stage_blocks", unplanned)
        tracemalloc.start()
        try:
            with pytest.raises(StopPlanning):
                emit_chaotic_family(FULL2, POINT0, Word("0"), Word("1"),
                                    [(1, 2, 1, 2, 1, 2)], 10 ** 9, seed=123)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert planned and planned[0] >= 1
        assert peak < 4 * 2 ** 20, peak


class StopPlanning(Exception):
    """Raised by a stubbed stage draw once the plan is sized."""


class TestChunkedPairScoringMemory:
    def test_five_million_symbols_in_bounded_memory(self):
        # at horizon 5 M the members are 3,189,928 symbols over 4 stages:
        # the 8 whole members alone take 25.5 MB, and one pair's gap array
        # 25.5 MB more, while the chunked walk holds a chunk of each member
        xis = [tuple(1 + ((k >> i) & 1) for i in range(10)) for k in range(8)]
        fam = emit_chaotic_family(FULL2, POINT0, Word("0"), Word("1"), xis,
                                  5_000_000, seed=123)
        assert fam.rows.length == 3_189_928 and len(fam.stages) == 4
        pairs = list(itertools.combinations(range(8), 2))
        cuts = [*fam.stage_ends, fam.mu0_run_ends[-1]]
        tracemalloc.start()
        try:
            stats = gap_windows(fam.rows.window, fam.rows.length, pairs, cuts,
                                [close_gap(2.0 ** -3)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(stats) == 28
        assert peak < 4 * 2 ** 20, peak

