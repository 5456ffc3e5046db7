"""The gluing engine: validated block schedules and the constructed points
they emit: saturated-set generic points, separated stream families,
branching trees with counting measures, and chaotic two-orbit families.

On a mixing SFT the shadowing in all of these constructions is exact word
concatenation with fixed-length bridging words, placed by one engine,
``shift.GluedRows``: ``shift.glue`` is its one-member case,
``shift.glue_rows`` its member arrays, and a ``SymbolStream`` glues the
words it pulls with it a window at a time.  ``shift.glue_spans`` says
where each glued word lands, so every tracking claim reduces to
checkable arithmetic on spans, and
``GluingSchedule.layout`` lists the span of every piece of a schedule's
point for its stage ends, target and tracking bound:

* blocks sampled from a measure are redrawn until their own cylinder
  empirical sits within the stage radius zeta of the source measure;
* the tracking bound charges those blocks zeta + eps (eps absorbing the
  window straddle at block edges) and everything else (anchors, bridges,
  tours, family slots) the full diameter;
* tours are covering words on the block-word graph: an Eulerian circuit when
  that graph is balanced, otherwise all block words glued together;
* schedule families share one stage tail and one path, which checks the
  slot; a point's tracking report is its family's with one member;
* gluing and chaotic schedules state their lengths as per-stage budgets, and
  one checker (``check_budgets``) evaluates the inequality families on them;
* both chaotic two-orbit families are piece plans (shared words and private
  orbit runs) that one emitter glues for every member, a window of columns
  at a time (``shift.GluedRows``), so their chaos statistics are read a
  chunk at a time and no member is held at full length.
"""
from __future__ import annotations

import itertools
import json
import math
import operator
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from . import measures
from .errors import (BadCheckpoints, FamilyNotSeparated, GapTooSmall,
                     InfeasibleParams, LeafOutOfRange, MalformedSchedule,
                     MalformedTree, OrbitsNotDisjoint, WordsTooShort)
from .measures import (MarkovMeasure, MeasurePath, _batch_weak_star,
                       _same_space, ks_entropy, refine_path, sample_word,
                       typical_separated_family, weak_star_counts,
                       weak_star_dist, window_counts)
from .shift import (GluedRows, Periodic, SftSpace, SymbolStream, Word,
                    _prefix_rows, block_graph, check_rows, distinct_rows,
                    glue, glue_rows, glue_spans)

_BLOCK_ATTEMPTS = 500  # draws per block before the stage is infeasible
LEAF_ENUMERATION_CAP = 200_000  # BranchTree.leaves walks no larger tree
LEAF_BLOCK = 4096  # leaves BranchTree.leaves glues at once

# --------------------------- covering tours ---------------------------


def _eulerian_circuit(n_nodes: int, src: np.ndarray, dst: np.ndarray
                      ) -> Optional[list[int]]:
    """Edge ids (positions in src and dst) of an Eulerian circuit
    (Hierholzer), or None when the graph is unbalanced or not connected.
    Edges are consumed in sorted order, so the circuit is deterministic."""
    if (np.bincount(src, minlength=n_nodes) !=
            np.bincount(dst, minlength=n_nodes)).any():
        return None
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n_nodes)]
    for eid, (u, v) in enumerate(zip(src.tolist(), dst.tolist())):
        adj[u].append((v, eid))
    for lst in adj:
        lst.sort(reverse=True)  # pop() takes the smallest
    stack = [int(src.min())]
    edge_stack, edge_path = [], []
    while stack:
        v = stack[-1]
        if adj[v]:
            nxt, eid = adj[v].pop()
            stack.append(nxt)
            edge_stack.append(eid)
        else:
            stack.pop()
            if edge_stack:
                edge_path.append(edge_stack.pop())
    if len(edge_path) != len(src):
        return None  # the edge graph is not connected
    return edge_path[::-1]


def dense_tour(space: SftSpace, depth: int) -> Word:
    """A word containing every admissible depth-word as a subword.

    Depth >= 2 uses an Eulerian circuit on the (depth-1)-block graph whenever
    that graph is balanced (a de Bruijn word, the shortest certificate);
    otherwise, and for depth 1, the depth-words are concatenated with
    bridging words.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    gap = space.gap("dense_tour")
    table = space.word_table(depth)
    if depth >= 2:
        graph = block_graph(space, depth - 1)
        circuit = _eulerian_circuit(graph.n_nodes(), graph.src, graph.dst)
        if circuit is not None:
            return space.word(table[circuit[0]].tolist() +
                              table[circuit[1:], -1].tolist())
    return glue(space, map(Word, table.tolist()), gap)


# --------------------------- schedules ---------------------------


@dataclass(frozen=True)
class Stage:
    """One gluing stage: reps typical blocks from alpha, then a covering tour."""
    alpha: MarkovMeasure
    n: int
    reps: int
    tour: Optional[Word]
    zeta: float
    eps: float
    depth: int

    def tour_len(self) -> int:
        return 0 if self.tour is None else len(self.tour)


class Piece(NamedTuple):
    """One glued word of a schedule's point and its span in the point."""
    kind: str                 # anchor | family | block | tour
    stage: Optional[int]      # 1-based; continuation keeps counting upward
    start: int
    end: int


@dataclass
class GluingSchedule:
    space: SftSpace
    stages: list[Stage]
    anchor: Optional[Word] = None
    family_len: int = 0
    family_entropy: Optional[float] = None
    family_eta: Optional[float] = None
    check_depth: int = 2
    gap: Optional[int] = None

    def __post_init__(self):
        index = self.space.gap("GluingSchedule")
        if self.gap is None:
            self.gap = index
        if self.gap < index:
            raise GapTooSmall(f"gap {self.gap} < primitivity index {index}")
        for k, st in enumerate(self.stages, start=1):
            if st.n < self.check_depth:
                raise MalformedSchedule(f"stage {k}: block length {st.n} < "
                                        f"check_depth {self.check_depth}")
        if self.stages and not (self.stages[-1].reps
                                or self.stages[-1].tour_len()):
            # past the built stages the last one repeats, and would add nothing
            raise MalformedSchedule("the last stage has no blocks and no tour")

    # -- static layout (spans only; contents live in emission) --

    def _stage_at(self, k: int) -> Stage:
        """Stage parameters for 1-based index k; beyond the built stages the
        last stage's pattern repeats (finite-horizon continuation)."""
        if not self.stages:
            raise MalformedSchedule("schedule has no stages")
        return self.stages[min(k, len(self.stages)) - 1]

    def layout(self, n: Optional[int] = None) -> list[Piece]:
        """Every glued piece of the emitted point with its ``glue_spans``
        span: the anchor and the family slot, then per stage its blocks and
        its tour.  A missing anchor, slot or tour is an empty piece at the
        end of what is glued before it, so each stage closes with its tour
        piece.  With n None the pieces cover the built stages; with n set,
        they cover as many continued stages as it takes to reach n."""
        head = glue_spans((len(self.anchor) if self.anchor else 0,
                           self.family_len), self.gap)
        pieces = [Piece("anchor", None, *head[0]),
                  Piece("family", None, *head[1])]
        end = head[1][1]
        k = 0
        while (k < len(self.stages)) if n is None else (end < n):
            k += 1
            st = self._stage_at(k)
            kinds = ["block"] * st.reps + ["tour"]
            # the glued past counts as one word, followed as glue would
            spans = glue_spans((end, *[st.n] * st.reps, st.tour_len()),
                               self.gap)[1:]
            pieces += [Piece(kind, k, *span) for kind, span in zip(kinds, spans)]
            end = spans[-1][1]
        return pieces

    def stage_ends(self) -> list[int]:
        """Cumulative length at the end of each built stage (after its tour,
        or after its last block when the stage has no tour)."""
        self._stage_at(1)  # a schedule with no stages has no stage ends
        return [p.end for p in self.layout() if p.kind == "tour"]

    def stretched_alpha(self, n: int) -> MarkovMeasure:
        """The stretched tracking target at horizon n: the source measure of
        the stage whose span contains n (prologue positions use stage 1; a
        bridge belongs to the piece before it)."""
        stage = 1
        for p in self.layout(n):
            if p.start >= n:
                break
            if p.stage is not None and p.end > p.start:
                stage = p.stage
        return self._stage_at(stage).alpha

    # -- serialization --

    def to_json(self) -> str:
        """One record: the space, gap, checking depth, anchor and family
        slot, then one record per stage holding every Stage field."""
        def text(word):
            return None if word is None else word.to_text()

        return json.dumps({
            "space": json.loads(self.space.to_json()), "gap": self.gap,
            "check_depth": self.check_depth, "anchor": text(self.anchor),
            "family": [self.family_len, self.family_entropy, self.family_eta],
            "stages": [{**vars(st), "alpha": json.loads(st.alpha.to_json()),
                        "tour": text(st.tour)} for st in self.stages]})

    @classmethod
    def from_json(cls, text: str) -> "GluingSchedule":
        """Load a record written by :meth:`to_json`: MalformedSchedule names
        a missing or unreadable field or a block below check_depth, GapTooSmall
        a gap below the primitivity index, InfeasibleParams a failed check."""
        record = json.loads(text)

        def read(field: str, convert: Callable):
            try:
                return convert(record[field])
            except (KeyError, TypeError, ValueError) as exc:
                raise MalformedSchedule(f"schedule field {field!r}: {exc!r}")

        def word(t):
            return None if t is None else space.parse(t)

        space = read("space", lambda r: SftSpace.from_json(json.dumps(r)))
        stages = read("stages", lambda records: [Stage(**{
            **r, "alpha": MarkovMeasure.from_json(space, json.dumps(r["alpha"])),
            "tour": word(r["tour"])}) for r in records])
        family = read("family", lambda f: dict(zip(
            ("family_len", "family_entropy", "family_eta"), f, strict=True)))
        return _feasible(cls(space, stages, read("anchor", word), **family,
                             check_depth=read("check_depth", operator.index),
                             gap=read("gap", operator.index)))


# --------------------------- validation ---------------------------


@dataclass(frozen=True)
class CheckEntry:
    name: str
    stage: Optional[int]
    lhs: float
    rhs: float
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class ValidationReport:
    entries: tuple[CheckEntry, ...]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self) -> list[CheckEntry]:
        return [e for e in self.entries if not e.passed]

    def entry(self, name: str, stage: Optional[int] = None) -> CheckEntry:
        for e in self.entries:
            if e.name == name and (stage is None or e.stage == stage):
                return e
        raise KeyError(name)

    def to_json(self) -> str:
        return json.dumps([e.__dict__ for e in self.entries])


class StageBudget(NamedTuple):
    """The lengths one stage spends: reps blocks of length n, extra symbols
    of overhead (tours, excursions), a tracking run of length run, and the
    cumulative length end at the stage's close."""
    n: int
    reps: int
    extra: int
    zeta: float
    eps: float
    run: int
    end: int


def _prefix_domination(k: int, past: int, zeta: float, run: int,
                       note: str = "") -> CheckEntry:
    return CheckEntry("prefix_domination", k, float(past), zeta * run,
                      past <= zeta * run + 1e-9, note)


def check_budgets(budgets: Sequence[StageBudget], start: int,
                  depth: int) -> list[CheckEntry]:
    """The stage inequality families of a schedule, both sides reported.

    stage_ratio: overhead against block length (per-stage dilution);
    window_slack: block-edge windows of the checking depth short against
    eps (bound soundness); prefix_domination: the run dwarfs the whole past
    (start symbols before stage 1); next_stage: the following stage's fixed
    overhead small against the running length; reps_increasing: repetition
    counts strictly grow.
    """
    entries: list[CheckEntry] = []
    past = start
    for k, b in enumerate(budgets, start=1):
        entries.append(CheckEntry("stage_ratio", k, b.extra / b.n, b.zeta,
                                  b.extra / b.n <= b.zeta + 1e-12))
        entries.append(CheckEntry("window_slack", k, (depth - 1) / b.n, b.eps,
                                  (depth - 1) / b.n <= b.eps + 1e-12))
        entries.append(_prefix_domination(k, past, b.zeta, b.run))
        if k < len(budgets):
            overhead = budgets[k].n + budgets[k].extra
            entries.append(CheckEntry(
                "next_stage", k, float(overhead), b.zeta * b.end,
                overhead <= b.zeta * b.end + 1e-9))
        past = b.end
    if len(budgets) >= 2:
        reps = [b.reps for b in budgets]
        entries.append(CheckEntry(
            "reps_increasing", None, 0.0, 1.0,
            all(a < b for a, b in zip(reps, reps[1:])), f"reps={reps}"))
    return entries


def _feasible(s: GluingSchedule) -> GluingSchedule:
    """The schedule, if it passes :func:`validate_schedule`; else
    InfeasibleParams names the first failing check with both sides."""
    for e in validate_schedule(s).failures():
        where = "" if e.stage is None else f" at stage {e.stage}"
        raise InfeasibleParams(f"{e.name}{where}: lhs={e.lhs} rhs={e.rhs}")
    return s


def validate_schedule(s: GluingSchedule) -> ValidationReport:
    """Evaluate the schedule inequality families, reporting both sides:
    :func:`check_budgets` over the stages (each stage's run is everything up
    to its end), plus family_margin: the family size survives the anchor
    burn-in.  An empty anchor counts as none.
    """
    if not s.stages and not s.anchor and not s.family_len:
        return ValidationReport(())
    budgets = [StageBudget(st.n, st.reps, st.tour_len(), st.zeta, st.eps,
                           end, end)
               for st, end in zip(s.stages, s.stage_ends())]
    entries = check_budgets(budgets, member_prefix_len(s), s.check_depth)
    if (s.family_len and s.family_entropy is not None
            and s.family_eta is not None and s.anchor):
        a_len = len(s.anchor)
        h, eta, N = s.family_entropy, s.family_eta, s.family_len
        lhs = N * (h - eta) - math.log(a_len)
        rhs = (a_len + N) * (h - 2 * eta)
        entries.append(CheckEntry(
            "family_margin", None, lhs, rhs, lhs > rhs,
            "log family size after anchor burn-in beats the slowed rate"))
    return ValidationReport(tuple(entries))


# --------------------------- emission ---------------------------


def _mix(*parts: int) -> int:
    out = 0
    for p in parts:
        out = (out * 1_000_003 + int(p) + 1) % 2**61
    return out


def _draw_block(st: Stage, attempt: int, stage_idx: int, rep: int,
                seed: int) -> np.ndarray:
    """Attempt ``attempt`` at rep ``rep``'s block of stage ``stage_idx``:
    the read-only symbol array :func:`sample_word` draws from the stage
    measure, a function of (seed, stage_idx, rep, attempt) alone.  One call
    per attempt; :func:`_stage_blocks` scores the attempts."""
    return sample_word(st.alpha, st.n, seed=_mix(seed, stage_idx, rep, attempt))


def _stage_blocks(st: Stage, depth: int, stage_idx: int,
                  seed: int) -> Iterator[np.ndarray]:
    """The accepted blocks of a stage's reps in order: rep r's block is its
    first attempt whose own empirical measure lies within zeta of the
    stage measure at the checking depth (a nan score fails).

    Reps are drawn in batches of 1, 2, 4, ... reps, each of at most
    ``measures._COUNT_WINDOWS`` symbols and at least one block, so a lazy
    consumer draws at most about twice the blocks it pulls.  A batch's
    attempts are scored together, one ``measures._batch_weak_star`` call
    per attempt round, and only the failed reps are redrawn.  Along a
    periodic orbit ``sample_word`` shares one array per entry state, and
    its score is kept (:func:`_held_scores`).
    InfeasibleParams, with the best distance of the first failed rep, when
    a rep has no accepted attempt within ``_BLOCK_ATTEMPTS``."""
    space, size, lo = st.alpha.space, 1, 0
    shared = measures._walk(st.alpha)[2] is not None  # a periodic orbit
    held: dict[int, tuple[np.ndarray, float]] = {}  # id -> (array, score)
    while lo < st.reps:
        hi = min(lo + size, lo + max(measures._COUNT_WINDOWS // st.n, 1),
                 st.reps)
        out, todo = {}, range(lo, hi)
        best = dict.fromkeys(todo, math.inf)
        last, held = held, {}
        for attempt in range(_BLOCK_ATTEMPTS):
            drawn = [_draw_block(st, attempt, stage_idx, r, seed)
                     for r in todo]
            ds = (_held_scores(st, depth, drawn, held, last) if shared else
                  _batch_weak_star(space, np.stack(drawn), st.alpha,
                                   depth).tolist())
            for r, x, d in zip(todo, drawn, ds):
                if d <= st.zeta:
                    out[r] = x
                else:
                    best[r] = min(best[r], d)
                    held.pop(id(x), None)  # only accepted draws are held
            todo = [r for r in todo if r not in out]
            if not todo:
                break
        else:
            raise InfeasibleParams(
                f"stage {stage_idx}: no draw within zeta={st.zeta} after "
                f"{_BLOCK_ATTEMPTS} attempts (best {best[todo[0]]:.4f}); "
                f"increase the block length or zeta")
        yield from (out[r] for r in range(lo, hi))
        lo, size = hi, 2 * size


def _held_scores(st: Stage, depth: int, drawn: list[np.ndarray],
                 held: dict, last: dict) -> list[float]:
    """The score of each array an attempt drew, scoring each distinct array
    once.  A score is keyed on the array's identity and held with the
    array, in ``held`` for the batch that drew it; ``last``, the accepted
    arrays of the batch before, is read too, so an array every batch
    accepts is scored once per stage, and none is held past the batch
    after the one that accepted it."""
    for x in drawn:
        if id(x) in last:
            held.setdefault(id(x), last[id(x)])
    fresh = {id(x): x for x in drawn if id(x) not in held}
    if fresh:
        ds = _batch_weak_star(st.alpha.space, np.stack(list(fresh.values())),
                              st.alpha, depth)
        held.update(zip(fresh, zip(fresh.values(), ds.tolist())))
    return [held[id(x)][1] for x in drawn]


def _stage_words(s: GluingSchedule,
                 seed: int) -> Iterator[Union[np.ndarray, Word]]:
    """The stage part's blocks (symbol arrays) and tours in order (no
    prologue), infinite and deterministic in seed; blocks are drawn as they
    are pulled, a batch of reps at a time (:func:`_stage_blocks`)."""
    k = 1
    while True:
        st = s._stage_at(k)
        yield from _stage_blocks(st, s.check_depth, k, seed)
        if st.tour is not None:
            yield st.tour
        k += 1


def emit_point(s: GluingSchedule, seed: int,
               family_word: Optional[Word] = None) -> SymbolStream:
    """The constructed point of a schedule as a resumable stream: anchor,
    optional family slot, then stage blocks and tours, joined by bridges.
    Deterministic in (schedule, seed, family word)."""
    if family_word is not None:
        _check_slot(s, _family_rows(s.space, [family_word]))

    prologue = [w for w in (s.anchor, family_word) if w is not None]
    return SymbolStream(
        s.space, lambda: itertools.chain(prologue, _stage_words(s, seed)),
        s.gap, label=f"gk-point(seed={seed})")


# --------------------------- tracking ---------------------------


def tracking_bound(s: GluingSchedule, n: int) -> float:
    """Right-hand side of the empirical-tracking estimate at horizon n.

    Complete measure blocks inside [0, n) are charged zeta + eps plus their
    source's distance to the stretched target; everything else (anchor,
    family slot, tours, bridges, cut segments) is charged the diameter.
    """
    if n < 1:
        raise ValueError("n must be positive")
    target = s.stretched_alpha(n)
    bound = 0.0
    end = 0
    for p in s.layout(n):
        bound += (min(p.start, n) - end) / n  # the bridge before p
        if p.start >= n:
            break
        end = min(p.end, n)
        frac = (end - p.start) / n
        if p.kind == "block" and p.end <= n:
            st = s._stage_at(p.stage)
            drift = weak_star_dist(st.alpha, target, s.check_depth)
            bound += frac * min(1.0, st.zeta + st.eps + drift)
        else:
            bound += frac
    return bound


@dataclass(frozen=True)
class TrackingRow:
    n: int
    observed: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.observed <= self.bound + 1e-12


def _checkpoints(s: GluingSchedule,
                 checkpoints: Optional[Sequence[int]]) -> list[int]:
    """The sorted tracking horizons, the stage ends by default."""
    if checkpoints is not None:
        cps = sorted(checkpoints)
    else:
        cps = s.stage_ends() if s.stages else []
    if not cps:
        raise BadCheckpoints("no tracking checkpoints: pass at least one "
                             "horizon or a schedule with stages")
    if cps[0] < 1:
        raise BadCheckpoints(
            f"tracking checkpoints must be positive horizons; got {cps[0]}")
    return cps


def tracking_report(s: GluingSchedule, seed: int,
                    checkpoints: Optional[Sequence[int]] = None,
                    family_word: Optional[Word] = None) -> list[TrackingRow]:
    """Observed weak* distance of the emitted point's empirical measure to
    the stretched target, against the tracking bound, per checkpoint: the
    one-member case of :func:`family_tracking_report`."""
    word = Word(()) if family_word is None else family_word
    report = family_tracking_report(s, [word], seed, checkpoints)
    return [TrackingRow(n=n, observed=obs, bound=b) for n, obs, b
            in zip(report.checkpoints, report.rows[0].tolist(), report.bounds)]


# --------------------------- separated families ---------------------------


def member_prefix_len(s: GluingSchedule) -> int:
    """Length of the member-specific prefix (anchor, bridges, family slot);
    emitted family streams agree from this position on, where each continues
    with the schedule's one stage tail."""
    anchor_len = len(s.anchor) if s.anchor is not None else 0
    return glue_spans((anchor_len, s.family_len, 1), s.gap)[-1][0]


def _family_rows(space: SftSpace,
                 family: Union[np.ndarray, Sequence[Word]]) -> np.ndarray:
    """A family as the rows of one array of ``space.symbol_dtype``: a 2-d
    symbol array, or words of one length; ValueError for words of several
    lengths or a symbol outside the alphabet."""
    if not isinstance(family, np.ndarray):
        words = list(family)
        widths = {len(w) for w in words}
        if len(widths) > 1:
            raise ValueError("family words must share one slot length")
        family = _prefix_rows(words, widths.pop() if words else 0)
    if family.ndim != 2:
        raise ValueError("a family array must be 2-d, one member per row")
    if family.size and (family.min() < 0 or family.max() >= space.m):
        raise ValueError(f"family symbols must lie in 0..{space.m - 1}")
    return family.astype(space.symbol_dtype, copy=False)


def _check_slot(s: GluingSchedule, rows: np.ndarray) -> None:
    """Family rows fill the schedule's slot; the empty word stands for a
    point emitted without one."""
    if len(rows) and s.family_len and rows.shape[1] not in (0, s.family_len):
        raise ValueError(f"family word {Word(rows[0].tolist()).to_text()!r} "
                         f"has length {rows.shape[1]}, not the slot length "
                         f"{s.family_len}")


def _family_start(s: GluingSchedule, rows: np.ndarray,
                  seed: int) -> tuple[SymbolStream, np.ndarray]:
    """The path every schedule family takes: the checks, the stage part of
    the point (blocks and tours joined by bridges) as one stream drawn for
    the whole family, and each member's prefix row, which it follows."""
    _check_slot(s, rows)
    if distinct_rows(rows) != len(rows):
        raise FamilyNotSeparated("family contains duplicate words")
    tail = SymbolStream(s.space, lambda: _stage_words(s, seed), s.gap,
                        label=f"stage-tail(seed={seed})")
    anchor = s.anchor or Word(())
    check_rows(s.space, "anchor", anchor.to_array()[None])
    check_rows(s.space, "member", rows)  # bridges and tail are admissible
    pieces = (anchor, rows, tail.materialize(1))
    return tail, glue_rows(s.space, pieces, len(rows), s.gap)[:, :-1]


def emit_separated_family(s: GluingSchedule,
                          family: Union[np.ndarray, Sequence[Word]],
                          horizon: int, seed: int) -> np.ndarray:
    """One stream prefix per family member (a row of a symbol array, or a
    word), as the rows of one read-only (members, horizon) array: the
    member's prefix followed by the schedule's stage tail, drawn once for
    the whole family.  Distinct family words force distinct prefixes, so
    the output is exactly (prefix-length, 1/2)-separated with full
    cardinality."""
    rows = _family_rows(s.space, family)
    out = np.empty((len(rows), max(horizon, 0)), dtype=rows.dtype)
    if len(rows):
        tail, pre = _family_start(s, rows, seed)
        need = glue_spans((len(s.anchor) if s.anchor else 0, rows.shape[1]),
                          s.gap)[-1][1]
        if horizon < need:
            raise WordsTooShort(f"horizon {horizon} below prefix length "
                                f"{need}")
        p = min(pre.shape[1], horizon)
        out[:, :p] = pre[:, :p]
        out[:, p:] = tail.materialize(horizon - p)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class FamilyTrackingReport:
    """Observed weak* distances of a family's points to the stretched
    target against the tracking bounds: ``rows`` is a read-only
    (members, checkpoints) float array, one row per member in family
    order; ``observed_max`` is its column maxima.  ``==`` and hashing
    leave ``rows`` out (an array has no single truth value); compare it
    with ``rows.tolist()``."""
    checkpoints: tuple[int, ...]
    bounds: tuple[float, ...]
    observed_max: tuple[float, ...]       # per checkpoint, max over members
    rows: np.ndarray = field(compare=False)  # per member, per checkpoint

    @property
    def all_ok(self) -> bool:
        return all(o <= b + 1e-12
                   for o, b in zip(self.observed_max, self.bounds))


_TRACK_BLOCK = 1 << 12  # members family_tracking_report counts at once


def family_tracking_report(s: GluingSchedule,
                           family: Union[np.ndarray, Sequence[Word]],
                           seed: int,
                           checkpoints: Optional[Sequence[int]] = None
                           ) -> FamilyTrackingReport:
    """Tracking check for every family member (a row of a symbol array, or
    a word) at every checkpoint.

    A member's first n windows are its prefix windows starting before n and
    the first n - p windows of the shared tail (p the prefix length).  So
    :func:`window_counts` counts the prefix windows of a block of
    ``_TRACK_BLOCK`` members into one integer matrix (members by admissible
    depth-words) per checkpoint, and the tail windows every member shares
    into one count row per checkpoint, the tail as its one row; the numbers
    equal the direct per-member computation exactly at every checkpoint.
    """
    rows = _family_rows(s.space, family)
    if not len(rows):
        raise ValueError("empty family")
    cps = _checkpoints(s, checkpoints)
    L = s.check_depth
    tail, pre = _family_start(s, rows, seed)
    p = pre.shape[1]
    # the tail windows the last checkpoint reads
    t = tail.materialize(max(cps[-1] - p, 0) + L - 1)
    tail_counts = window_counts(s.space, t[None], L,
                                {max(n - p, 0) for n in cps})
    shared = [(min(n, p), tail_counts[max(n - p, 0)], n,
               s.stretched_alpha(n)) for n in cps]
    observed = np.empty((len(rows), len(cps)))
    for lo in range(0, len(rows), _TRACK_BLOCK):
        block = pre[lo:lo + _TRACK_BLOCK]
        head = np.hstack([block, np.broadcast_to(t[:L - 1],
                                                 (len(block), L - 1))])
        pre_counts = window_counts(s.space, head, L, {c[0] for c in shared})
        for j, (stop, tail_n, n, target) in enumerate(shared):
            observed[lo:lo + len(block), j] = weak_star_counts(
                pre_counts[stop] + tail_n, n, target, L)
    observed.flags.writeable = False
    return FamilyTrackingReport(
        checkpoints=tuple(cps),
        bounds=tuple(tracking_bound(s, n) for n in cps),
        observed_max=tuple(observed.max(axis=0).tolist()), rows=observed)


# --------------------------- schedule builder ---------------------------


def _stage_end(past: int, n: int, reps: int, tail: Sequence[int],
               gap: int) -> int:
    """``glue_spans((past, *[n] * reps, *tail), gap)[-1][1]`` without the
    list of reps block lengths: every block after the first adds n + gap - 1
    symbols (n >= 1)."""
    end = glue_spans((past, *[n] * min(reps, 1), *tail), gap)[-1][1]
    return end + max(reps - 1, 0) * (n + gap - 1)


def _smallest_reps(end_at: Callable[[int], int], reps: int,
                   need: float) -> int:
    """The repetition count a planner takes for a stage: ``reps`` when the
    stage then ends at or past ``need``, else the count that the linear
    estimate gives, stepping at least one at a time.  ``end_at(r)`` is the
    glued length up to the stage's end with r blocks."""
    base = end_at(0)
    per_rep = end_at(1) - base
    while end_at(reps) < need:
        reps = max(reps + 1, math.ceil((need - base) / per_rep))
        if reps > 10 ** 9:
            raise InfeasibleParams("repetition count exploded")
    return reps


def _block_len(extra: int, zeta: float, eps: float, depth: int, gap: int,
               min_len: int) -> int:
    """A stage's block length: at least gap, min_len and the checking depth,
    with the stage's extra symbols at most a zeta share of one block, the
    block-edge windows at most an eps share, and 1/zeta**2 symbols."""
    return max(gap, min_len, depth, math.ceil(extra / zeta),
               math.ceil((depth - 1) / eps), math.ceil(1.0 / zeta ** 2))


def build_gk_schedule(space: SftSpace, K: Union[MeasurePath, MarkovMeasure],
                      anchor: Optional[Word] = None, stages: int = 3,
                      *, check_depth: int = 2,
                      family_len: int = 0,
                      family_entropy: Optional[float] = None,
                      family_eta: Optional[float] = None,
                      zetas: Optional[Sequence[float]] = None,
                      epsilons: Optional[Sequence[float]] = None,
                      min_block_len: int = 8) -> GluingSchedule:
    """Build a validated schedule whose emitted points are generic for the
    target set K, visit every cylinder over and over (tours), and start in
    the anchor cylinder when one is given.

    Block lengths absorb the stage tours; repetition counts are the smallest
    satisfying the domination inequalities; the visiting order of K follows
    the forward-and-back mesh refinement of the path.  InfeasibleParams
    names the first inequality of :func:`validate_schedule` the plan fails.
    """
    gap = space.gap("build_gk_schedule")
    _same_space(K, space, "build_gk_schedule: the target and the space")
    if stages < 1:
        raise ValueError("need at least one stage")
    path = K if isinstance(K, MeasurePath) else MeasurePath([K])

    alphas: list[MarkovMeasure] = []
    mesh = 1
    while len(alphas) < stages:
        alphas.extend(refine_path(path, mesh))
        mesh += 1
    alphas = alphas[:stages]

    zs = (list(zetas) if zetas is not None
          else [2.0 ** -(k + 1) for k in range(stages)])
    es = (list(epsilons) if epsilons is not None
          else [2.0 ** -(k + 1) for k in range(stages)])
    if len(zs) != stages or len(es) != stages:
        raise ValueError("zeta/eps sequences must match the stage count")
    if min(zs + es) <= 0:
        raise InfeasibleParams(f"zeta and eps must be positive; got "
                               f"zetas={zs}, epsilons={es}")

    tours = [dense_tour(space, k + 1) for k in range(stages)]
    ns = [_block_len(len(tours[k]), zs[k], es[k], check_depth, gap,
                     min_block_len)
          for k in range(stages)]

    # the glued past counts as one word: the stage follows it as glue would
    anchor_len = 0 if anchor is None else len(anchor)
    past = glue_spans((anchor_len, family_len), gap)[-1][1]
    # as check_budgets reads it, stage 1 dominates the whole member prefix
    dominated = glue_spans((anchor_len, family_len, 1), gap)[-1][0]
    built: list[Stage] = []
    reps_prev = 0
    for k in range(stages):
        def end_at(reps: int) -> int:
            return _stage_end(past, ns[k], reps, (len(tours[k]),), gap)

        need = dominated / zs[k]
        if k + 1 < stages:
            need = max(need, (ns[k + 1] + len(tours[k + 1])) / zs[k])
        N = _smallest_reps(end_at, max(1, reps_prev + 1), need)
        built.append(Stage(alpha=alphas[k], n=ns[k], reps=N, tour=tours[k],
                           zeta=zs[k], eps=es[k], depth=k + 1))
        past = dominated = end_at(N)
        reps_prev = N

    return _feasible(GluingSchedule(
        space=space, stages=built, anchor=anchor, family_len=family_len,
        family_entropy=family_entropy, family_eta=family_eta,
        check_depth=check_depth, gap=gap))


# --------------------------- branching trees ---------------------------


@dataclass(frozen=True)
class TreeComponent:
    weight: Fraction
    measure: MarkovMeasure
    words: tuple[Word, ...]


@dataclass(frozen=True)
class TreeStage:
    n: int
    zeta: float
    components: tuple[TreeComponent, ...]
    options: tuple[Word, ...]   # per-repetition branch words (with bridges)


@dataclass(frozen=True)
class BranchTree:
    """Product-family branching tree carrying its uniform counting measure.

    Options within a stage share one positive length and a bridge is fixed
    by its two neighbouring symbols, so a leaf's stage-s prefix determines
    and is determined by its option words at stages 1..s: both certificates
    are closed forms over the option sets, and :meth:`leaf` glues any one
    leaf from its index without walking the others."""
    space: SftSpace
    gap: int
    eta: float
    h_star: float
    stages: tuple[TreeStage, ...]

    def __post_init__(self):
        for s_idx, st in enumerate(self.stages, start=1):
            lengths = sorted({len(o) for o in st.options})
            if len(lengths) != 1 or lengths[0] == 0:
                raise MalformedTree(
                    f"stage {s_idx} needs options of one positive length; "
                    f"found lengths {lengths}")

    def option_counts(self) -> list[int]:
        return [len(st.options) for st in self.stages]

    def leaf_count(self, depth: Optional[int] = None) -> int:
        depth = len(self.stages) if depth is None else depth
        out = 1
        for st in self.stages[:depth]:
            out *= len(st.options)
        return out

    def leaf_weight(self) -> Fraction:
        return Fraction(1, self.leaf_count())

    def stage_spans(self) -> list[tuple[int, int]]:
        """The (start, end) of each stage's option word inside every leaf;
        the bridge in front of a stage ends where its span starts."""
        return glue_spans((len(st.options[0]) for st in self.stages), self.gap)

    def prefix_ends(self) -> list[int]:
        """Cumulative leaf length at each stage end (bridges included)."""
        return [end for _, end in self.stage_spans()]

    def label(self, index: int) -> tuple[int, ...]:
        """The option chosen at each stage by leaf ``index`` of
        :meth:`leaves`: the index in mixed radix over :meth:`option_counts`,
        stage 1 the most significant digit.  LeafOutOfRange names an index
        outside [0, leaf_count())."""
        total = self.leaf_count()
        if not 0 <= index < total:
            raise LeafOutOfRange(f"leaf index {index} outside [0, {total})")
        digits = []
        for count in reversed(self.option_counts()):
            index, digit = divmod(index, count)
            digits.append(digit)
        return tuple(reversed(digits))

    def leaf(self, index: int) -> Word:
        """Leaf ``index`` of :meth:`leaves`, its options glued with the
        space's bridge memo; any index of a tree of any size."""
        return glue(self.space, (st.options[c] for st, c in
                                 zip(self.stages, self.label(index))), self.gap)

    def leaves(self) -> Iterator[tuple[tuple[int, ...], Word]]:
        """Every (label, leaf word) in lexicographic label order, glued
        LEAF_BLOCK leaves at a time from each stage's options picked by the
        labels' digits.  A tree of more than LEAF_ENUMERATION_CAP leaves
        raises InfeasibleParams before any leaf is glued."""
        count = self.leaf_count()
        if count > LEAF_ENUMERATION_CAP:
            raise InfeasibleParams(f"{count} leaves exceed the enumeration "
                                   f"cap {LEAF_ENUMERATION_CAP}")
        counts = self.option_counts()
        options = [np.array([o.symbols for o in st.options])
                   for st in self.stages]
        labels = itertools.product(*map(range, counts))

        def blocks():
            for lo in range(0, count, LEAF_BLOCK):
                index = np.arange(lo, min(lo + LEAF_BLOCK, count))
                picks = [o[d] for o, d in
                         zip(options, np.unravel_index(index, counts or 1))]
                rows = glue_rows(self.space, picks, len(index), self.gap)
                # rows first: zip stops on them without drawing a label
                for row, label in zip(rows, labels):
                    yield label, Word(row.tolist())

        return blocks()

    def prefix_distinct_report(self) -> list[CheckEntry]:
        """Distinct labels give distinct stage-end prefixes: the prefixes
        number the product of the distinct option counts so far."""
        out = []
        got = 1
        for s_idx, st in enumerate(self.stages, start=1):
            got *= len(set(st.options))
            expected = self.leaf_count(s_idx)
            out.append(CheckEntry("prefix_distinct", s_idx, float(got),
                                  float(expected), got == expected))
        return out

    def mass_bound_report(self) -> list[CheckEntry]:
        """Exact-counting Bowen-ball mass bound: the counting measure of the
        leaves sharing a stage-end prefix never exceeds
        exp(-M_s (H* - 2 eta - zeta_s)).  The heaviest ball holds the largest
        option multiplicities so far times the option counts after."""
        ends = self.prefix_ends()
        counts = self.option_counts()
        total = self.leaf_count()
        out = []
        head = 1
        for s_idx, (end, st) in enumerate(zip(ends, self.stages), start=1):
            head *= max(Counter(st.options).values())
            max_mass = Fraction(head * math.prod(counts[s_idx:]), total)
            lhs = math.log(max_mass.numerator) - math.log(max_mass.denominator)
            rhs = -end * (self.h_star - 2 * self.eta - st.zeta)
            out.append(CheckEntry(
                "ac_mass", s_idx, lhs, rhs, lhs <= rhs + 1e-12,
                f"max ball mass {max_mass} at prefix {end}"))
        return out


def build_branch_tree(space: SftSpace, K: MeasurePath, eta: float, depth: int,
                      seed: int, *, stage_len: int = 12, delta: float = 0.05,
                      weights: Optional[Sequence[Fraction]] = None,
                      size_margin: float = 1.2) -> BranchTree:
    """Branching tree whose per-stage options are products of component
    separated families, sized so the exact counting-measure mass bound holds
    at every stage.

    Components are the path's checkpoints mixed with rational weights (the
    honest convex combination); per-component family targets come from the
    worst-stage mass threshold with a safety margin.  ShortFamily from the
    component construction propagates.  Nothing walks the leaves, so any
    depth builds; only :meth:`BranchTree.leaves` is capped.
    """
    gap = space.gap("build_branch_tree")
    _same_space(K, space, "build_branch_tree: the target and the space")
    if depth < 1 or eta <= 0:
        raise ValueError("need depth >= 1 and eta > 0")
    comps = K.checkpoints
    for mu in comps:
        if not mu.is_ergodic:
            raise ValueError("branch-tree components must be ergodic")
    p = len(comps)
    ws = list(weights) if weights is not None else [Fraction(1, p)] * p
    if sum(ws) != 1:
        raise ValueError("component weights must sum to 1")
    h_star = K.max_checkpoint_entropy() - eta
    zetas = [eta * (0.75 ** s) for s in range(1, depth + 1)]

    lens = [int(w * stage_len) for w in ws]
    lens[-1] = stage_len - sum(lens[:-1])
    if any(l < max(gap, 2) for l in lens):
        raise InfeasibleParams("stage_len too small for the component split")
    # a leaf spends one glued option and the bridge after it per stage
    stride = glue_spans((*lens, 1), gap)[-1][0]

    rate_req = max(h_star - 2 * eta - z for z in zetas)
    product_target = math.exp(stride * max(rate_req, 0.0) * size_margin)

    stages: list[TreeStage] = []
    for s_idx in range(depth):
        comps_built = []
        option_parts: list[np.ndarray] = []  # each component's word rows
        for c_idx, (mu, a, l) in enumerate(zip(comps, ws, lens)):
            t_i = max(2, math.ceil(product_target ** float(a)))
            h_i = ks_entropy(mu)
            eta_i = h_i - math.log(t_i) / l
            if eta_i <= 0:
                raise InfeasibleParams(
                    f"component target {t_i} unreachable at length {l}; "
                    f"increase stage_len")
            fam = typical_separated_family(
                mu, l, delta, eta_i, seed=_mix(seed, s_idx, c_idx),
                typical_tol=max(eta_i, 0.2))
            comps_built.append(
                TreeComponent(a, mu, tuple(map(Word, fam[:t_i].tolist()))))
            option_parts.append(fam[:t_i])
        # the options in itertools.product order of the component words,
        # glued as one member array
        counts = [len(rows) for rows in option_parts]
        index = np.arange(math.prod(counts))
        picks = [rows[d] for rows, d in
                 zip(option_parts, np.unravel_index(index, counts))]
        options = glue_rows(space, picks, len(index), gap)
        stages.append(TreeStage(n=stage_len, zeta=zetas[s_idx],
                                components=tuple(comps_built),
                                options=tuple(map(Word, options.tolist()))))
    tree = BranchTree(space=space, gap=gap, eta=eta, h_star=h_star,
                      stages=tuple(stages))
    report = tree.mass_bound_report()
    if not all(e.passed for e in report):
        raise InfeasibleParams(
            f"mass bound violated: {[e for e in report if not e.passed]}")
    return tree


# --------------------------- chaotic families ---------------------------


def _orbit_gap(space: SftSpace, lam1: Word, lam2: Word) -> float:
    """min over rotations of the distance between two periodic orbits:
    2**(-t), t the longest wait of a rotation pair for a disagreement along
    its cycle; row k of ``differ`` runs twice round the one through (0, k)."""
    p1, p2 = len(lam1), len(lam2)
    t = np.arange(2 * p1 * p2 // math.gcd(p1, p2))
    differ = lam1.to_array()[t % p1] != lam2.to_array()[
        (np.arange(math.gcd(p1, p2))[:, None] + t) % p2]
    if not differ.any(axis=1).all():
        raise OrbitsNotDisjoint(
            f"orbits of {lam1.to_text()} and {lam2.to_text()} meet")
    at = np.where(differ, t, t[-1])  # a disagreement's own step
    ahead = np.minimum.accumulate(at[:, ::-1], axis=1)[:, ::-1]  # the next
    return 2.0 ** -int((ahead - t)[:, :len(t) // 2].max())


def _check_two_orbit(space: SftSpace, lambda1: Word, lambda2: Word,
                     xis: Sequence[Sequence[int]], who: str
                     ) -> tuple[float, list[tuple[int, ...]]]:
    """The orbit gap eps* and the xi sequences as tuples, once the space is
    primitive, both orbits are periodically admissible and disjoint, and the
    sequences are distinct and over {1, 2}."""
    space.gap(who)
    for name, lam in (("lambda1", lambda1), ("lambda2", lambda2)):
        if not lam.symbols:
            raise ValueError(f"orbit generator {name} is empty")
        if not space.is_admissible(lam.symbols + lam.symbols):
            raise ValueError("orbit generators must be periodically admissible")
    eps_star = _orbit_gap(space, lambda1, lambda2)
    xi_list = [tuple(int(v) for v in xi) for xi in xis]
    if len(set(xi_list)) != len(xi_list):
        raise ValueError("xi prefixes must be distinct")
    if any(v not in (1, 2) for xi in xi_list for v in xi):
        raise ValueError("xi entries must be 1 or 2")
    return eps_star, xi_list


# A two-orbit plan piece: a symbol array or Word every member shares, or a
# private (slot, length) run that each member fills with the orbit xi[slot]
# selects.
_Piece = Union[np.ndarray, Word, tuple[int, int]]


def _emit_two_orbit(space: SftSpace, orbits: tuple[Word, Word],
                    xis: Sequence[tuple[int, ...]], plan: Sequence[_Piece],
                    horizon: int) -> tuple[GluedRows, list[tuple[int, int]]]:
    """The members, one row per xi, glued a window at a time and cut at
    horizon: a row is the plan's pieces glued, a private run of length n
    the :class:`~sftlab.shift.Periodic` run of the orbit its xi selects.
    Also the span of each piece in the glued plan, which no xi changes."""
    gap = space.gap("_emit_two_orbit")
    slots = 1 + max((p[0] for p in plan if isinstance(p, tuple)), default=-1)
    for xi in xis:
        if len(xi) < slots:
            raise ValueError(
                f"xi prefix length {len(xi)} < {slots} orbit selections")
    picks = np.array([xi[:slots] for xi in xis], dtype=np.intp).reshape(
        len(xis), slots) - 1
    period = math.lcm(*map(len, orbits))
    cycles = np.stack([np.resize(o.to_array(), period) for o in orbits])
    pieces = [Periodic(cycles[picks[:, p[0]]], p[1])
              if isinstance(p, tuple) else p for p in plan]
    spans = glue_spans((p[1] if isinstance(p, tuple) else len(p)
                        for p in plan), gap)
    return GluedRows(space, pieces, len(xis), gap, horizon), spans


class _TwoOrbitMembers:
    """A two-orbit family's members: ``rows`` glues any window of them, and
    ``members`` is the whole [0, length) window keyed by xi, glued on first
    read."""

    @cached_property
    def members(self) -> dict:
        return dict(zip(self.xis, self.rows.window(0, self.rows.length)))


def _chaos_budget(st: Stage, k: int, ntilde: int, end: int) -> StageBudget:
    """Chaotic stage k's budget: the tour and k excursions of length ntilde
    are its overhead, and its mu0 blocks are the tracking run."""
    return StageBudget(st.n, st.reps, st.tour_len() + k * ntilde, st.zeta,
                       st.eps, st.n * st.reps, end)


@dataclass(frozen=True)
class ChaoticFamily(_TwoOrbitMembers):
    space: SftSpace
    xis: tuple[tuple[int, ...], ...]
    rows: GluedRows                  # one row per xi, glued a window at a time
    eps_star: float
    stages: tuple[Stage, ...]        # alpha = mu0, depth = the tour depth
    ntilde: int                      # the length of every excursion
    stage_ends: tuple[int, ...]
    mu0_run_ends: tuple[int, ...]
    excursion_spans: tuple[tuple[tuple[int, int, int], ...], ...]
    horizon: int
    validation: ValidationReport


def emit_chaotic_family(space: SftSpace, mu0: MarkovMeasure, lambda1: Word,
                        lambda2: Word, xis: Sequence[Sequence[int]],
                        horizon: int, seed: int, *,
                        anchor: Optional[Word] = None,
                        check_depth: int = 2, min_block_len: int = 8,
                        max_tour_depth: int = 6) -> ChaoticFamily:
    """One stream per {1,2}-sequence prefix: long runs tracking mu0, brief
    excursions to the two disjoint periodic orbits selected by the sequence,
    and covering tours; every mu0 block and tour is shared across members.

    Sequences differing at index u force a window of distance >= eps*/2 in
    every stage from u on, while the mu0 runs dominate in length so the
    closeness density climbs toward one.  The plan takes stages (at most
    32) while one more, sized as the last, still ends within horizon.
    """
    _same_space(mu0, space, "emit_chaotic_family: mu0 and the space")
    eps_star, xi_list = _check_two_orbit(space, lambda1, lambda2, xis,
                                         "emit_chaotic_family")
    if anchor is not None and not space.is_admissible(anchor.symbols):
        raise InfeasibleParams(f"anchor {anchor.to_text()!r} is not "
                               "admissible")
    if max_tour_depth < 1:
        raise InfeasibleParams(f"max_tour_depth must be at least 1, got "
                               f"{max_tour_depth}")
    gap = space.gap("emit_chaotic_family")
    L = check_depth
    ntilde = max(6, gap, 2 * max(len(lambda1), len(lambda2)))
    anchor_len = len(anchor) if anchor is not None else 0

    # each stage's shape (reps 0), independent of repetition counts
    tours: dict[int, Word] = {}  # one tour per depth
    shapes: list[Stage] = []
    for k in range(1, 33):
        zeta = 2.0 ** -(k + 1)
        eps = min(2.0 ** -(k + 1), eps_star / 2 ** (k + 2))
        depth = min(k, max_tour_depth)
        if depth not in tours:
            tours[depth] = dense_tour(space, depth)
        n_k = _block_len(len(tours[depth]) + k * ntilde, zeta,
                         max(eps, 1e-9), L, gap, min_block_len)
        shapes.append(Stage(alpha=mu0, n=n_k, reps=0, tour=tours[depth],
                            zeta=zeta, eps=eps, depth=depth))

    # one forward pass: stage k sized as the last stage ends the plan of k
    # stages; sized for the next stage's overhead it continues the plan
    stages: Optional[list[Stage]] = None
    sized: list[Stage] = []
    past = anchor_len
    for k, st in enumerate(shapes, start=1):
        def end_at(reps: int) -> int:
            return _stage_end(past, st.n, reps,
                              (*[ntilde] * k, st.tour_len()), gap)

        N = max(sized[-1].reps + 1 if sized else 1,
                math.ceil(max(past, 1) / (st.zeta * st.n)))
        if end_at(N) > horizon:
            break
        stages = sized + [replace(st, reps=N)]
        if k == len(shapes):
            break
        nxt = shapes[k]
        overhead = nxt.n + (k + 1) * ntilde + nxt.tour_len()
        N = _smallest_reps(end_at, N, overhead / st.zeta)
        sized.append(replace(st, reps=N))
        past = end_at(N)
    if stages is None:
        raise InfeasibleParams(f"horizon {horizon} too short for one stage")

    plan: list[_Piece] = [] if anchor is None else [anchor]
    run_last, excursions, tour_at = [], [], []
    for k, st in enumerate(stages, start=1):
        plan += _stage_blocks(st, L, k, seed)
        run_last.append(len(plan) - 1)
        excursions.append(range(len(plan), len(plan) + k))
        plan += [(q, ntilde) for q in range(k)]
        tour_at.append(len(plan))
        plan.append(st.tour)
    rows, spans = _emit_two_orbit(space, (lambda1, lambda2), xi_list, plan,
                                  horizon)

    ends = [spans[i][1] for i in tour_at]
    validation = ValidationReport(tuple(check_budgets(
        [_chaos_budget(st, k, ntilde, end)
         for k, (st, end) in enumerate(zip(stages, ends), start=1)],
        anchor_len, L)))
    return ChaoticFamily(
        space=space, xis=tuple(xi_list), rows=rows, eps_star=eps_star,
        stages=tuple(stages), ntilde=ntilde, stage_ends=tuple(ends),
        mu0_run_ends=tuple(spans[i][1] for i in run_last),
        excursion_spans=tuple(
            tuple((q, *spans[i]) for q, i in enumerate(ex, start=1))
            for ex in excursions),
        horizon=horizon, validation=validation)


@dataclass(frozen=True)
class Dc1Family(_TwoOrbitMembers):
    """Alternating-domination variant: shared runs and selected-orbit runs
    take turns dwarfing the whole past, so pairs separate with density near
    one at some scales and agree with density near one at every scale."""
    space: SftSpace
    xis: tuple[tuple[int, ...], ...]
    rows: GluedRows                  # one row per xi, glued a window at a time
    eps_star: float
    stage_ends: tuple[int, ...]      # checkpoint after each dominating run
    stage_kinds: tuple[str, ...]     # "shared" | "selected"
    horizon: int
    validation: ValidationReport


def emit_dc1_family(space: SftSpace, mu0: MarkovMeasure, lambda1: Word,
                    lambda2: Word, xis: Sequence[Sequence[int]],
                    horizon: int, seed: int, *,
                    check_depth: int = 2, zeta0: float = 0.05,
                    min_block_len: int = 16) -> Dc1Family:
    """Distributional-chaos witnesses for a periodic (non-fixed-point)
    tracking measure: odd stages emit one shared mu0-sampled run, even
    stages a run of the orbit the sequence selects, each run at least
    1/zeta_k times longer than everything before it (zeta_k halving from
    zeta0 on).

    At a checkpoint ending a selected run past the first disagreement the
    pair is eps*-separated on all but a zeta fraction of indices; at a
    checkpoint ending a shared run it is 0-close on all but a zeta
    fraction, which is exactly the DC1 statistics pattern.
    """
    _same_space(mu0, space, "emit_dc1_family: mu0 and the space")
    eps_star, xi_list = _check_two_orbit(space, lambda1, lambda2, xis,
                                         "emit_dc1_family")
    if not 0 < zeta0 < math.inf:
        raise InfeasibleParams(f"zeta0 must be positive and finite; "
                               f"got zeta0={zeta0}")
    gap = space.gap("emit_dc1_family")

    # run lengths: each run dwarfs the whole glued past
    lengths: list[int] = []
    zetas: list[float] = []
    past = 0
    while True:
        zeta = zeta0 * 2.0 ** -len(lengths)
        run = max(min_block_len, math.ceil(max(past, 1) / zeta))
        end = glue_spans((past, run), gap)[-1][1]
        if end > horizon:
            break
        lengths.append(run)
        zetas.append(zeta)
        past = end
    if not lengths:
        raise InfeasibleParams(f"horizon {horizon} too short for one run")

    # odd stages share one mu0-sampled run, even stages select an orbit
    plan = [next(_stage_blocks(Stage(alpha=mu0, n=n, reps=1, tour=None,
                                     zeta=0.25, eps=0.25, depth=1),
                               check_depth, i + 1, seed))
            if i % 2 == 0 else (i // 2, n)
            for i, n in enumerate(lengths)]
    kinds = ["shared" if i % 2 == 0 else "selected" for i in range(len(plan))]
    rows, spans = _emit_two_orbit(space, (lambda1, lambda2), xi_list, plan,
                                  horizon)

    ends = [end for _, end in spans]
    entries = [_prefix_domination(i + 1, past, zeta, end, kind)
               for i, (past, zeta, end, kind)
               in enumerate(zip([0, *ends], zetas, ends, kinds))]
    return Dc1Family(space=space, xis=tuple(xi_list), rows=rows,
                     eps_star=eps_star, stage_ends=tuple(ends),
                     stage_kinds=tuple(kinds), horizon=horizon,
                     validation=ValidationReport(tuple(entries)))
