"""Outside-in span tracer for one benchmark pass.

``install()`` wraps sftlab's functions from outside the package: every public
module-level function of each layer module (a layer's interface), plus the
private function and the class methods that the per-layer metrics name.  A
private helper's time counts as self time of the public function that calls
it, so ``ergopt.pressure`` includes its power iteration.  Each wrapper is
rebound under every name that any ``sftlab`` module binds to the original, so
calls made through ``from .shift import connector`` are traced too.
Generator functions are not wrapped, because their work happens on each
``next`` and lands in the span of whoever consumes them.

A span is (name, start, end, parent).  Spans stay in memory in flat arrays
and are reduced to per-name tables when the pass ends.  A span's self time is
its duration minus the durations of its direct children.

Besides spans the tracer keeps the counts that have no span of their own:
``Word`` constructions, leaves yielded by ``BranchTree.leaves``, symbols
returned by ``SymbolStream.materialize``, distinct keys of ``_draw_block`` and
``connector`` calls, and family candidates drawn versus kept.
"""
from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array

# module -> layer; sftlab.experiments is the batch runner's half of the cli
LAYERS = {
    "shift": "shift",
    "measures": "measures",
    "analysis": "analysis",
    "ergopt": "ergopt",
    "cocycle": "cocycle",
    "chaos": "chaos",
    "gluing": "gluing",
    "cli": "cli",
    "experiments": "cli",
}
PRIVATE_SPANS = {"gluing._draw_block"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.draw_keys: set = set()
        self.connector_keys: set = set()
        self._alive: dict[int, object] = {}  # keeps keyed ids unique
        self._space_keys: dict[int, bytes] = {}

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def space_key(self, space) -> bytes:
        """Transition bytes of a space, computed once per space object."""
        key = self._space_keys.get(id(space))
        if key is None:
            key = space.transition.tobytes()
            self._space_keys[id(space)] = key
            self._alive[id(space)] = space
        return key

    def wrap(self, name: str, fn, before=None, after=None):
        """Span wrapper; ``before(args, kwargs)`` and
        ``after(args, kwargs, result)`` are optional hooks that update
        counters."""
        sid = self.name_id(name)
        ids, parents, starts, ends = self.ids, self.parents, self.starts, self.ends
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            i = len(ids)
            ids.append(sid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def report(self) -> dict:
        """Per-name {calls, total_s, self_s} and the counters."""
        import numpy as np

        n = len(self.ids)
        ids = np.frombuffer(self.ids, dtype=np.int32)[:n].astype(np.int64)
        parents = np.frombuffer(self.parents, dtype=np.int32)[:n].astype(np.int64)
        dur = (np.frombuffer(self.ends, dtype=np.float64)[:n]
               - np.frombuffer(self.starts, dtype=np.float64)[:n])
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent],
                            minlength=n)
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        selfs = np.bincount(ids, weights=self_time, minlength=k)
        spans = {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                        "self_s": float(selfs[i])}
                 for i, name in enumerate(self.names) if calls[i]}

        counters = dict(self.counters)
        draw = self._name_ids.get("gluing._draw_block")
        sample = self._name_ids.get("measures.sample_word")
        if draw is not None and sample is not None and n:
            under = (ids == sample) & has_parent
            under[under] = ids[parents[under]] == draw
            counters["gluing._draw_block.sample_word_calls"] = int(under.sum())
        counters["gluing._draw_block.distinct"] = len(self.draw_keys)
        counters["shift.connector.distinct"] = len(self.connector_keys)
        return {"spans": spans, "counters": counters}


def _traced_functions(modname, mod):
    """Public module-level plain functions defined in ``mod`` (no generator
    functions), plus those of PRIVATE_SPANS."""
    for name, obj in vars(mod).items():
        if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                and (not name.startswith("_")
                     or f"{modname}.{name}" in PRIVATE_SPANS)
                and not inspect.isgeneratorfunction(obj)):
            yield name, obj


def install() -> Tracer:
    """Wrap sftlab's layers in place and return the tracer that records them."""
    tr = Tracer()
    replaced: dict[int, object] = {}
    mods = {m: importlib.import_module(f"sftlab.{m}") for m in LAYERS}

    def draw_before(args, kwargs):
        s, _st, stage_idx, rep, seed = args
        tr._alive[id(s)] = s
        tr.draw_keys.add((id(s), stage_idx, rep, seed))

    def draw_after(args, kwargs, result):
        tr.count("gluing._draw_block.accepted")

    def connector_before(args, kwargs):
        space, a, b, gap = args
        tr.connector_keys.add((tr.space_key(space), a, b, gap))

    def batch_before(args, kwargs):
        count = args[2] if len(args) > 2 else kwargs["count"]
        tr.count("measures.sample_words_batch.rows", int(count))

    def family_after(args, kwargs, result):
        tr.count("measures.typical_separated_family.kept", len(result))

    hooks = {
        "gluing._draw_block": (draw_before, draw_after),
        "shift.connector": (connector_before, None),
        "measures.sample_words_batch": (batch_before, None),
        "measures.typical_separated_family": (None, family_after),
    }
    for modname, mod in mods.items():
        for name, fn in _traced_functions(modname, mod):
            span = f"{modname}.{name}"
            before, after = hooks.get(span, (None, None))
            replaced[id(fn)] = tr.wrap(span, fn, before, after)

    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "sftlab" or modname.startswith("sftlab.")):
            continue
        for attr, val in list(vars(mod).items()):
            if id(val) in replaced and inspect.isfunction(val):
                setattr(mod, attr, replaced[id(val)])

    shift, measures, gluing = mods["shift"], mods["measures"], mods["gluing"]

    word_init = shift.Word.__init__

    def counted_init(self, symbols):
        tr.count("shift.Word.constructed")
        word_init(self, symbols)

    shift.Word.__init__ = counted_init

    def materialize_after(args, kwargs, result):
        tr.count("shift.SymbolStream.materialize.symbols", len(result))

    shift.SymbolStream.materialize = tr.wrap(
        "shift.SymbolStream.materialize", shift.SymbolStream.materialize,
        after=materialize_after)
    measures.MarkovMeasure.__init__ = tr.wrap(
        "measures.MarkovMeasure.init", measures.MarkovMeasure.__init__)
    tree = gluing.BranchTree
    tree.mass_bound_report = tr.wrap("gluing.mass_bound_report",
                                     tree.mass_bound_report)
    tree.prefix_distinct_report = tr.wrap("gluing.prefix_distinct_report",
                                          tree.prefix_distinct_report)
    leaves = tree.leaves

    def counted_leaves(self):
        for item in leaves(self):
            tr.count("gluing.BranchTree.leaves.yielded")
            yield item

    tree.leaves = counted_leaves
    return tr
