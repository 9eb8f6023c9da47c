"""Span tracing of the package's layers, installed from outside the package.

``Tracer.install`` wraps every public function and public method of each
layer module (generator functions excepted: their work runs in the caller
that consumes them).  A function another module imports by name is
replaced in every namespace that holds it, the benchmark's own modules
included.  Each call of a wrapper records a span: function, start, end,
parent span and verdict id, in flat arrays that stay in memory until the
run ends.  A few functions also keep their arguments or a fact about their
result, from which the repeat, hit and size metrics are computed at the
end, so the wrappers do no hashing while the clock runs.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array

LAYERS = ("intsets", "graphs", "paths", "points", "sampling", "definable",
          "codes", "corpus", "dsl", "cli")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

SETOPS = {f"intsets.{cls}.{op}" for cls in ("IndexSet", "SymbolicSet")
          for op in ("union", "intersect", "difference", "complement",
                     "subset_of")}
CLOSURE = {f"graphs.Ultragraph.{m}" for m in (
    "canonical_shapes", "cores", "range_intersection_closure",
    "minimal_infinite_emitters", "is_in_g0")}


def _key(args, kw, result):
    return args, tuple(kw.items())


def _key_found(args, kw, result):
    return (args, tuple(kw.items())), result is not None


def _found(args, kw, result):
    return result is not None


def _text_size(args, kw, result):
    return len(args[0]) if args else len(kw["text"])


def _closure_size(args, kw, result):
    return args[0], len(result[0])


# what a few wrappers keep per call, for metrics computed at the end
RECORDERS = {
    "graphs.Ultragraph.range_of": _key,
    "graphs.Ultragraph.epsilon": _key,
    "graphs.Ultragraph.cores": _closure_size,
    "points.block_witness": _key_found,
    "codes.eval_map": _key,
    "definable.match_schema": _found,
    "dsl.parse": _text_size,
}

# (metric, unit, better) as listed in BENCHMARK.json
PER_LAYER = [
    ("intsets.contains.calls", "calls/verdict", "lower"),
    ("intsets.setops.calls", "calls/verdict", "lower"),
    ("intsets.self_ms", "ms/verdict", "lower"),
    ("graphs.range_of.calls", "calls/verdict", "lower"),
    ("graphs.range_of.repeat_ratio", "ratio", "lower"),
    ("graphs.epsilon.calls", "calls/verdict", "lower"),
    ("graphs.epsilon.repeat_ratio", "ratio", "lower"),
    ("graphs.minimal_emitters_in.calls", "calls/verdict", "lower"),
    ("graphs.self_ms", "ms/verdict", "lower"),
    ("graphs.closure.self_ms", "ms/verdict", "lower"),
    ("graphs.closure.size", "count", "lower"),
    ("paths.edges_adjacent.calls", "calls/verdict", "lower"),
    ("paths.self_ms", "ms/verdict", "lower"),
    ("points.block_witness.calls", "calls/verdict", "lower"),
    ("points.block_witness.found_ratio", "ratio", "higher"),
    ("points.block_witness.repeat_ratio", "ratio", "lower"),
    ("points.validate_point.calls", "calls/verdict", "lower"),
    ("points.check_convergence.calls", "calls/verdict", "lower"),
    ("points.self_ms", "ms/verdict", "lower"),
    ("definable.match_schema.calls", "calls/verdict", "lower"),
    ("definable.match_schema.hit_ratio", "ratio", "higher"),
    ("definable.self_ms", "ms/verdict", "lower"),
    ("codes.eval_map.calls", "calls/verdict", "lower"),
    ("codes.eval_map.repeat_ratio", "ratio", "lower"),
    ("codes.symbol_at.calls", "calls/verdict", "lower"),
    ("codes.self_ms", "ms/verdict", "lower"),
    ("sampling.self_ms", "ms/verdict", "lower"),
    ("corpus.registry.calls", "calls/verdict", "lower"),
    ("corpus.self_ms", "ms/verdict", "lower"),
    ("cli.self_ms", "ms/verdict", "lower"),
    ("dsl.parse.kb_per_s", "kB/s", "higher"),
    ("dsl.self_ms", "ms/verdict", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


class Tracer:
    def __init__(self):
        self.active = False
        self.verdict = -1
        self.names: list[str] = []
        self.fids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.vids = array("i")
        self.stack = [-1]
        self.records: dict[str, list] = {name: [] for name in RECORDERS}
        self.bases: dict[str, str] = {}         # filled by metrics()
        self.per_function: dict[str, dict] = {}  # filled by metrics()
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def begin_verdict(self, vid: int) -> None:
        self.verdict = vid
        self.active = True

    def end_verdict(self) -> None:
        self.active = False

    def span_count(self) -> int:
        return len(self.fids)

    def _wrap(self, name: str, fn):
        tracer = self
        fid = len(self.names)
        self.names.append(name)
        fids, starts, ends = self.fids, self.starts, self.ends
        parents, vids, stack = self.parents, self.vids, self.stack
        perf = time.perf_counter
        recorder = RECORDERS.get(name)
        kept = self.records.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            if not tracer.active:
                return fn(*args, **kw)
            i = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            vids.append(tracer.verdict)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf())
            try:
                result = fn(*args, **kw)
            finally:
                ends[i] = perf()
                stack.pop()
            if recorder is not None:
                kept.append(recorder(args, kw, result))
            return result
        return wrapper

    def install(self) -> None:
        import ultrashift  # noqa: F401
        import ultrashift.cli  # noqa: F401
        import ultrashift.dsl  # noqa: F401

        wrapped = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = sys.modules[f"ultrashift.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or \
                        getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    if not inspect.isgeneratorfunction(obj):
                        wrapped[id(obj)] = (obj, self._wrap(
                            f"{layer}.{name}", obj))
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        for modname, mod in list(sys.modules.items()):
            path = getattr(mod, "__file__", None) or ""
            if not (modname.startswith("ultrashift")
                    or path.startswith(BENCH_DIR)):
                continue
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
                    self._restore.append((mod, name, obj))

    def _wrap_methods(self, layer: str, cls) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            static = isinstance(attr, staticmethod)
            fn = attr.__func__ if static else attr
            if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                continue
            w = self._wrap(f"{layer}.{cls.__name__}.{name}", fn)
            setattr(cls, name, staticmethod(w) if static else w)
            self._restore.append((cls, name, attr))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- metrics -----------------------------------------------------------

    def metrics(self, verdicts: int, overhead_ratio: float):
        """Per-layer metrics over the whole traced run (set-up spans
        included), counts and times per verdict of the traced round.
        Returns (metrics dict, table lines giving every base); leaves the
        bases and per-function totals in ``bases`` and ``per_function``."""
        n = len(self.fids)
        fids, starts, ends, parents = self.fids, self.starts, self.ends, \
            self.parents
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        incl_s = [0.0] * len(self.names)
        setup_self_s = [0.0] * len(self.names)
        vids = self.vids
        for i in range(n):
            f = fids[i]
            dur = ends[i] - starts[i]
            calls[f] += 1
            incl_s[f] += dur
            self_s[f] += dur - child[i]
            if vids[i] < 0:
                setup_self_s[f] += dur - child[i]
        by_name = {name: i for i, name in enumerate(self.names)}
        self.per_function = {
            name: {"calls": calls[i], "self_ms": self_s[i] * 1e3,
                   "inclusive_ms": incl_s[i] * 1e3,
                   "setup_self_ms": setup_self_s[i] * 1e3}
            for i, name in enumerate(self.names) if calls[i]}

        def count(*names):
            return sum(calls[by_name[m]] for m in names if m in by_name)

        def self_ms(pred):
            return sum(self_s[i] for i, m in enumerate(self.names)
                       if pred(m)) * 1e3

        def setup_ms(pred):
            return sum(setup_self_s[i] for i, m in enumerate(self.names)
                       if pred(m)) * 1e3

        def in_layer(layer):
            return lambda m: m.split(".", 1)[0] == layer

        values: dict[str, float] = {}
        bases: dict[str, str] = {}
        per = f"{verdicts} verdicts"

        def per_verdict(metric, total, what):
            values[metric] = total / verdicts
            bases[metric] = f"{total:.6g} {what} / {per}"

        per_verdict("intsets.contains.calls",
                    count("intsets.IndexSet.contains"), "calls")
        per_verdict("intsets.setops.calls", count(*SETOPS), "calls")
        for metric, name in (
                ("graphs.range_of.calls", "graphs.Ultragraph.range_of"),
                ("graphs.epsilon.calls", "graphs.Ultragraph.epsilon"),
                ("graphs.minimal_emitters_in.calls",
                 "graphs.Ultragraph.minimal_emitters_in"),
                ("paths.edges_adjacent.calls", "paths.edges_adjacent"),
                ("points.block_witness.calls", "points.block_witness"),
                ("points.validate_point.calls", "points.validate_point"),
                ("points.check_convergence.calls",
                 "points.check_convergence"),
                ("definable.match_schema.calls", "definable.match_schema"),
                ("codes.eval_map.calls", "codes.eval_map"),
                ("corpus.registry.calls", "corpus.registry")):
            per_verdict(metric, count(name), "calls")
        per_verdict("codes.symbol_at.calls",
                    count("codes.MapPresentation.symbol_at",
                          "codes.RuleMap.symbol_at"), "calls")
        for layer in LAYERS:
            per_verdict(f"{layer}.self_ms", self_ms(in_layer(layer)),
                        f"ms self time (set-up {setup_ms(in_layer(layer)):.4g}"
                        " ms)")
        per_verdict("graphs.closure.self_ms", self_ms(CLOSURE.__contains__),
                    "ms self time")

        def ratio(metric, hits, base, what):
            values[metric] = hits / base if base else 0.0
            bases[metric] = f"{hits} / {base} {what}"

        for metric, name in (
                ("graphs.range_of.repeat_ratio", "graphs.Ultragraph.range_of"),
                ("graphs.epsilon.repeat_ratio", "graphs.Ultragraph.epsilon"),
                ("codes.eval_map.repeat_ratio", "codes.eval_map")):
            rec = self.records[name]
            ratio(metric, _repeats(rec), len(rec),
                  f"{name.rsplit('.', 1)[-1]} calls with a graph or map and "
                  "arguments seen before")
        rec = self.records["points.block_witness"]
        ratio("points.block_witness.found_ratio",
              sum(1 for _, found in rec if found), len(rec),
              "block_witness calls that found a point")
        ratio("points.block_witness.repeat_ratio",
              _repeats([key for key, _ in rec]), len(rec),
              "block_witness calls with a graph and block seen before")
        rec = self.records["definable.match_schema"]
        ratio("definable.match_schema.hit_ratio", sum(rec), len(rec),
              "match_schema calls that matched")
        sizes = {}
        for graph, size in self.records["graphs.Ultragraph.cores"]:
            sizes.setdefault(id(graph), size)
        values["graphs.closure.size"] = \
            sum(sizes.values()) / len(sizes) if sizes else 0.0
        bases["graphs.closure.size"] = \
            f"mean over {len(sizes)} graphs of the sets in cores()"
        parse_kb = sum(self.records["dsl.parse"]) / 1e3
        parse_s = incl_s[by_name["dsl.parse"]]
        values["dsl.parse.kb_per_s"] = parse_kb / parse_s if parse_s else 0.0
        bases["dsl.parse.kb_per_s"] = \
            f"{parse_kb:.4g} kB in {parse_s:.4g} s inside dsl.parse"
        values["trace.overhead_ratio"] = overhead_ratio
        bases["trace.overhead_ratio"] = \
            "timed work of the traced round / of the untraced round"

        self.bases = bases
        metrics = {}
        table = []
        for metric, unit, _better in PER_LAYER:
            metrics[metric] = {"value": values[metric], "unit": unit}
            table.append(f"  {metric:36s} {values[metric]:14.6g} {unit:14s}"
                         f" base: {bases[metric]}")
        return metrics, table


def _repeats(keys) -> int:
    seen = set()
    repeats = 0
    for key in keys:
        try:
            if key in seen:
                repeats += 1
            else:
                seen.add(key)
        except TypeError:  # an unhashable argument never counts as a repeat
            pass
    return repeats
