"""Spans around calls into the library's layers, recorded from outside it.

`Tracer.install` replaces each listed public function, wherever a
`stepgraphon` module or the workload module binds it, with a wrapper that
records a span; `Tracer.remove` puts every original back.  `linprog` is
wrapped per binding module, so transport LPs (metrics) and flatness LPs
(measures) are told apart.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


def _cut_norm_name(args, kwargs):
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "exact")
    return f"metrics.cut_norm.{mode}"


def _check_flatter_name(args, kwargs):
    exact = kwargs.get("exact", args[4] if len(args) > 4 else False)
    return "measures.check_flatter." + ("exact" if exact else "float")


# (defining module, function, span name from the call arguments, or None
# for "<layer>.<function>")
FUNCTIONS = [
    ("stepgraphon.metrics", "cut_norm", _cut_norm_name),
    ("stepgraphon.metrics", "cut_distance", None),
    ("stepgraphon.metrics", "rectangle_signature", None),
    ("stepgraphon.core", "common_refinement", None),
    ("stepgraphon.core", "grid_version", None),
    ("stepgraphon.core", "stepping", None),
    ("stepgraphon.measures", "check_flatter", _check_flatter_name),
    ("stepgraphon.order", "order_check", None),
    ("stepgraphon.order", "sample_envelope", None),
    ("stepgraphon.order", "chi_estimate", None),
    ("stepgraphon.multiway", "sample_multiway_set", None),
    ("stepgraphon.multiway", "multiway_matrix", None),
    ("stepgraphon.multiway", "multiway_hausdorff", None),
]
# (binding module, name): one span name per binding site
BINDINGS = [("stepgraphon.metrics", "linprog"), ("stepgraphon.measures", "linprog")]

SPAN_NAMES = sorted(
    [f"{m.split('.')[1]}.{f}" for m, f, namer in FUNCTIONS if namer is None]
    + ["metrics.cut_norm.exact", "metrics.cut_norm.heuristic",
       "measures.check_flatter.exact", "measures.check_flatter.float"]
    + [f"{m.split('.')[1]}.{f}" for m, f in BINDINGS])


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "size")

    def __init__(self, name, start, parent, job):
        self.name, self.start, self.end = name, start, None
        self.parent, self.job, self.size = parent, job, None

    def to_list(self):
        return [self.name, self.start, self.end, self.parent, self.job]


class Tracer:
    """Records nested spans; `job` tags each span with the current job id."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._saved = []

    def _call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, 0.0, parent, self.job)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if name == "multiway.sample_multiway_set":
            span.size = len(result)
        return result

    def _wrapper(self, fn, name, namer=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = namer(args, kwargs) if namer else name
            return self._call(span_name, fn, args, kwargs)
        return traced

    def _patch(self, module, attr, wrapper):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self, extra_modules=()):
        """Wrap every binding of the listed functions; call `remove` after."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "stepgraphon" or n.startswith("stepgraphon.")]
        modules += list(extra_modules)
        for mod_name, attr, namer in FUNCTIONS:
            original = getattr(importlib.import_module(mod_name), attr)
            wrapper = self._wrapper(original, f"{mod_name.split('.')[1]}.{attr}", namer)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapper)
        for mod_name, attr in BINDINGS:
            module = importlib.import_module(mod_name)
            self._patch(module, attr, self._wrapper(
                getattr(module, attr), f"{mod_name.split('.')[1]}.{attr}"))

    def remove(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def layer_table(self):
        """Per span name: calls and self time (duration minus direct children)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        table = {name: {"calls": 0, "self_s": 0.0} for name in SPAN_NAMES}
        for span, children in zip(self.spans, child_time):
            row = table[span.name]
            row["calls"] += 1
            row["self_s"] += (span.end - span.start) - children
        return table

    def root_time(self):
        return sum(s.end - s.start for s in self.spans if s.parent is None)

    def cut_norms_per_cut_distance(self):
        """Cut-norm calls made inside cut_distance, per cut_distance call."""
        inside = 0
        for span in self.spans:
            if span.name.startswith("metrics.cut_norm."):
                p = span.parent
                while p is not None and self.spans[p].name != "metrics.cut_distance":
                    p = self.spans[p].parent
                inside += p is not None
        calls = sum(s.name == "metrics.cut_distance" for s in self.spans)
        return inside / calls if calls else 0.0

    def kept_ratio(self):
        """Cut matrices kept after deduplication per cut matrix built."""
        kept = sum(s.size for s in self.spans if s.size is not None)
        built = sum(s.name == "multiway.multiway_matrix" for s in self.spans)
        return kept / built if built else 0.0
