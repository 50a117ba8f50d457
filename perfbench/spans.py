"""In-memory span tracer that wraps library functions from outside the library.

Spans are kept in four parallel arrays (name id, start, end, parent index)
and written out once, after the traced pass.  A wrapped function is replaced
in every ``dominsert`` module that holds it, because several modules import
their helpers by name (``series.enumerate_semistandard``,
``insertion.add_domino``): patching only the defining module would miss
those calls.  Dunder methods are patched on their class, aliases included
(``TruncatedSeries.__rmul__`` is ``__mul__``, ``MPoly.__radd__`` is
``__add__``), so both spellings count under one name.

Partition helpers run millions of times per round trip, so they get a call
counter only; their time stays in the self time of the span that called
them.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute path, metric name) of every span; "Class.method" paths
# patch the class.  Options: "args" records distinct arguments for
# repeat_ratio, "results" sums the length of the returned list.
SPANS = (
    ("insertion", "local_rule", "insertion.local_rule", ()),
    ("insertion", "local_rule_reverse", "insertion.local_rule_reverse", ()),
    ("insertion", "growth", "insertion.growth", ()),
    ("insertion", "growth_reverse", "insertion.growth_reverse", ()),
    ("insertion", "insert_letter", "insertion.insert_letter", ()),
    ("insertion", "insert_word", "insertion.insert_word", ()),
    ("insertion", "biword_insert", "insertion.biword_insert", ()),
    ("insertion", "biword_reverse", "insertion.biword_reverse", ()),
    ("insertion", "dual_insert_alpha", "insertion.dual_insert_alpha", ()),
    ("insertion", "dual_insert_beta", "insertion.dual_insert_beta", ()),
    ("tableaux", "DominoTableau.__init__", "tableaux.DominoTableau.init", ()),
    ("tableaux", "enumerate_semistandard", "tableaux.enumerate_semistandard", ("args", "results")),
    ("tableaux", "enumerate_standard", "tableaux.enumerate_standard", ()),
    ("series", "TruncatedSeries.__mul__", "series.TruncatedSeries.mul", ()),
    ("series", "TruncatedSeries.__add__", "series.TruncatedSeries.add", ()),
    ("series", "domino_function", "series.domino_function", ("args",)),
    ("series", "expand_product", "series.expand_product", ()),
    ("polynomials", "MPoly.__mul__", "polynomials.MPoly.mul", ()),
    ("polynomials", "MPoly.__add__", "polynomials.MPoly.add", ()),
)

COUNTERS = (
    ("partitions", "skew_domino", "partitions.skew_domino"),
    ("partitions", "add_domino", "partitions.add_domino"),
    ("partitions", "domino_successors", "partitions.domino_successors"),
    ("partitions", "as_partition", "partitions.as_partition"),
)


class Tracer:
    """Records spans and call counts while installed."""

    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.counts = Counter()
        self.results = Counter()
        self.distinct = defaultdict(set)
        self._stack = [-1]

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name, fn, options=()):
        """Return ``fn`` wrapped in a span called ``name``."""
        nid = self._name_id(name)
        names, starts, ends, parents = self.span_name, self.span_start, self.span_end, self.span_parent
        stack = self._stack
        keep_args = "args" in options
        keep_results = "results" in options

        def traced(*args, **kwargs):
            if keep_args:
                self.distinct[name].add(repr((args, sorted(kwargs.items()))))
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if keep_results:
                self.results[name] += len(out)
            return out

        return traced

    def _counted(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        """Patch every traced name into the loaded ``dominsert`` modules."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "dominsert"]
        undo = []

        def replace(original, wrapped):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, attr, value))
                        setattr(module, attr, wrapped)

        try:
            for module_name, path, name, options in SPANS:
                owner = sys.modules[f"dominsert.{module_name}"]
                if "." in path:
                    cls_name, method = path.split(".")
                    cls = getattr(owner, cls_name)
                    original = vars(cls)[method]
                    wrapped = self.wrap(name, original, options)
                    for attr, value in list(vars(cls).items()):
                        if value is original:
                            undo.append((cls, attr, value))
                            setattr(cls, attr, wrapped)
                else:
                    original = getattr(owner, path)
                    replace(original, self.wrap(name, original, options))
            for module_name, path, name in COUNTERS:
                original = getattr(sys.modules[f"dominsert.{module_name}"], path)
                replace(original, self._counted(name, original))
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def summary(self):
        """Per span name: call count, inclusive ms and self ms.

        Self time is a span's duration minus the durations of its direct
        children, which on one thread never overlap each other.
        """
        n = len(self.span_name)
        child = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out = {name: {"calls": 0, "ms": 0.0, "self_ms": 0.0} for name in self.names}
        for i in range(n):
            entry = out[self.names[self.span_name[i]]]
            dur = ends[i] - starts[i]
            entry["calls"] += 1
            entry["ms"] += dur * 1000
            entry["self_ms"] += (dur - child[i]) * 1000
        return out

    def write(self, path):
        """Write the spans as JSON: names plus one [name, start, end, parent] row each."""
        with open(path, "w") as fh:
            fh.write('{"names": %s, "counts": %s, "spans": [\n' % (
                json.dumps(self.names), json.dumps(dict(self.counts), sort_keys=True)))
            rows = zip(self.span_name, self.span_start, self.span_end, self.span_parent)
            first = True
            for nid, start, end, parent in rows:
                fh.write(("" if first else ",\n") + "[%d,%r,%r,%d]" % (nid, start, end, parent))
                first = False
            fh.write("\n]}\n")
