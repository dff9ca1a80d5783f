"""Spans and counters around latticelab's functions, installed from outside.

``Tracer.install()`` wraps every public function of each ``latticelab``
module, the public methods (plus ``__init__``/``__post_init__``) of the
classes the modules define, and a few private helpers whose calls are
counted.  Because ``cli`` and ``counterexamples`` import functions by name,
the wrapper replaces the original function object wherever a
``latticelab.*`` module holds it: as a module attribute, as a value of a
module-level dict (the CLI's command table) and in the class that defines
it.  ``uninstall()`` puts every original back.

A wrapper records one span (name, start, end, parent) in flat in-memory
arrays when its call enters the layer from another layer.  Calls inside one
layer only run the counters, which keeps self time per layer exact while
the pure-Python value churn of ``core`` stays cheap to trace; the spans
named in ``_INCLUSIVE`` and the CLI's subcommand handlers are always
recorded.

A span's layer is the module that defines the function, and its self time
is its duration minus the durations of its direct children.  Counts are
computed from the call arguments at the layer boundary (rows x points per
distance block, rungs x points**2 per envelope ladder, ...) so they repeat
exactly for the same inputs.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

PACKAGE = "latticelab"

# metrics named after spans, as inclusive time of the outermost such span
_INCLUSIVE = {
    "serialize.load_ms": ("serialize.load_family", "serialize.load_space"),
    "serialize.write_ms": ("serialize.write_json", "serialize.write_csv"),
    "convergence.family_init_ms": ("convergence.SequenceFamily.__init__",),
}
_ALWAYS = frozenset(name for names in _INCLUSIVE.values() for name in names)


def _count(key):
    def pre(tracer, args, kwargs):
        tracer.counts[key] += 1
    return pre


def _row_block(tracer, args, kwargs):
    space, lo, hi = args[:3]
    n = space.n
    tracer.counts["metric.pairs"] += max(0, min(hi, n) - lo) * n


def _ladder(tracer, args, kwargs):
    g, ns = args[0], args[1]  # every caller passes the rungs as a list
    k = len(ns)
    tracer.counts["envelopes.rungs"] += k
    tracer.counts["envelopes.pairs"] += k * g.carrier.size ** 2


def _uniform(tracer, args, kwargs):
    family, cert = args[0], args[1]
    upto = min(len(cert.eps), family.horizon)
    tracer.counts["convergence.uniform_pairs"] += upto * (upto - 1) // 2


def _read(tracer, args, kwargs):
    tracer.counts["serialize.bytes_read"] += os.path.getsize(args[0])


def _written(tracer, args, kwargs, result):
    tracer.counts["serialize.bytes_written"] += os.path.getsize(args[0])


def _power_sum_pre(tracer, args, kwargs):
    tracer.direct_mark = tracer.counts["numerics.power_sum_direct"]


def _power_sum_post(tracer, args, kwargs, result):
    # power_sum does not nest; a finite non-zero sum that never reached the
    # direct summation came from the mpmath closed forms (zeta / digamma)
    if (tracer.counts["numerics.power_sum_direct"] == tracer.direct_mark
            and math.isfinite(result) and result != 0.0):
        tracer.counts["numerics.power_sum_closed"] += 1


# qualified name -> (pre hook, post hook); post hooks run on success only
_HOOKS = {
    "core.LatticeElement.__post_init__": (_count("core.elements_built"), None),
    "core.Tail.__post_init__": (_count("core.tails_built"), None),
    "convergence.SequenceFamily.member": (_count("convergence.members_read"), None),
    "convergence.verify_uniform_certificate": (_uniform, None),
    "metric.FiniteMetricSpace.row_block": (_row_block, None),
    "envelopes.inf_convolution_ladder": (_ladder, None),
    "serialize.load_family": (_read, None),
    "serialize.load_space": (_read, None),
    "serialize.sha256_of": (_read, None),
    "serialize.write_json": (None, _written),
    "serialize.write_csv": (None, _written),
    "numerics._direct_power_sum": (_count("numerics.power_sum_direct"), None),
    "numerics.power_sum": (_power_sum_pre, _power_sum_post),
}

#: every count the tracer can produce, so absent ones read as 0
COUNT_KEYS = (
    "metric.pairs", "envelopes.rungs", "envelopes.pairs", "core.elements_built",
    "core.tails_built", "convergence.members_read", "convergence.uniform_pairs",
    "serialize.bytes_read", "serialize.bytes_written",
    "numerics.power_sum_direct", "numerics.power_sum_closed",
)


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _own_function(fn, module) -> bool:
    """A plain function written in ``module``'s source (this skips
    dataclass-generated methods and generator functions, whose body runs
    after the call returns)."""
    return (inspect.isfunction(fn)
            and fn.__code__.co_filename == getattr(module, "__file__", None)
            and not inspect.isgeneratorfunction(fn))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self._wrappers: dict = {}  # id(original) -> wrapper, reused across installs
        self._patches: list = []
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack: list[int] = []  # indices of the open spans
        self.layer_stack: list[str] = []  # their layers
        self.direct_mark = 0
        self.counts: Counter = Counter()

    def _wrap(self, fn, name: str, layer: str):
        nid = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        pre, post = _HOOKS.get(name, (None, None))
        always = name in _ALWAYS or name.startswith("cli.cmd_")
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(tracer, args, kwargs)
            layers = tracer.layer_stack
            if layers and layers[-1] == layer and not always:
                result = fn(*args, **kwargs)
            else:
                stack = tracer.stack
                idx = len(tracer.span_start)
                tracer.span_name.append(nid)
                tracer.span_parent.append(stack[-1] if stack else -1)
                tracer.span_end.append(0)
                stack.append(idx)
                layers.append(layer)
                tracer.span_start.append(perf_counter_ns())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.span_end[idx] = perf_counter_ns()
                    stack.pop()
                    layers.pop()
            if post is not None:
                post(tracer, args, kwargs, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _targets(self):
        """(original function, span name, layer, class or None, attribute,
        descriptor kind) for everything to wrap."""
        out = []
        for mod in _modules():
            layer = mod.__name__.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                if _own_function(obj, mod) and (not attr.startswith("_")
                                                or f"{layer}.{attr}" in _HOOKS):
                    out.append((obj, f"{layer}.{attr}", layer, None, attr, None))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mattr, raw in vars(obj).items():
                        if mattr.startswith("_") and mattr not in ("__init__", "__post_init__"):
                            continue
                        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
                        fn = raw.__func__ if kind else raw
                        if _own_function(fn, mod):
                            out.append((fn, f"{layer}.{obj.__qualname__}.{mattr}", layer,
                                        obj, mattr, kind))
        return out

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for fn, name, layer, cls, attr, kind in self._targets():
            if id(fn) in wrappers:
                continue
            wrapper = self._wrappers.get(id(fn))
            if wrapper is None:
                wrapper = self._wrap(fn, name, layer)
                self._wrappers[id(fn)] = wrapper
            wrappers[id(fn)] = wrapper
            if cls is not None:
                self._patches.append((cls, attr, vars(cls)[attr], "attr"))
                setattr(cls, attr, kind(wrapper) if kind else wrapper)
        for mod in _modules():
            for attr, val in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if id(val) in wrappers:
                    self._patches.append((mod, attr, val, "attr"))
                    setattr(mod, attr, wrappers[id(val)])
                elif type(val) is dict:
                    for key, item in list(val.items()):
                        if id(item) in wrappers:
                            self._patches.append((val, key, item, "item"))
                            val[key] = wrappers[id(item)]

    def uninstall(self) -> None:
        for container, key, original, how in reversed(self._patches):
            if how == "item":
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches = []

    # -- summaries ---------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer self time, layer entries, inclusive times and counts of
        the spans recorded since the last reset."""
        names, parents = self.span_name, self.span_parent
        n = len(names)
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
        layer_self = Counter()
        by_name = Counter()
        entries = Counter()
        root_ns = 0
        for i in range(n):
            layer = self.layers[names[i]]
            layer_self[layer] += dur[i] - child[i]
            p = parents[i]
            if p < 0 or names[p] != names[i]:
                by_name[names[i]] += dur[i]
            if p < 0:
                root_ns += dur[i]
                entries[layer] += 1
            elif self.layers[names[p]] != layer:
                entries[layer] += 1
        inclusive = {}
        for metric, span_names in _INCLUSIVE.items():
            ids = {i for i, name in enumerate(self.names) if name in span_names}
            inside = [False] * n  # span lies under a span of this set
            total = 0
            for i in range(n):
                p = parents[i]
                covered = p >= 0 and (inside[p] or names[p] in ids)
                inside[i] = covered
                if names[i] in ids and not covered:
                    total += dur[i]
            inclusive[metric] = total / 1e6
        counts = {k: int(self.counts.get(k, 0)) for k in COUNT_KEYS}
        return {
            "spans": n,
            "root_ms": root_ns / 1e6,
            "self_ms": {k: v / 1e6 for k, v in sorted(layer_self.items())},
            "entries": dict(sorted(entries.items())),
            "inclusive_ms": inclusive,
            "top_spans_ms": {self.names[k]: v / 1e6 for k, v in by_name.most_common(12)},
            "counts": counts,
        }

    def write_spans(self, path) -> None:
        """The recorded spans as four int64 columns (name id, parent row or
        -1, start ns, end ns) of ``count`` rows each, after a one-line JSON
        header holding ``count`` and the span names by id."""
        header = {"count": len(self.span_name), "names": self.names,
                  "columns": ["name_id", "parent", "start_ns", "end_ns"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in (self.span_name, self.span_parent, self.span_start,
                           self.span_end):
                column.tofile(fh)
