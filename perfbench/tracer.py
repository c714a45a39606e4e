"""Span tracer that times lineinterp's layers from outside the library.

`Tracer.install()` replaces every public function of a layer module, in every
``lineinterp`` module namespace that binds it, with a wrapper that records a
span; public methods are wrapped on their class. Nothing under ``src/`` is
edited, and `Tracer.uninstall()` puts the original objects back.

A span records its name, start, end, the index of its parent span and the
run id. Spans stay in memory until the run ends; `layer_metrics` then turns
them into per-layer counts and self times. A span's self time is its
duration minus the part of its interval that its child spans cover, so time
spent in private helpers lands in the self time of the public caller.
"""

from __future__ import annotations

import collections
import functools
import math
import sys
import time
import types

PACKAGE = "lineinterp"

# Library layers in dependency order; "cli" spans come from the benchmark,
# one around each subcommand invocation plus one root span per workload run.
LAYERS = (
    "precision",
    "divdiff",
    "funcmodel",
    "interpolate",
    "criterion",
    "mobius",
    "counterexample",
    "cli",
)


class Span:
    """One call of a traced function: [start, end] on the tracer's clock."""

    __slots__ = ("name", "start", "end", "parent", "run_id")

    def __init__(self, name, start, end, parent, run_id):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.run_id = run_id


def _point_key(z):
    return (z.re, z.im, z.precision_bits)


def _observe_eval2(tracer, args, kwargs, result):
    f, z1, z2 = args[:3]
    tracer.note_key("funcmodel.eval2", f, (_point_key(z1), _point_key(z2)))


def _observe_restrict(tracer, args, kwargs, result):
    f, eta = args[:2]
    tracer.note_key("funcmodel.restrict_to_line", f, _point_key(eta))


def _observe_delta_table(tracer, args, kwargs, result):
    tracer.counts["divdiff.delta_table.entries"] += sum(len(r) for r in result.rows)


def _observe_build_sequence(tracer, args, kwargs, result):
    # Every stage attempt that stalls doubles the working precision once,
    # so attempts = stages + doublings from the policy's start bits.
    policy = args[2] if len(args) > 2 else kwargs.get("policy")
    if policy is None:
        start = sys.modules[PACKAGE + ".precision"].DEFAULT_PRECISION
    else:
        start = policy.start_bits
    doublings = round(math.log2(result.precision_bits / start))
    tracer.counts["counterexample.stages"] += result.stages
    tracer.counts["counterexample.stage_attempts"] += result.stages + doublings
    tracer.final_bits = max(tracer.final_bits, result.precision_bits)


# Per-call observers, run after the call returns, for counts a span alone
# cannot give: distinct arguments, table sizes and construction attempts.
OBSERVERS = {
    "funcmodel.eval2": _observe_eval2,
    "funcmodel.restrict_to_line": _observe_restrict,
    "divdiff.delta_table": _observe_delta_table,
    "counterexample.build_sequence": _observe_build_sequence,
}


class Tracer:
    """Holds the spans and counts of one run; installs and removes wrappers."""

    def __init__(self, run_id, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans = []
        self.counts = collections.Counter()
        self.final_bits = 0
        self._keys = collections.defaultdict(set)
        self._subjects = {}
        self._stack = []
        self._patches = []

    # -- recording ------------------------------------------------------------

    def begin(self, name):
        """Open a span under the innermost open span; returns its index."""
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, self.clock(), None, parent, self.run_id))
        self._stack.append(index)
        return index

    def end(self, index):
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError("span %d closed out of order" % index)
        self._stack.pop()
        self.spans[index].end = self.clock()

    def note_key(self, name, subject, key):
        # keep the subject alive so its id() is not reused within the run
        self._subjects[id(subject)] = subject
        self._keys[name].add((id(subject), key))

    def distinct(self, name):
        return len(self._keys[name])

    def timed(self, name, fn):
        """Wrapper that records a span around each call of fn."""
        observe = OBSERVERS.get(name)
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(index)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self, package=PACKAGE):
        """Wrap every public function and method of the layer modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m
            for n, m in sorted(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))
        ]
        replacement = {}
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if isinstance(value, types.FunctionType):
                    replacement[id(value)] = (value, self.timed("%s.%s" % (layer, attr), value))
                elif isinstance(value, type):
                    self._wrap_methods(layer, value)
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = replacement.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, attr, value, entry[1])

    def _wrap_methods(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = "%s.%s.%s" % (layer, cls.__name__, attr)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.timed(name, raw.__func__))
            elif isinstance(raw, types.FunctionType):
                wrapped = self.timed(name, raw)
            else:
                continue
            self._patch(cls, attr, raw, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        """Restore every original object, in reverse order of patching."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# -- analysis -----------------------------------------------------------------


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Self time of each span: duration minus what its children cover."""
    children = collections.defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        (s.end - s.start) - _covered(children.get(i, ()), s.start, s.end)
        for i, s in enumerate(spans)
    ]


def span_table(tracer):
    """Per span name: calls, summed duration and summed self time."""
    table = collections.defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        row = table[span.name]
        row["calls"] += 1
        row["total_s"] += span.end - span.start
        row["self_s"] += own
    return dict(table)


def layer_self_times(table):
    out = {layer: 0.0 for layer in LAYERS}
    for name, row in table.items():
        out[name.partition(".")[0]] += row["self_s"]
    return out
