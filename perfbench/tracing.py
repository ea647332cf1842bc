"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of each kheights layer from the
outside: nothing under ``src/`` is edited.  ``instrumented`` replaces a
function on its defining module and every ``from .x import name`` copy of
it in the other kheights modules, and puts the originals back on exit.

Each call opens a span.  Self time is a span's duration minus the
durations of its direct children, kept on the call stack as it runs, so
the self times of all spans under one op add up to that op's time.
Calls of the kernels in ``AGGREGATED`` (up to ~10^5 per op) are summed per
``(name, parent, op)``; every other call is kept as one
``(name, start, end, parent, op)`` record.  All of it stays in memory
until ``dump`` writes it out.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, aggregated=frozenset(), clock=time.perf_counter):
        self.aggregated = frozenset(aggregated)
        self.clock = clock
        self.op = None
        self.spans = []  # [name, start, end, parent, op]
        self.aggregates = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total_s, self_s
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)  # probe counters, e.g. filling counts
        self.distinct = defaultdict(set)
        self._stack = []  # frames: [name, start, child_s]

    def parent(self):
        return self._stack[-1][0] if self._stack else None

    def enter(self, name):
        self._stack.append([name, self.clock(), 0.0])

    def exit(self):
        name, start, child_s = self._stack.pop()
        end = self.clock()
        duration = end - start
        own = duration - child_s
        parent = None
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][0]
        self.calls[name] += 1
        self.self_s[name] += own
        if name in self.aggregated:
            row = self.aggregates[(name, parent, self.op)]
            row[0] += 1
            row[1] += duration
            row[2] += own
        else:
            self.spans.append([name, start, end, parent, self.op])

    def wrap(self, name, fn, probe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.parent()
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if probe is not None:
                probe(self, parent, args, kwargs, result)
            return result
        return traced

    def dump(self, path, extra=None):
        doc = {
            "spans_fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "aggregates_fields": ["name", "parent", "op", "calls",
                                  "total_s", "self_s"],
            "aggregates": [[*key, *row] for key, row in self.aggregates.items()],
            **(extra or {}),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


# ---------------------------------------------------------------------------
# probes: counts taken where the work happens


def _count_fillings(tracer, parent, args, kwargs, result):
    tracer.counts["enumeration.enumerate_fillings.fillings"] += len(result)


def _case_key(tracer, parent, args, kwargs, result):
    tag = args[0] if args else kwargs["tag"]
    k = args[1] if len(args) > 1 else kwargs["k"]
    tracer.distinct["tables.case_divergence"].add((tag, k))


def _tensor_bytes(tracer, parent, args, kwargs, result):
    t = len(result[0])
    tracer.counts["tables.rect_stat_tensors.bytes"] += 2 * 8 * t ** 4


def _path_pairs(tracer, parent, args, kwargs, result):
    if parent != "coupling.path_decompose":  # count each top-level path once
        tracer.counts["coupling.path_decompose.pairs"] += len(result)


def _pairs_tested(tracer, parent, args, kwargs, result):
    low, high = args[0], args[1]
    tracer.counts["coupling.strassen_joint.pairs_tested"] += len(low) * len(high)


#: (span name, module, attribute, probe).  graphs.build groups the graph
#: and block-family constructors under one name.
TARGETS = [
    ("cli.main", "kheights.cli", "main", None),
    ("graphs.build", "kheights.graphs", "make_toroidal_rect", None),
    ("graphs.build", "kheights.graphs", "make_toroidal_hex", None),
    ("graphs.build", "kheights.graphs", "make_complete", None),
    ("graphs.build", "kheights.graphs", "rect_block_family", None),
    ("graphs.build", "kheights.graphs", "hex_block_family", None),
    ("graphs.build", "kheights.graphs", "singleton_family", None),
    ("heights.KHeight.new", "kheights.heights", "KHeight.__init__", None),
    ("enumeration.enumerate_fillings", "kheights.enumeration",
     "enumerate_fillings", _count_fillings),
    ("enumeration.count_rect_extensible", "kheights.enumeration",
     "count_rect_extensible", None),
    ("tables.case_divergence", "kheights.tables", "case_divergence", _case_key),
    ("tables.hex_divergence", "kheights.tables", "hex_divergence", None),
    ("tables.rect_stat_tensors", "kheights.tables", "rect_stat_tensors",
     _tensor_bytes),
    ("tables.rect_divergence", "kheights.tables", "rect_divergence", None),
    ("tables.regular_aggregates", "kheights.tables", "regular_aggregates", None),
    ("bounds.family_report", "kheights.bounds", "family_report", None),
    ("chains.step_updown", "kheights.chains", "step_updown", None),
    ("chains.updown_result", "kheights.chains", "updown_result", None),
    ("chains.step_block", "kheights.chains", "step_block", None),
    ("chains.BlockSampler.fillings_for", "kheights.chains",
     "BlockSampler.fillings_for", None),
    ("coupling.cftp_sample", "kheights.coupling", "cftp_sample", None),
    ("coupling.coupling_time_estimate", "kheights.coupling",
     "coupling_time_estimate", None),
    ("coupling.coupled_updown_step", "kheights.coupling",
     "coupled_updown_step", None),
    ("coupling.coupled_block_step", "kheights.coupling",
     "coupled_block_step", None),
    ("coupling.path_decompose", "kheights.coupling", "path_decompose",
     _path_pairs),
    ("coupling.strassen_joint", "kheights.coupling", "strassen_joint",
     _pairs_tested),
    ("coupling.conditional_high_draw", "kheights.coupling",
     "conditional_high_draw", None),
]

SPAN_NAMES = list(dict.fromkeys(name for name, *_ in TARGETS))

#: kernels called once per chain step or per coupled-step link
AGGREGATED = frozenset({
    "heights.KHeight.new",
    "enumeration.enumerate_fillings",
    "chains.step_updown",
    "chains.updown_result",
    "chains.step_block",
    "chains.BlockSampler.fillings_for",
    "coupling.coupled_updown_step",
    "coupling.coupled_block_step",
    "coupling.path_decompose",
    "coupling.strassen_joint",
    "coupling.conditional_high_draw",
})


@contextmanager
def instrumented(tracer):
    """Route every TARGETS function through the tracer while inside."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "kheights" or name.startswith("kheights.")]
    undo = []
    try:
        for name, modname, attr, probe in TARGETS:
            owner = importlib.import_module(modname)
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, last)
            wrapped = tracer.wrap(name, original, probe)
            undo.append((owner, last, original))
            setattr(owner, last, wrapped)
            if not path:  # module-level function: rebind imported copies
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, key, original))
                            setattr(mod, key, wrapped)
        yield tracer
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


def call_cost_s(calls=100_000) -> float:
    """Seconds that tracing adds to one call: a traced no-op against a
    bare one.  Times the traced calls of a pass, it is a lower bound on
    the tracing overhead of that pass that, unlike the difference of two
    passes, does not carry the drift of a shared machine between them."""
    def noop():
        return None

    traced = Tracer(aggregated={"noop"}).wrap("noop", noop)
    clock = time.perf_counter
    start = clock()
    for _ in range(calls):
        noop()
    middle = clock()
    for _ in range(calls):
        traced()
    end = clock()
    return ((end - middle) - (middle - start)) / calls


def layer_metrics(tracer) -> dict:
    """Per-layer metrics: calls and self time per span name, plus the
    probe counts and ratios."""
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = tracer.calls[name]
        out[f"{name}.self_s"] = tracer.self_s[name]
    counts = tracer.counts
    for key in ("enumeration.enumerate_fillings.fillings",
                "tables.rect_stat_tensors.bytes",
                "coupling.path_decompose.pairs",
                "coupling.strassen_joint.pairs_tested"):
        out[key] = counts[key]
    case_calls = tracer.calls["tables.case_divergence"]
    out["tables.case_divergence.distinct_ratio"] = (
        len(tracer.distinct["tables.case_divergence"]) / case_calls
        if case_calls else 0.0)
    lookups = tracer.calls["chains.BlockSampler.fillings_for"]
    misses = sum(row[0] for (name, parent, _op), row
                 in tracer.aggregates.items()
                 if name == "enumeration.enumerate_fillings"
                 and parent == "chains.BlockSampler.fillings_for")
    out["chains.BlockSampler.cache_hit_ratio"] = (
        1 - misses / lookups if lookups else 0.0)
    return out
