"""Spans for the traced run, recorded around calls into each weyldiag module.

``Tracer.install`` swaps each traced function for a wrapper in every
weyldiag module that binds it: the defining module, the modules that import
it and the package namespace. Calls between library modules are traced that
way too, e.g. ``verify_word`` calling ``weyldiag.verify.subword_products``.
``uninstall`` puts the originals back, so untraced passes run the library
untouched.

A span is (name, start, end, parent, op). Spans live in flat arrays until
the run ends. ``summarize`` derives each span's self time (its duration
minus the time its children cover) and aggregates per name.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from dataclasses import dataclass, field
from functools import update_wrapper
from pathlib import Path

# span name -> (defining module, attribute). The private length and ascent
# tests are traced because is_positive calls them directly.
TRACED = {
    "roots.element_of_word": ("weyldiag.roots", "element_of_word"),
    "roots.compose": ("weyldiag.roots", "compose"),
    "roots.invert": ("weyldiag.roots", "invert"),
    "words.root_sequence": ("weyldiag.words", "root_sequence"),
    "words.reduced_word": ("weyldiag.words", "reduced_word"),
    "words.extend_to_w0": ("weyldiag.words", "extend_to_w0"),
    "diagrams.length_test": ("weyldiag.diagrams", "_positive_by_lengths"),
    "diagrams.ascent_test": ("weyldiag.diagrams", "_positive_by_ascents"),
    "diagrams.is_positive": ("weyldiag.diagrams", "is_positive"),
    "diagrams.obstruction": ("weyldiag.diagrams", "positivity_obstruction"),
    "diagrams.diagram_for": ("weyldiag.diagrams", "diagram_for"),
    "diagrams.zeta": ("weyldiag.diagrams", "zeta"),
    "diagrams.subword_products": ("weyldiag.diagrams", "subword_products"),
    "grid.le_test": ("weyldiag.grid", "is_le_diagram"),
    "grid.pipe_dream": ("weyldiag.grid", "pipe_dream_permutation"),
    "grid.render": ("weyldiag.grid", "render_wiring"),
    "grid.trace": ("weyldiag.grid", "trace_rendered_wiring"),
    "verify.verify_word": ("weyldiag.verify", "verify_word"),
    "verify.enumerate_positive": ("weyldiag.verify", "enumerate_positive"),
    "verify.group_elements": ("weyldiag.verify", "group_elements"),
    "verify.census": ("weyldiag.verify", "longest_word_census"),
    "cli.run": ("weyldiag.cli", "run"),
}

# Work counts taken from return values: positives found by each test,
# obstruction pairs found violated, sizes of the sets returned.
TALLIED = {
    "diagrams.ascent_test": int,
    "diagrams.length_test": int,
    "diagrams.obstruction": lambda check: int(check.violated),
    "diagrams.subword_products": len,
    "verify.group_elements": len,
    "verify.enumerate_positive": len,
}

LAYERS = ("roots", "words", "diagrams", "grid", "verify", "cli")

PROBE_OP = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op_id = PROBE_OP
        self.tally: dict[str, int] = {}
        self.originals: dict[str, object] = {}
        self.missing: list[str] = []
        self._stack = [-1]
        self._bindings: list[tuple[object, str, object, object]] = []

    def install(self) -> None:
        if not self._bindings:
            self._bind()
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def _bind(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "weyldiag" or name.startswith("weyldiag.")]
        for span_name, (module_name, attr) in TRACED.items():
            fn = getattr(sys.modules.get(module_name), attr, None)
            if fn is None:
                self.missing.append(span_name)
                continue
            self.originals[span_name] = fn
            wrapper = self._wrap(span_name, fn)
            for module in modules:
                for bound_name, value in list(vars(module).items()):
                    if value is fn:
                        self._bindings.append((module, bound_name, fn, wrapper))

    def _wrap(self, span_name: str, fn):
        nid = len(self.names)
        self.names.append(span_name)
        stat = TALLIED.get(span_name)
        if stat is not None:
            self.tally[span_name] = 0
        clock = time.perf_counter
        stack = self._stack
        names, parents, ops, starts, ends = self.name, self.parent, self.op, self.start, self.end

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if stat is not None:
                self.tally[span_name] += stat(result)
            return result

        update_wrapper(traced, fn)
        for attr in ("cache_info", "cache_clear"):  # keep lru_cache's interface
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def write(self, path: Path) -> None:
        """Header line of JSON, then the five columns as raw arrays."""
        header = {"names": self.names, "count": len(self.start),
                  "columns": ["name:i", "parent:i", "op:i", "start:d", "end:d"]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for column in (self.name, self.parent, self.op, self.start, self.end):
                column.tofile(fh)


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


@dataclass
class Summary:
    workload: dict[str, SpanStats] = field(default_factory=dict)
    probe: dict[str, SpanStats] = field(default_factory=dict)
    layer_self: dict[str, float] = field(default_factory=dict)
    calls_by_op: dict[int, dict[str, int]] = field(default_factory=dict)


def summarize(tracer: Tracer) -> Summary:
    n = len(tracer.start)
    starts, ends, parents = tracer.start, tracer.end, tracer.parent
    child = [0.0] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            child[p] += ends[i] - starts[i]
    out = Summary(layer_self={layer: 0.0 for layer in LAYERS})
    for name in tracer.names:
        out.workload[name] = SpanStats()
        out.probe[name] = SpanStats()
    names, ops = tracer.names, tracer.op
    for i in range(n):
        name = names[tracer.name[i]]
        duration = ends[i] - starts[i]
        own = duration - child[i]
        stats = out.probe[name] if ops[i] == PROBE_OP else out.workload[name]
        stats.calls += 1
        stats.total += duration
        stats.self_time += own
        if ops[i] != PROBE_OP:
            out.layer_self[name.split(".")[0]] += own
            per_op = out.calls_by_op.setdefault(ops[i], {})
            per_op[name] = per_op.get(name, 0) + 1
    return out
