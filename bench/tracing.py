"""Spans around quandlehom's public functions, recorded from outside the package.

``Tracer.install`` wraps every public function of the seven modules and
``IntMatrix.__matmul__``, and rebinds each module attribute that still points
at an original, so a function is traced however its callers look it up
(``find_violation`` is reached through both ``quandle`` and ``cli``).  Spans
are kept in memory as parallel arrays and written out once, at the end.
A few wrapped functions also feed counters from their arguments and
results, e.g. the nonzeros of d3 or the steps per rewrite rule.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter

MODULES = ("quandle", "homology", "intlinalg", "words", "cocycle", "checks", "cli")

COUNT, SECONDS, BITS, BYTES = "count", "s", "bits", "bytes"

FAMILIES = (
    "quandle-structure",
    "word-laws",
    "weight-action-exhaustive",
    "central-power",
    "rewriting",
    "cocycle-identities",
    "kernel-generation",
    "h2-oracles",
    "smith-normal-form",
)

# (metric, unit) reported by a traced run; names are <module>.<function>.<kind>
PER_LAYER = (
    [
        ("quandle.build_alexander.calls", COUNT),
        ("quandle.build_alexander.s", SECONDS),
        ("quandle.find_violation.calls", COUNT),
        ("quandle.find_violation.s", SECONDS),
        ("quandle.orbits.s", SECONDS),
        ("homology.boundary_matrices.calls", COUNT),
        ("homology.boundary_matrices.s", SECONDS),
        ("homology.d3_entries", COUNT),
        ("homology.d3_nnz", COUNT),
        ("homology.h2_chain_complex.s", SECONDS),
        ("homology.h2_eisermann.s", SECONDS),
        ("intlinalg.smith_normal_form.calls", COUNT),
        ("intlinalg.smith_normal_form.self_s", SECONDS),
        ("intlinalg.smith_normal_form.max_entry_bits", BITS),
        ("intlinalg.matmul.calls", COUNT),
        ("intlinalg.matmul.s", SECONDS),
        ("intlinalg.homology_invariants.self_s", SECONDS),
        ("intlinalg.relations.rows", COUNT),
        ("intlinalg.relations.cols", COUNT),
        ("intlinalg.quotient_invariants.s", SECONDS),
        ("words.parse_word.s", SECONDS),
        ("words.word_eval.calls", COUNT),
        ("words.word_eval.s", SECONDS),
        ("words.canonical_word.s", SECONDS),
        ("words.format_word.s", SECONDS),
        ("words.rewrite_trace.calls", COUNT),
        ("words.rewrite_trace.s", SECONDS),
        ("words.rewrite_trace.steps", COUNT),
        ("words.rewrite_trace.steps.braid", COUNT),
        ("words.rewrite_trace.steps.relation", COUNT),
        ("words.rewrite_trace.steps.central-power", COUNT),
        ("cocycle.extension_cocycle.calls", COUNT),
        ("cocycle.extension_cocycle.s", SECONDS),
        ("cocycle.degree_zero_cocycle.s", SECONDS),
    ]
    + [(f"checks.{family}.{kind}", unit) for family in FAMILIES for kind, unit in (("s", SECONDS), ("checks", COUNT))]
    + [
        ("cli.main.calls", COUNT),
        ("cli.main.self_s", SECONDS),
        ("cli.report_bytes", BYTES),
    ]
)

OBSERVE = "bench.observe"


def _max_bits(matrix):
    return max((abs(e).bit_length() for row in matrix.data for e in row), default=0)


def _observe_boundary(tracer, args, result, parent, duration_ns):
    d3 = result.d3
    tracer.counts["homology.d3_entries"] += d3.rows * d3.cols
    tracer.counts["homology.d3_nnz"] += sum(len(row) - row.count(0) for row in d3.data)


def _observe_smith(tracer, args, result, parent, duration_ns):
    matrices = [args[0], result.d, result.u, result.v, result.v_inv]
    bits = max(_max_bits(m) for m in matrices if m is not None)
    key = "intlinalg.smith_normal_form.max_entry_bits"
    tracer.counts[key] = max(tracer.counts[key], bits)


def _observe_quotient(tracer, args, result, parent, duration_ns):
    # the relation matrix of the chain route: v_inv rows times d3
    if parent == "intlinalg.homology_invariants":
        relations = args[1]
        tracer.counts["intlinalg.relations.rows"] += relations.rows
        tracer.counts["intlinalg.relations.cols"] += relations.cols


def _observe_rewrite(tracer, args, result, parent, duration_ns):
    steps = result[1]
    tracer.counts["words.rewrite_trace.steps"] += len(steps)
    for step in steps:
        tracer.counts[f"words.rewrite_trace.steps.{step.rule}"] += 1


def _observe_check(tracer, args, result, parent, duration_ns):
    tracer.counts[f"checks.{result.name}.checks"] += result.checks
    tracer.family_ns[result.name] += duration_ns


OBSERVERS = {
    "homology.boundary_matrices": _observe_boundary,
    "intlinalg.smith_normal_form": _observe_smith,
    "intlinalg.quotient_invariants": _observe_quotient,
    "words.rewrite_trace": _observe_rewrite,
}


class Tracer:
    """In-memory span recorder; one span per call of a wrapped function."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.outer = array("b")  # no enclosing span of the same name
        self.start = array("q")
        self.end = array("q")
        self._stack = []
        self._depth = Counter()
        self.counts = Counter()
        self.family_ns = Counter()
        self.request_index = -1

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        index = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_index)
        self.outer.append(self._depth[nid] == 0)
        self.start.append(0)
        self.end.append(0)
        self._depth[nid] += 1
        self._stack.append(index)
        return index

    def _close(self, nid):
        self._stack.pop()
        self._depth[nid] -= 1

    def wrap(self, name, func, observe=None):
        nid = self._id(name)
        observe_id = self._id(OBSERVE)
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = self._open(nid)
            self.start[index] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                self.end[index] = clock()
                self._close(nid)
            if observe is not None:
                # a span of its own, so the caller's self time excludes it
                parent = self.parent[index]
                inner = self._open(observe_id)
                self.start[inner] = clock()
                observe(
                    self,
                    args,
                    result,
                    self.names[self.name[parent]] if parent >= 0 else None,
                    self.end[index] - self.start[index],
                )
                self.end[inner] = clock()
                self._close(observe_id)
            return result

        return traced

    def install(self):
        """Wrap quandlehom's public functions wherever the package binds them."""
        wrappers = {}
        for short in MODULES:
            module = importlib.import_module(f"quandlehom.{short}")
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    name = f"{short}.{attr}"
                    observe = OBSERVERS.get(name)
                    if short == "checks" and attr.startswith("check_"):
                        observe = _observe_check
                    wrappers[obj] = self.wrap(name, obj, observe)
        for module_name, module in list(sys.modules.items()):
            if module_name == "quandlehom" or module_name.startswith("quandlehom."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        setattr(module, attr, wrappers[obj])
        intmatrix = importlib.import_module("quandlehom.intlinalg").IntMatrix
        intmatrix.__matmul__ = self.wrap("intlinalg.matmul", intmatrix.__matmul__)

    def metrics(self):
        """Calls, inclusive seconds (.s) and self seconds (.self_s) per function,
        plus the counters; every PER_LAYER metric, 0 where nothing ran."""
        count = len(self.name)
        children = [0] * count
        for i in range(count):
            if self.parent[i] >= 0:
                children[self.parent[i]] += self.end[i] - self.start[i]
        calls, inclusive, own = Counter(), Counter(), Counter()
        for i in range(count):
            name = self.names[self.name[i]]
            duration = self.end[i] - self.start[i]
            calls[name] += 1
            own[name] += duration - children[i]
            if self.outer[i]:
                inclusive[name] += duration
        values = {}
        for metric, unit in PER_LAYER:
            head, _, kind = metric.rpartition(".")
            if metric in self.counts or kind not in ("calls", "s", "self_s"):
                value = self.counts[metric]
            elif head.startswith("checks."):
                value = self.family_ns[head[len("checks."):]] / 1e9
            elif kind == "calls":
                value = calls[head]
            else:
                value = (inclusive if kind == "s" else own)[head] / 1e9
            values[metric] = {"value": value, "unit": unit}
        return values

    def write(self, path):
        """All spans as parallel columns; times in ns from the first span."""
        origin = self.start[0] if len(self.start) else 0
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name.tolist(),
                    "parent": self.parent.tolist(),
                    "request": self.request.tolist(),
                    "start_ns": [s - origin for s in self.start],
                    "end_ns": [e - origin for e in self.end],
                },
                handle,
            )
