"""Outside-in span tracing of eqdeform's public functions.

The program has no tracing of its own, so the benchmark wraps functions
from outside.  A module-level function is imported by name into other
modules (``solve`` into ``cohomology`` and ``deform``, ``substitute``
into ``gaction``, ...), so its wrapper is installed under every name in
every ``eqdeform`` module namespace that holds the original object.
Methods and constructors are wrapped once, on their class.

Each call records a span ``(name, start, end, parent, op)``: ``parent``
is the index of the enclosing span (-1 at the top) and ``op`` the id of
the CLI operation that caused it.  Spans stay in memory until
``SpanSummary`` sums them up and ``write_spans`` puts them in a file.
A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, qualified name) of every traced callable.  A class name stands
# for its constructor.  The fields layer is too hot to wrap (Field.zero
# runs tens of millions of times per obstruction); its cost lands in the
# self time of its callers.
TARGETS = (
    ("linalg", "rref"),
    ("linalg", "solve"),
    ("linalg", "kernel_basis"),
    ("linalg", "SpanBuilder.add"),
    ("cohomology", "slice_of_normal_module"),
    ("cohomology", "GModuleSlice"),
    ("cohomology", "GModuleSlice.express"),
    ("cohomology", "invariants"),
    ("cohomology", "zcocycles"),
    ("cohomology", "h1_bounded"),
    ("cohomology", "solve_coboundary"),
    ("ambient", "choose_ambient"),
    ("ambient", "derivations"),
    ("ambient", "ambient_vector_slice"),
    ("ambient", "NormalModule.act"),
    ("ambient", "normal_image"),
    ("deform", "tangent_spaces"),
    ("deform", "obstruction_space"),
    ("deform", "lift_step"),
    ("deform", "eps_divide"),
    ("deform", "certify_equivariance"),
    ("deform", "verify_deformation"),
    ("deform", "isomorphism_witness"),
    ("poly", "substitute"),
    ("gaction", "close_group"),
    ("gaction", "verify_stability"),
    ("gaction", "GroupAction.apply"),
    ("groebner", "buchberger"),
    ("groebner", "module_groebner"),
    ("groebner", "reduce_vec"),
    ("groebner", "quotient_basis"),
    ("groebner", "Representer.express"),
    ("problem", "parse_problem"),
    ("cli", "Workspace"),
    ("ramify", "local_ext1_invariants"),
    ("ramify", "TruncatedSeriesModule.invariant_count_by_matrix"),
)


def _rref_cells(args, kwargs, result):
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    return len(rows) * len(rows[0]) if rows else 0


def _slice_dim(args, kwargs, result):
    return result.dim


def _accepted(args, kwargs, result):
    return 1 if result else 0


# Work counts taken from a call's arguments or result, keyed by span name.
COUNTERS = {
    "linalg.rref": ("cells", _rref_cells),
    "cohomology.slice_of_normal_module": ("dim", _slice_dim),
    "linalg.SpanBuilder.add": ("accepted", _accepted),
}


# Per-layer metrics, ``<module>.<function>.<stat>``.  ``calls``, ``total_s``
# and ``self_s`` are per pass; so are the work counts ``cells`` (rows x
# columns of each rref input) and ``dim`` (slice dimensions);
# ``accept_ratio`` is accepted vectors over SpanBuilder.add attempts.
LAYER_METRICS = (
    "linalg.rref.calls", "linalg.rref.self_s", "linalg.rref.cells",
    "linalg.solve.calls", "linalg.solve.self_s",
    "linalg.kernel_basis.calls", "linalg.kernel_basis.self_s",
    "linalg.SpanBuilder.add.calls", "linalg.SpanBuilder.add.self_s",
    "linalg.SpanBuilder.add.accept_ratio",
    "cohomology.slice_of_normal_module.calls",
    "cohomology.slice_of_normal_module.total_s",
    "cohomology.slice_of_normal_module.self_s",
    "cohomology.slice_of_normal_module.dim",
    "cohomology.GModuleSlice.calls", "cohomology.GModuleSlice.self_s",
    "cohomology.GModuleSlice.express.calls",
    "cohomology.GModuleSlice.express.total_s",
    "cohomology.invariants.total_s",
    "cohomology.zcocycles.total_s", "cohomology.zcocycles.self_s",
    "cohomology.h1_bounded.total_s", "cohomology.h1_bounded.self_s",
    "cohomology.solve_coboundary.calls", "cohomology.solve_coboundary.total_s",
    "ambient.choose_ambient.total_s",
    "ambient.derivations.calls", "ambient.derivations.total_s",
    "ambient.ambient_vector_slice.calls",
    "ambient.ambient_vector_slice.total_s",
    "ambient.ambient_vector_slice.self_s",
    "ambient.NormalModule.act.calls", "ambient.NormalModule.act.self_s",
    "ambient.normal_image.calls",
    "deform.tangent_spaces.total_s", "deform.obstruction_space.total_s",
    "deform.lift_step.calls", "deform.lift_step.total_s",
    "deform.eps_divide.calls", "deform.eps_divide.self_s",
    "deform.certify_equivariance.calls", "deform.certify_equivariance.total_s",
    "deform.verify_deformation.total_s", "deform.isomorphism_witness.total_s",
    "poly.substitute.calls", "poly.substitute.self_s",
    "gaction.close_group.total_s", "gaction.verify_stability.total_s",
    "gaction.GroupAction.apply.calls", "gaction.GroupAction.apply.self_s",
    "groebner.buchberger.calls", "groebner.buchberger.total_s",
    "groebner.module_groebner.calls", "groebner.module_groebner.total_s",
    "groebner.reduce_vec.calls", "groebner.reduce_vec.self_s",
    "groebner.quotient_basis.total_s", "groebner.Representer.express.calls",
    "problem.parse_problem.total_s",
    "cli.Workspace.calls", "cli.Workspace.total_s",
    "ramify.local_ext1_invariants.total_s",
    "ramify.TruncatedSeriesModule.invariant_count_by_matrix.total_s",
)

STAT_UNITS = {"calls": "count", "total_s": "s", "self_s": "s",
              "cells": "count", "dim": "count", "accept_ratio": "ratio"}


def layer_metrics(summary: SpanSummary, counts: dict, passes: int) -> dict:
    """Every LAYER_METRICS value, per pass, from the traced passes."""
    out = {}
    for metric in LAYER_METRICS:
        span, stat = metric.rsplit(".", 1)
        entry = summary.by_name.get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        if stat == "accept_ratio":
            accepted = counts.get((span, "accepted"), 0)
            value = accepted / entry["calls"] if entry["calls"] else 0.0
        elif stat in entry:
            value = entry[stat] / passes
        else:
            value = counts.get((span, stat), 0) / passes
        out[metric] = {"value": value, "unit": STAT_UNITS[stat]}
    return out


class Tracer:
    """Installs span-recording wrappers and keeps the spans of traced calls."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self.op = -1
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original)

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.op)
            if counter is not None:
                key = (name, counter[0])
                counts[key] = counts.get(key, 0) + counter[1](args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target, wherever the package holds a reference to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "eqdeform" or name.startswith("eqdeform.")}
        for module_name, qualname in TARGETS:
            module = modules["eqdeform." + module_name]
            span_name = f"{module_name}.{qualname}"
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                self._patch(owner, attr, self._wrap(span_name, owner.__dict__[attr]))
                continue
            original = getattr(module, attr)
            if isinstance(original, type):
                self._patch(original, "__init__",
                            self._wrap(span_name, original.__dict__["__init__"]))
                continue
            wrapper = self._wrap(span_name, original)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# tame_q is chosen for the elimination under this span; ``SpanSummary.under``
# holds the self time spent below it.
UNDER_SPAN = "ambient.ambient_vector_slice"


class SpanSummary:
    """Call counts, total and self seconds summed over the spans of passes.

    ``by_layer`` and ``under`` hold self seconds per module (a span name's
    first part); ``under`` counts only spans with an ancestor named
    ``UNDER_SPAN``."""

    def __init__(self):
        self.by_name: dict = {}
        self.by_layer: dict = {}
        self.under: dict = {}

    def add(self, spans) -> None:
        child = [0.0] * len(spans)
        for _name, start, end, parent, _op in spans:
            if parent >= 0:
                child[parent] += end - start
        inside = [False] * len(spans)
        for i, (name, start, end, parent, _op) in enumerate(spans):
            total = end - start
            own = total - child[i]
            entry = self.by_name.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += total
            entry["self_s"] += own
            layer = name.split(".", 1)[0]
            self.by_layer[layer] = self.by_layer.get(layer, 0.0) + own
            if parent >= 0:
                inside[i] = inside[parent] or spans[parent][0] == UNDER_SPAN
            if inside[i]:
                self.under[layer] = self.under.get(layer, 0.0) + own


def write_spans(spans, path: str) -> None:
    """One JSON line per span: name, start, end, parent index, op id."""
    with open(path, "w", encoding="utf-8") as out:
        for name, start, end, parent, op in spans:
            out.write(json.dumps([name, start, end, parent, op]) + "\n")
