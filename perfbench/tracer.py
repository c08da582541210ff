"""Span tracing of diamondwalk calls, installed by function identity.

Modules bind library functions by name (``cli`` does ``from .lattice import
build_lattice``, ``bands`` does ``from .diamond import
transmission_closed_form``), so wrapping ``lattice.build_lattice`` alone would
miss the calls made through those names.  :class:`Tracer` replaces every
attribute of every loaded ``diamondwalk`` module that *is* a target function
and puts the originals back on :meth:`Tracer.uninstall`.

Spans live in memory as ``(name, start_ns, end_ns, parent)`` tuples, one tree
per op rooted at an ``op`` span; :func:`summarize` turns a tree into calls,
self time and total time per name.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np


def _bump(counters, key, amount):
    counters[key] = counters.get(key, 0) + amount


def _peak(counters, key, value):
    counters[key] = max(counters.get(key, 0), value)


def _count_k(counters, args, kwargs, result):
    k = args[1] if len(args) > 1 else kwargs["k"]
    if type(k) is not np.ndarray and np.ndim(k) == 0:
        _bump(counters, "tcf.scalar_calls", 1)
    _bump(counters, "tcf.k_points", int(np.size(k)))


def _count_points(counters, args, kwargs, result):
    _bump(counters, "bands.points", result.gap.size)


def _count_slots(counters, args, kwargs, result):
    # computed from array sizes, not measured traffic
    table_bytes = sum(v.nbytes for v in vars(result).values() if isinstance(v, np.ndarray))
    _bump(counters, "lattice.slots_built", result.dim)
    _peak(counters, "lattice.slots", result.dim)
    _peak(counters, "lattice.table_bytes", table_bytes)


def _count_state(counters, args, kwargs, result):
    _peak(counters, "walk.state_bytes", result.amplitudes.nbytes)


def _count_substeps(counters, args, kwargs, result):
    # counted from evolve's inputs and outputs so that a rewrite of step keeps it
    graph = args[1] if len(args) > 1 else kwargs["graph"]
    substeps = (len(result.records) - 1) * result.substeps_per_record
    _bump(counters, "walk.substeps", substeps)
    _bump(counters, "walk.slot_substeps", substeps * graph.dim)


#: span name ("module.function" under diamondwalk) -> hook adding layer counters
TARGETS = {
    "cli.main": None,
    "cli.run_reproduction": None,
    "config.parse_config": None,
    "lattice.build_lattice": _count_slots,
    "lattice.audit_graph": None,
    "walk.initial_state": _count_state,
    "walk.evolve": _count_substeps,
    "walk.step": None,
    "walk.cell_probabilities": None,
    "bands.phase_diagram": _count_points,
    "bands.band_structure": None,
    "bands.winding_number": None,
    "diamond.transmission_closed_form": _count_k,
    "multiport.vertex_unitary": None,
}


def resolve(name: str):
    """The original function behind span name ``module.function``."""
    module, func = name.rsplit(".", 1)
    return getattr(importlib.import_module("diamondwalk." + module), func)


def loaded_modules():
    return [
        mod for key, mod in sorted(sys.modules.items())
        if mod is not None and (key == "diamondwalk" or key.startswith("diamondwalk."))
    ]


class Tracer:
    """Wraps the target functions and records one span tree per op."""

    def __init__(self):
        self.originals = {name: resolve(name) for name in TARGETS}
        self.wrappers = {
            id(fn): self._wrap(name, fn, TARGETS[name]) for name, fn in self.originals.items()
        }
        self.patched: list = []
        self.spans: list = []
        self.stack: list = []
        self.counters: dict = {}
        self.ops: list = []  # (spans, counters) per finished op

    def _wrap(self, name, fn, hook):
        perf_ns = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # the slot is reserved now so that children can name their parent;
            # the finished span is a tuple of atoms, which the garbage
            # collector stops tracking, so retained spans do not slow it down
            spans = self.spans
            index = len(spans)
            spans.append(None)
            parent = self.stack[-1]
            self.stack.append(index)
            start = perf_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, perf_ns(), parent)
                self.stack.pop()
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self.patched:
            raise RuntimeError("tracer already installed")
        for mod in loaded_modules():
            for attr, value in list(vars(mod).items()):
                wrapper = self.wrappers.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self.patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self.patched):
            setattr(mod, attr, value)
        self.patched = []

    def begin_op(self) -> None:
        self.spans = [None]
        self.stack = [0]
        self.counters = {}
        self.op_start = time.perf_counter_ns()

    def end_op(self) -> tuple[list, dict]:
        self.spans[0] = ("op", self.op_start, time.perf_counter_ns(), -1)
        if self.stack != [0]:
            raise RuntimeError(f"unbalanced spans: stack {self.stack}")
        finished = (self.spans, self.counters)
        self.ops.append(finished)
        return finished


def summarize(spans: list) -> dict:
    """Per span name: ``[calls, self_ns, total_ns]``.

    Self time is a span's duration minus the durations of its direct children;
    calls on one thread nest, so the children never overlap.
    """
    child_ns = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict = {}
    for i, (name, start, end, _) in enumerate(spans):
        entry = out.setdefault(name, [0, 0, 0])
        entry[0] += 1
        entry[1] += end - start - child_ns[i]
        entry[2] += end - start
    return out
