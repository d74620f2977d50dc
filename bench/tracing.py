"""Spans around pnpfem's public functions, installed from outside the package.

The package imports functions by value (``from .linalg import solve_spd``), so
a wrapper on the defining module alone would miss most calls.  Each name is
therefore replaced in every module that looks it up at call time, and every
original is put back when the traced block ends.

A span records its name, start, end, the span that was open when it started
(its parent) and a count taken from the call's arguments or return value.
Spans stay in memory and are written out once, after the run.
"""

from __future__ import annotations

import csv
import importlib
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module, name) for every place a traced function is looked up.
TARGETS = (
    ("pnpfem.gummel", "solve_spd"),
    ("pnpfem.gummel", "solve_general"),
    ("pnpfem.gummel", "spmv"),
    ("pnpfem.gummel", "gummel_step"),
    ("pnpfem.timestepper", "gummel_solve"),
    ("pnpfem.timestepper", "solve_spd"),
    ("pnpfem.timestepper", "spmv"),
    ("pnpfem.timestepper", "column_mmatrix_check"),
    ("pnpfem.timestepper", "interior_submatrix"),
    ("pnpfem.assembly", "assemble_np"),
    ("pnpfem.assembly", "assemble_load"),
    ("pnpfem.assembly", "element_integrals"),
    ("pnpfem.assembly", "bernoulli"),
    ("pnpfem.linalg", "spmv"),
    # the transient_problem lambdas resolve these two at call time
    ("pnpfem.manufactured", "source_terms"),
    ("pnpfem.manufactured", "exact_eval"),
)


def _spmv_work(args, out):
    """(flops, bytes) of one CSR product, computed from the array sizes."""
    a = args[0]
    moved = a.data.nbytes + a.indices.nbytes + a.indptr.nbytes + a.nnz * 8 + out.nbytes
    return (2 * a.nnz, moved)


# span name -> count taken from (positional args, return value)
COUNTERS = {
    "solve_spd": lambda args, out: (out.iterations, out.method),
    "solve_general": lambda args, out: (out.iterations, out.method),
    "spmv": _spmv_work,
    "bernoulli": lambda args, out: int(np.size(args[0])),
    "column_mmatrix_check": lambda args, out: len(out.violations) + len(out.column_violations),
    "source_terms": lambda args, out: int(np.atleast_2d(args[0]).shape[0]),
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "count", "error")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.count = None
        self.error = ""

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects nested spans from wrapped functions and explicit blocks."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def _begin(self, name: str) -> Span:
        span = Span(name, self._open[-1] if self._open else -1)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def _end(self, span: Span) -> None:
        span.end = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        s = self._begin(name)
        try:
            yield s
        finally:
            self._end(s)

    def wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            s = self._begin(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                s.error = type(exc).__name__
                raise
            finally:
                self._end(s)
            if counter is not None:
                s.count = counter(args, out)
            return out

        traced.traced_original = fn
        return traced

    @contextmanager
    def installed(self):
        """Replace every target by its wrapper; restore all originals on exit."""
        originals = []
        try:
            for module_name, attr in TARGETS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self.wrap(fn, attr))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "parent", "start", "end", "count", "error"])
            for i, s in enumerate(self.spans):
                out.writerow([i, s.name, s.parent, repr(s.start), repr(s.end), s.count, s.error])


def installed_wrappers() -> list[str]:
    """Targets that currently hold a wrapper instead of the package's function."""
    left = []
    for module_name, attr in TARGETS:
        fn = getattr(importlib.import_module(module_name), attr)
        if hasattr(fn, "traced_original"):
            left.append(f"{module_name}.{attr}")
    return left


class Totals:
    """Calls, inclusive seconds, self seconds and counts of a group of spans."""

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0
        self.counts = []
        self.errors = []

    def add(self, span: Span, self_seconds: float) -> None:
        self.calls += 1
        self.seconds += span.seconds
        self.self_seconds += self_seconds
        if span.count is not None:
            self.counts.append(span.count)
        if span.error:
            self.errors.append(span.error)


def totals(spans: list[Span]) -> dict[str, Totals]:
    """Group spans by name, with scope suffixes where the caller matters.

    ``assemble_np`` inside ``gummel_solve`` is ``assemble_np/solve``; outside it
    (the diagnostics re-assembly) it is ``assemble_np/diag``.  ``exact_eval``
    outside ``run_transient`` (scoring) is ``exact_eval/score``.  Self time is a
    span's duration minus the time its direct children cover.
    """
    child = np.zeros(len(spans))
    under_gummel = np.zeros(len(spans), dtype=bool)
    under_run = np.zeros(len(spans), dtype=bool)
    for i, s in enumerate(spans):
        p = s.parent
        if p >= 0:
            child[p] += s.seconds
            under_gummel[i] = under_gummel[p] or spans[p].name == "gummel_solve"
            under_run[i] = under_run[p] or spans[p].name == "run_transient"
    groups: dict[str, Totals] = {}
    for i, s in enumerate(spans):
        key = s.name
        if key == "assemble_np":
            key += "/solve" if under_gummel[i] else "/diag"
        elif key == "exact_eval" and not under_run[i]:
            key += "/score"
        groups.setdefault(key, Totals()).add(s, s.seconds - child[i])
    return groups
