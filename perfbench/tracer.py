"""Spans and correctness checks around sidesched's functions, from outside.

``from x import y`` binds ``y`` into the importing module when it is
imported, so a wrapper must replace the binding in the namespace that
makes the call, not the definition. Each entry of ``WRAPS`` names that
caller namespace, the attribute looked up there, and the span name, which
is the defining module and function.

Spans nest through a stack. A span's self time is its duration minus the
durations of the spans it encloses. Checks and input statistics run after
the wrapped call returns, and their time is excluded from every span that
is still open, so the per-layer times carry only the wrappers' own cost.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching
from sidesched.errors import ConstraintViolation
from sidesched.solvers import verify_assignment

# (caller namespace, attribute, span name)
WRAPS = (
    ("sidesched.cli", "load_config", "cli.load_config"),
    ("sidesched.cli", "run_experiment", "cli.run_experiment"),
    ("sidesched.cli", "run_sweep", "cli.run_sweep"),
    ("sidesched.cli", "build_report", "metrics.build_report"),
    ("sidesched.cli", "sweep_density", "metrics.sweep_density"),
    ("sidesched.cli", "run_cell", "pipeline.run_cell"),
    ("sidesched.metrics", "run_cell", "pipeline.run_cell"),
    ("sidesched.cli", "derive_seed", "pipeline.derive_seed"),
    ("sidesched.metrics", "derive_seed", "pipeline.derive_seed"),
    ("sidesched.pipeline", "generate_sinr", "scenario.generate_sinr"),
    ("sidesched.pipeline", "pad_to_square", "scenario.pad_to_square"),
    ("sidesched.pipeline", "build_rate_matrices", "sideinfo.build_rate_matrices"),
    ("sidesched.pipeline", "compress", "assignment.compress"),
    ("sidesched.pipeline", "solve_proposed", "solvers.solve_proposed"),
    ("sidesched.pipeline", "expand_solution", "assignment.expand_solution"),
    ("sidesched.pipeline", "solve_greedy", "solvers.solve_greedy"),
    ("sidesched.pipeline", "solve_random", "solvers.solve_random"),
    ("sidesched.pipeline", "evaluate", "solvers.evaluate"),
    ("sidesched.solvers", "max_weight_assignment", "munkres.max_weight_assignment"),
)

# Spans whose return value is an Assignment that the cell must keep feasible.
ASSIGNMENT_SPANS = ("assignment.expand_solution", "solvers.solve_greedy",
                    "solvers.solve_random")

# Relative tolerance between the kernel's total and scipy's optimum.
MATCH_RTOL = 1e-9
MAX_NOTES = 20


class GuardError(RuntimeError):
    """The tracer could not attach where the benchmark expects a layer."""


class Span:
    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.durations = []

    def summary(self) -> dict:
        d = np.asarray(self.durations) if self.durations else np.zeros(1)
        return {"calls": self.calls, "busy_s": self.busy_s,
                "self_s": self.self_s,
                "p50_s": float(np.percentile(d, 50)),
                "p90_s": float(np.percentile(d, 90))}


class Tracer:
    """Per-layer spans, per-cell checks and kernel-input statistics."""

    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.excluded_s = 0.0  # time spent in checks, outside every span
        self._stack = []       # open spans: [start, excluded_s at start, child time]
        self._cell = None      # assignments and failure flag of the open cell
        self.cells = 0
        self.failed_cells = 0
        self.failed_outside_cells = 0
        self.notes: list[str] = []
        self.tight_cover = []
        self.distinct_weights = []
        self.draw_keys = set()

    def install(self) -> None:
        posts = {
            "munkres.max_weight_assignment": self._check_matching,
            "scenario.generate_sinr": self._record_draw,
            "pipeline.run_cell": self._close_cell,
        }
        posts.update({name: self._keep_assignment for name in ASSIGNMENT_SPANS})
        for caller, attr, name in WRAPS:
            mod = importlib.import_module(caller)
            fn = getattr(mod, attr, None)
            if not callable(fn):
                raise GuardError(
                    f"{caller}.{attr} no longer exists; the span {name} "
                    "cannot be recorded (update WRAPS in perfbench/tracer.py)")
            pre = self._open_cell if name == "pipeline.run_cell" else None
            setattr(mod, attr, self._wrap(name, fn, pre, posts.get(name)))

    @contextmanager
    def _outside_spans(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.excluded_s += time.perf_counter() - t0

    def _wrap(self, name, fn, pre, post):
        span = self.spans.setdefault(name, Span())
        stack = self._stack
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                with self._outside_spans():
                    pre()
            frame = [time.perf_counter(), self.excluded_s, 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                dt = time.perf_counter() - frame[0] - (self.excluded_s - frame[1])
                span.calls += 1
                span.busy_s += dt
                span.self_s += dt - frame[2]
                span.durations.append(dt)
                if stack:
                    stack[-1][2] += dt
            if post is not None:
                with self._outside_spans():
                    post(sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def _note(self, message: str) -> None:
        if len(self.notes) < MAX_NOTES:
            self.notes.append(message)

    def _fail(self, message: str) -> None:
        self._note(message)
        if self._cell is None:
            self.failed_outside_cells += 1
        else:
            self._cell["failed"] = True

    def _open_cell(self) -> None:
        self._cell = {"assignments": [], "failed": False}

    def _keep_assignment(self, arguments, assignment) -> None:
        if self._cell is None:
            self._fail(f"{assignment.method} assignment made outside a cell")
            return
        self._cell["assignments"].append(assignment)

    def _close_cell(self, arguments, result) -> None:
        cell, self._cell = self._cell, None
        grid = arguments["grid"]
        if not cell["assignments"]:
            cell["failed"] = True
            self._note(f"cell {result.method}/{result.bits} made no assignment")
        for assn in cell["assignments"]:
            try:
                verify_assignment(assn, grid)
            except (ConstraintViolation, IndexError) as exc:
                cell["failed"] = True
                self._note(f"cell {result.method}/{result.bits}: {exc}")
        self.cells += 1
        self.failed_cells += cell["failed"]

    def _record_draw(self, arguments, sinr) -> None:
        model, cluster = arguments["model"], arguments["cluster"]
        self.draw_keys.add((model.seed, cluster.id, cluster.n_vehicles))

    def _check_matching(self, arguments, result) -> None:
        w = np.asarray(arguments["weights"], dtype=float)
        cols, total = result
        n = w.shape[0]
        rows, ref_cols = linear_sum_assignment(w, maximize=True)
        best = float(w[rows, ref_cols].sum())
        cols = np.asarray(cols)
        if not np.array_equal(np.sort(cols), np.arange(n)):
            self._fail(f"{n}x{n} matching is not a permutation")
        elif abs(float(w[np.arange(n), cols].sum()) - total) > MATCH_RTOL * abs(best):
            self._fail(f"{n}x{n} matching total {total!r} is not its weight")
        elif abs(total - best) > MATCH_RTOL * abs(best):
            self._fail(f"{n}x{n} matching total {total!r}, optimum {best!r}")
        tight = (w == w.max(axis=1, keepdims=True)).astype(np.int8)
        match = maximum_bipartite_matching(csr_matrix(tight), perm_type="column")
        self.tight_cover.append(np.count_nonzero(match >= 0) / n)
        self.distinct_weights.append(np.unique(w).size)

    def summary(self) -> dict:
        return {
            "spans": {name: s.summary() for name, s in self.spans.items()},
            "excluded_s": self.excluded_s,
            "cells": self.cells,
            "failed_cells": self.failed_cells,
            "failed_outside_cells": self.failed_outside_cells,
            "notes": self.notes,
            "tight_cover_mean": float(np.mean(self.tight_cover)) if self.tight_cover else 0.0,
            "distinct_weights_p50": float(np.median(self.distinct_weights)) if self.distinct_weights else 0.0,
            "distinct_draws": len(self.draw_keys),
        }
