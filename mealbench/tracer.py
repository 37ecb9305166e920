"""In-memory span tracer and the patches that put it around mealopt's layers.

A span is (id, parent id, name, start, end). Spans nest on a stack, so a
span's self time is its duration minus the durations of its direct
children. Self and total times are summed per span name as spans close;
only the first `keep` raw spans are stored, because a traced box-QP
workload opens millions of them.

`instrument` wraps the public functions that `mealopt.solvers.run` and
the inner loop call into, as bound where they are called from. It patches
module and class attributes for the duration of a `with` block and puts
the originals back afterwards. `count_inner` wraps only
`solve_subproblem`, with a counter and no clock, for the untraced run.
"""

from __future__ import annotations

import contextlib
import functools
import time

import mealopt
from mealopt import envelope, experiments, fileio, problem, rng, solvers

PROX_KINDS = {
    "BoxIndicator": "box", "Zero": "zero", "L1": "l1", "SCAD": "scad",
    "MCP": "mcp", "QuadraticForm": "quadratic_form",
    "PointwiseMin": "pointwise_min",
}
STEP_FUNCTIONS = ("meal_step", "imeal_step", "limeal_step", "alm_step",
                  "prox_ialm_step")


class Tracer:
    """Span stack with per-name aggregates: calls, total and self seconds."""

    def __init__(self, keep: int = 0):
        self.keep = keep
        self.spans: list = []          # first `keep` closed spans
        self.stats: dict = {}          # name -> [calls, total_s, self_s]
        self.counts: dict = {"inner_iters": 0, "inner_budget_exhausted": 0}
        self._stack: list = []         # open spans: [id, name, start, child_s]
        self._next_id = 0

    def begin(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])

    def end(self) -> None:
        t = time.perf_counter()
        span_id, name, start, child = self._stack.pop()
        dur = t - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        agg = self.stats.get(name)
        if agg is None:
            agg = self.stats[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child
        if len(self.spans) < self.keep:
            self.spans.append((span_id, parent[0] if parent else None,
                               name, start, t))

    def wrap(self, fn, name):
        """`fn` inside a span; `name` is a string or a function of the args."""
        begin, end = self.begin, self.end
        named = callable(name)

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            begin(name(*args) if named else name)
            try:
                return fn(*args, **kwargs)
            finally:
                end()
        return traced

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, prefix: str) -> float:
        """Self seconds of every span named `prefix` or `prefix.*`."""
        return sum(agg[2] for name, agg in self.stats.items()
                   if name == prefix or name.startswith(prefix + "."))


def _counting(fn, counts):
    """solve_subproblem that adds each result's inner iterations to `counts`."""
    @functools.wraps(fn, updated=())
    def counted(*args, **kwargs):
        res = fn(*args, **kwargs)
        counts["inner_iters"] += res.inner_iterations
        counts["inner_budget_exhausted"] += bool(res.budget_exhausted)
        return res
    return counted


@contextlib.contextmanager
def _patched(patches):
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, new in patches:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def count_inner(counts: dict):
    """Context in which `run` counts inner iterations into `counts`."""
    return _patched([(solvers, "solve_subproblem",
                      _counting(solvers.solve_subproblem, counts))])


def instrument(tracer: Tracer):
    """Context in which every measured layer boundary opens a span."""
    w = tracer.wrap
    patches = [(solvers, "run", w(solvers.run, "solvers.run"))]
    patches += [(solvers, f, w(getattr(solvers, f), f"solvers.step.{f}"))
                for f in STEP_FUNCTIONS]
    patches += [
        (solvers, "solve_subproblem",
         _counting(w(solvers.solve_subproblem, "envelope.solve_subproblem"),
                   tracer.counts)),
        (solvers, "lyapunov", w(solvers.lyapunov, "envelope.lyapunov")),
        (solvers, "potential_P", w(solvers.potential_P, "envelope.potential_P")),
        (solvers, "augmented_lagrangian",
         w(solvers.augmented_lagrangian, "envelope.augmented_lagrangian")),
        (solvers, "EnvelopeContext",
         w(envelope.EnvelopeContext, "envelope.context")),
        (solvers, "box_qp_global_min",
         w(solvers.box_qp_global_min, "oracle.box_qp_global_min")),
        (problem.ProxFunction, "prox",
         w(problem.ProxFunction.prox,
           lambda g, *_: "problem.prox." + PROX_KINDS.get(type(g).__name__,
                                                         type(g).__name__))),
        (problem.Problem, "objective_value",
         w(problem.Problem.objective_value, "problem.objective_value")),
        (problem.Problem, "smooth_gradient",
         w(problem.Problem.smooth_gradient, "problem.smooth_gradient")),
        (rng.SplitMix64, "uniform_array",
         w(rng.SplitMix64.uniform_array, "rng.uniform_array")),
    ]
    for owner in (mealopt, experiments):
        patches.append((owner, "build_exp2",
                        w(experiments.build_exp2, "experiments.build_exp2")))
    for owner in (mealopt, fileio):
        patches.append((owner, "save_trace",
                        w(fileio.save_trace, "fileio.save_trace")))
    return _patched(patches)
