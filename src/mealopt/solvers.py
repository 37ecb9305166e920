"""The five iterative algorithms and the trace-producing driver.

meal_step solves the proximal subproblem exactly (imeal_step to a certified
residual), limeal_step with the smooth part linearized at the current
iterate. alm_step is the classic method with a global subproblem oracle, and
prox_ialm_step is the projected prox-linear baseline. All share the updates

    z' = (1 - eta) z + eta x',      lam' = lam + beta (A x' - b).

ALGORITHMS is the one table of algorithms: the only place an algorithm name
is looked up. An entry holds the step call, the weak-convexity modulus that
gamma must stay below the inverse of, whether the stationarity column is a
running minimum, the energy recorded in the `lyapunov` column (a Lyapunov
family, the augmented Lagrangian or the potential P), the tuple of
subproblem spec types it accepts (empty for the two algorithms that solve no
envelope subproblem), and the algorithm's own requirements on the problem
and config. `SolverConfig.validate` and `run` read the entry.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .envelope import (
    EnvelopeContext,
    InnerProxGradient,
    Paper72FastPath,
    PenaltyPlan,
    augmented_lagrangian,
    lyapunov,
    potential_P,
    solve_subproblem,
)
from .errors import (
    GammaTooLarge,
    InvalidSubproblemPath,
    NotComposite,
    SubproblemNonconvexUnsupported,
)
from .problem import Problem, _vec
from .oracle import ACTIVE_SET_MAX_N, BoxFaces, box_qp_global_min, check_free_curvature

__all__ = [
    "IterateState",
    "StepReport",
    "EpsilonSchedule",
    "StopRule",
    "MonitorFlags",
    "SolverConfig",
    "Trace",
    "meal_step",
    "imeal_step",
    "limeal_step",
    "alm_step",
    "prox_ialm_step",
    "run",
    "DIVERGENCE_LIMIT",
]

DIVERGENCE_LIMIT = 1e12

TRACE_COLUMNS = (
    "k", "objective", "feasibility", "stationarity", "lyapunov",
    "lambda_norm", "xz_gap", "wall_time",
)


@dataclass(frozen=True)
class IterateState:
    """Primal iterate, envelope center and multiplier after k steps, as
    finite float vectors. A step's state carries A x - b as `residual`, and
    h's gradient at x as `grad_h` when the step evaluated it (LiMEAL and
    Prox-iALM); the energies and the next step read them. Each is None
    otherwise, and for a state built from an init.
    """

    x: np.ndarray
    z: np.ndarray
    lam: np.ndarray
    k: int = 0
    grad_h: Optional[np.ndarray] = field(default=None, compare=False, repr=False)
    residual: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "x", _vec(self.x))
        object.__setattr__(self, "z", _vec(self.z))
        object.__setattr__(self, "lam", _vec(self.lam))
        for v in (self.x, self.z, self.lam):
            if not np.isfinite(v).all():
                raise ValueError("iterate state must be finite")

    @classmethod
    def _of_step(cls, x, z, lam, k, grad_h, residual) -> IterateState:
        """The state a step made from its float vectors: no conversion, and
        the same finiteness check as the public constructor."""
        if not np.isfinite(np.concatenate((x, z, lam))).all():
            raise ValueError("iterate state must be finite")
        state = object.__new__(cls)
        state.__dict__.update(x=x, z=z, lam=lam, k=k, grad_h=grad_h, residual=residual)
        return state


@dataclass
class StepReport:
    """Per-step byproducts: envelope gradient and residual norms, and the
    subproblem solve's inner iterations (0 for steps with no inner loop)."""

    stationarity_norm: float
    feasibility: float
    inexact_residual_norm: Optional[float] = None
    inner_budget_exhausted: bool = False
    inner_iterations: int = 0


@dataclass(frozen=True)
class EpsilonSchedule:
    """Square-summable inexactness schedule eps_k = eps0 / (k + 1)."""

    eps0: float = 1e-2

    def __post_init__(self):
        if not self.eps0 > 0:
            raise ValueError(f"eps0 must be positive, got {self.eps0}")

    def __call__(self, k: int) -> float:
        return self.eps0 / (k + 1.0)


@dataclass(frozen=True)
class StopRule:
    max_iters: int = 2000
    stat_tol: float = 1e-6
    feas_tol: float = 1e-6

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (self.stat_tol > 0 and self.feas_tol > 0):
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class MonitorFlags:
    """Per-step checks kept in `Trace.monitors`. `one_step_progress` reads each
    step's drop in the `lyapunov` column, so it needs meal's s1 Lyapunov there."""

    one_step_progress: bool = False
    dual_by_primal: bool = False


@dataclass
class SolverConfig:
    algorithm: str
    plan: PenaltyPlan
    subproblem: Union[str, object] = "auto"
    epsilon_schedule: EpsilonSchedule = field(default_factory=EpsilonSchedule)
    stop: StopRule = field(default_factory=StopRule)
    monitors: MonitorFlags = field(default_factory=MonitorFlags)

    def validate(self, problem: Problem) -> None:
        algo = ALGORITHMS.get(self.algorithm)
        if algo is None:
            raise ValueError(f"algorithm must be one of {tuple(ALGORITHMS)}")
        if self.subproblem != "auto":
            if not isinstance(self.subproblem, algo.accepts):
                names = ", ".join(cls.__name__ for cls in algo.accepts) or "none"
                raise InvalidSubproblemPath(
                    f'{self.algorithm} takes the subproblem "auto" or one of: {names}; '
                    f"got {self.subproblem!r}")
            self.subproblem.check(problem)
        modulus = algo.modulus(problem)
        if modulus > 0 and self.plan.gamma >= 1.0 / modulus:
            raise GammaTooLarge(
                f"gamma={self.plan.gamma} >= 1/{modulus:.6g}, the "
                f"{self.algorithm} subproblem is not strongly convex"
            )
        algo.check(self, problem)
        if self.monitors.one_step_progress and not (
                algo.progress_monitor and self.plan.mode == "fixed"
                and _lyapunov_case(problem) == "s1"):
            raise ValueError("one_step_progress needs meal, a fixed beta and the s1 Lyapunov")
        if self.monitors.dual_by_primal:
            problem.implicit_lipschitz_constant()  # raises MissingMetadata

    def resolve_subproblem(self):
        return InnerProxGradient() if self.subproblem == "auto" else self.subproblem


# ---------------------------------------------------------------------------
# step functions
# ---------------------------------------------------------------------------


def _advance(ctx: EnvelopeContext, state: IterateState, x_new: np.ndarray,
             grad_z: Optional[np.ndarray], sub=None,
             grad_h=None) -> tuple[IterateState, StepReport]:
    """The shared z and lam updates to x_new (dual step beta, the plan's
    eta) and the step's report. grad_z is the z-block of the
    envelope gradient; None means zero, so the stationarity norm is the
    feasibility. The report carries the subproblem result's inexactness and
    inner iterations; the new state carries grad_h and A x_new - b.
    """
    p, eta = ctx.problem, ctx.plan.eta
    gl = p.constraint.A @ x_new - p.constraint.b
    new = IterateState._of_step(x_new, (1.0 - eta) * state.z + eta * x_new,
                                state.lam + ctx.beta * gl, state.k + 1, grad_h, gl)
    feas = math.sqrt(gl @ gl)
    norm = feas if grad_z is None else math.sqrt(
        np.sum(grad_z ** 2) + np.sum(gl ** 2))
    return new, StepReport(
        norm, feas,
        inexact_residual_norm=None if sub is None else sub.residual_norm,
        inner_budget_exhausted=sub is not None and sub.budget_exhausted,
        inner_iterations=0 if sub is None else sub.inner_iterations)


def meal_step(ctx: EnvelopeContext, state: IterateState,
              tol: Optional[float] = None) -> tuple[IterateState, StepReport]:
    """One proximal step on the envelope of the augmented Lagrangian.

    Solved from state.x, exact up to the inner solver's own tolerance; with
    `tol` the subproblem residual is certified below it instead (iMEAL).
    """
    # the module global, which the benchmark wraps to count inner iterations
    sub = solve_subproblem(ctx, state.z, state.lam, tol=tol, warm_start=state.x)
    return _advance(ctx, state, sub.x, (state.z - sub.x) / ctx.plan.gamma, sub=sub)


def imeal_step(ctx: EnvelopeContext, state: IterateState,
               eps_k: float) -> tuple[IterateState, StepReport]:
    """Inexact step: the subproblem residual is certified below eps_k."""
    return meal_step(ctx, state, tol=eps_k)


def limeal_step(ctx: EnvelopeContext,
                state: IterateState) -> tuple[IterateState, StepReport]:
    """Prox-linear step: h is replaced by its first-order model at x^k.

    Solved from state.x. h's gradient at x^k is the state's carried one when
    it has one; the step evaluates it once, at x^{k+1}, and carries it on.
    """
    p = ctx.problem
    if not p.composite:
        raise NotComposite("limeal_step needs a composite objective")
    grad = p.smooth_gradient(state.x) if state.grad_h is None else state.grad_h
    # the module global, which the benchmark wraps to count inner iterations
    sub = solve_subproblem(ctx, state.z, state.lam, grad_h=grad, warm_start=state.x)
    grad_new = p.smooth_gradient(sub.x)
    gz = (state.z - sub.x) / ctx.plan.gamma + (grad_new - grad)
    return _advance(ctx, state, sub.x, gz, sub=sub, grad_h=grad_new)


def alm_step(ctx: EnvelopeContext,
             state: IterateState) -> tuple[IterateState, StepReport]:
    """Classic step: global minimization of the augmented Lagrangian.

    Supported where the global-min oracle applies: quadratic objective with
    an (optional) box, at enumeration scale. The subproblem may be nonconvex;
    the oracle enumerates all face-stationary candidates. Only the linear
    term moves with lam, so the context's first step checks the Hessian (the
    step may be called without validate) and prepares the faces for the run.
    """
    p = ctx.problem
    faces = getattr(ctx, "_alm_faces", None)
    if faces is None:
        faces = ctx._alm_faces = BoxFaces(_alm_hessian(p, ctx.beta), None, *p.box_bounds())
    c = p.quadratic_terms()[1] + p.constraint.A.T @ state.lam - ctx.beta * ctx.Atb
    x_new, _ = box_qp_global_min(faces, c)
    # global minimization leaves zero dual residual at x'; _check_alm's eta = 1 sets z' = x'
    return _advance(ctx, state, x_new, None)


def prox_ialm_step(ctx: EnvelopeContext,
                   state: IterateState) -> tuple[IterateState, StepReport]:
    """Projected prox-linear baseline step, prox weight p = 1/gamma.

        xbar = (beta A'A + p I) x + grad h(x) + A'lam - p z - beta A'b
        x'   = Proj_C(x - s xbar),   beta A'A + p I = H,

    followed by the shared z and lambda updates (dual step beta, as in the
    printed scheme). Proj_C is the identity when the prox part is Zero. The
    primal step is Zhang and Luo's s = 1 / (2 (L_h + p + beta ||A||^2)),
    from the problem's L_h = ||Q||_2 and the context's ||A||_2^2. The
    product with H is the context's rank-m `H_matvec`, grad h(x) is the
    state's carried gradient when it has one, and the step evaluates h's
    gradient once, at x', and carries it on: one product with Q a step.
    """
    p = ctx.problem
    beta, weight = ctx.beta, 1.0 / ctx.plan.gamma
    s = 1.0 / (2.0 * (p.L_h + weight + beta * ctx.A_norm2))
    bounds = p.box_bounds()
    if bounds is None:
        raise ValueError("prox_ialm needs a box (or absent) prox part")
    A = p.constraint.A
    x, z, lam = state.x, state.z, state.lam
    grad = p.smooth_gradient(x) if state.grad_h is None else state.grad_h

    xbar = ctx.H_matvec(x) + grad + A.T @ lam - weight * z - beta * ctx.Atb
    x_new = np.clip(x - s * xbar, *bounds)
    grad_new = p.smooth_gradient(x_new)

    # projected-gradient mapping residual: lies in grad h(x') + A'lam' + N_C(x')
    dx = x_new - x
    v = (x - x_new) / s + (grad_new - grad) + beta * (A.T @ (A @ dx)) \
        - weight * (x - z)
    return _advance(ctx, state, x_new, v, grad_h=grad_new)


# ---------------------------------------------------------------------------
# algorithm table
# ---------------------------------------------------------------------------


def _check_limeal(config, problem) -> None:
    if not problem.composite:
        raise NotComposite("limeal needs a composite objective")


def _alm_hessian(problem, beta) -> np.ndarray:
    """H = Q + beta A'A, the Hessian of x -> L_beta(x, lam), once ALM's
    requirements hold: a quadratic objective over a box, at enumeration scale,
    and no step's subproblem unbounded below (`check_free_curvature`)."""
    terms, bounds = problem.quadratic_terms(), problem.box_bounds()
    if terms is None or bounds is None:
        raise SubproblemNonconvexUnsupported(
            "alm global minimization supports quadratic objectives over a box")
    if problem.n > ACTIVE_SET_MAX_N:
        raise SubproblemNonconvexUnsupported(
            f"alm enumerates box faces only up to n={ACTIVE_SET_MAX_N}, got n={problem.n}")
    A = problem.constraint.A
    H = terms[0] + beta * (A.T @ A)
    check_free_curvature(H, *bounds)
    return H


def _check_alm(config, problem) -> None:
    if config.plan.eta != 1.0:
        raise ValueError(f"alm takes eta = 1 (z' = x'), got eta={config.plan.eta}")
    _alm_hessian(problem, config.plan.beta_for(problem.constraint))


def _check_prox_ialm(config, problem) -> None:
    if not problem.composite or problem.quadratic_terms() is None:
        raise NotComposite("prox_ialm needs a quadratic smooth part")
    if problem.box_bounds() is None:
        raise ValueError("prox_ialm needs a box (or absent) prox part")


def _lyapunov_case(problem) -> str:
    return "s2" if problem.prox_part.implicit_class.kind == "bounded" else "s1"


def _lyapunov_energy(family: str):
    """The family's Lyapunov value at the new state (usable from k + 1 >= 1)."""
    def energy(ctx, state, new, f):
        return lyapunov(ctx, f"{family}-{_lyapunov_case(ctx.problem)}", new, state, f=f)
    return energy


@dataclass(frozen=True)
class Algorithm:
    """One entry of the algorithm table.

    Its callables look the step and energy functions up as module globals
    when called, so a wrapper set on this module sees every call.
    """

    step: Callable          # (ctx, state, config) -> (IterateState, StepReport)
    modulus: Callable       # Problem -> rho; gamma must stay below 1/rho
    running_min: bool       # stationarity column is the running minimum
    energy: Callable        # (ctx, state, new, f(new.x)) -> the lyapunov column value
    # subproblem spec types it takes; "auto" is InnerProxGradient
    accepts: tuple = (InnerProxGradient,)
    check: Callable = lambda config, problem: None  # raises when a requirement is unmet
    progress_monitor: bool = False  # the one-step progress monitor applies


ALGORITHMS = {
    "meal": Algorithm(
        lambda ctx, st, cfg: meal_step(ctx, st),
        lambda p: p.rho_total, True, _lyapunov_energy("meal"), progress_monitor=True),
    "imeal": Algorithm(
        lambda ctx, st, cfg: imeal_step(ctx, st, cfg.epsilon_schedule(st.k)),
        lambda p: p.rho_total, True, _lyapunov_energy("imeal")),
    # the linearized updates only see g's curvature
    "limeal": Algorithm(
        lambda ctx, st, cfg: limeal_step(ctx, st),
        lambda p: p.rho_g, False, _lyapunov_energy("limeal"),
        accepts=(InnerProxGradient, Paper72FastPath), check=_check_limeal),
    # no proximal term: the global-min oracle handles any curvature
    "alm": Algorithm(
        lambda ctx, st, cfg: alm_step(ctx, st), lambda p: 0.0, False,
        lambda ctx, st, new, f: augmented_lagrangian(ctx, new, f),
        accepts=(), check=_check_alm),
    "prox_ialm": Algorithm(
        lambda ctx, st, cfg: prox_ialm_step(ctx, st),
        lambda p: p.rho_g, False,
        lambda ctx, st, new, f: potential_P(ctx, new, f),
        accepts=(), check=_check_prox_ialm),
}


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------


@dataclass
class Trace:
    """Per-iteration record of a solver run.

    `inner_iterations[k]` is step k's inner-iteration count; it is kept in
    memory only, the CSV written by save_trace has the fixed columns.
    """

    algorithm: str
    columns: dict
    status: str                       # Converged | MaxIters | InnerBudgetExhausted | DivergenceDetected
    converged_at: Optional[int]
    oscillating: bool
    monitors: dict
    terminal: IterateState
    inner_iterations: list = field(default_factory=list)

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    @property
    def n_rows(self) -> int:
        return len(self.columns["k"])

    def iterations_to(self, stat_tol: float, feas_tol: float) -> Optional[int]:
        """First row index with stationarity <= stat_tol and feasibility <= feas_tol."""
        stat = self.columns["stationarity"]
        feas = self.columns["feasibility"]
        hit = np.where((stat <= stat_tol) & (feas <= feas_tol))[0]
        return int(hit[0]) if hit.size else None

    def monitor_violations(self, name: str) -> list:
        return [entry for entry in self.monitors.get(name, []) if not entry[-1]]


def run(problem: Problem, config: SolverConfig, init=None) -> Trace:
    """Iterate from init, None (zeros) or (x0, z0, lam0), until the tolerances are met.

    Row k holds the objective, feasibility and multiplier norm of the state
    after k steps; its stationarity, xz_gap and (from k >= 1) lyapunov
    columns come from step k, which leaves that state. After each step the
    first of these that holds sets the status: InnerBudgetExhausted when
    the inner solver ran out of iterations, DivergenceDetected when the
    new multiplier norm or objective magnitude passes DIVERGENCE_LIMIT,
    Converged (converged_at = k) when the stationarity column and row k's
    feasibility are both below their tolerances. With none of them the run
    ends at max_iters (or the horizon K) as MaxIters. A terminal row holds
    the final state.

    Each step's objective and energy are computed once. For a quadratic
    h = x'Qx/2 + r'x + c and a state that carries grad h(x) = Qx + r, the
    objective is g(x) + x'(grad h(x) + r)/2 + c, with no product with Q.
    """
    config.validate(problem)
    ctx = EnvelopeContext(problem, config.plan, config.resolve_subproblem())
    algo = ALGORITHMS[config.algorithm]

    if init is None:
        init = (np.zeros(problem.n), np.zeros(problem.n), np.zeros(problem.m))
    x0, z0, lam0 = init
    state = IterateState(x0, z0, lam0)
    if state.x.shape != (problem.n,) or state.z.shape != (problem.n,) \
            or state.lam.shape != (problem.m,):
        raise ValueError(
            f"init dimensions {state.x.shape}/{state.z.shape}/{state.lam.shape} "
            f"do not match the problem (n={problem.n}, m={problem.m})")

    budget = config.stop.max_iters
    if config.plan.mode == "horizon":
        budget = min(budget, config.plan.K)

    gamma, eta = ctx.plan.gamma, ctx.plan.eta
    L_f = None
    if config.monitors.dual_by_primal:
        L_f = problem.implicit_lipschitz_constant()

    cols = {name: [] for name in TRACE_COLUMNS}
    inner = []             # inner iterations of each step
    monitors: dict = {"one_step_progress": [], "dual_by_primal": []}
    osc_streak, oscillating = 0, False
    status, converged_at = "MaxIters", None
    E_curr = None          # energy column value at the current state (from k >= 1)
    prev_state = None
    best_measure = np.inf
    # the current state's objective, feasibility and multiplier norm; record_row
    # writes them, and each step carries them over from its new state
    quad = problem.quadratic_terms() if problem.composite else None

    def objective(st):
        if quad is None or st.grad_h is None:
            return problem.objective_value(st.x)
        _, r, c = quad
        return float(problem.prox_part.value(st.x) + 0.5 * (st.x @ (st.grad_h + r)) + c)

    f = problem.objective_value(state.x)
    feas = problem.constraint.residual(state.x)
    lam_norm = math.sqrt(state.lam @ state.lam)
    t0 = time.perf_counter()

    def record_row(k, stat_col, lyap, gap):
        cols["k"].append(k)
        cols["objective"].append(f)
        cols["feasibility"].append(feas)
        cols["stationarity"].append(stat_col)
        cols["lyapunov"].append(np.nan if lyap is None else lyap)
        cols["lambda_norm"].append(lam_norm)
        cols["xz_gap"].append(gap)
        cols["wall_time"].append(time.perf_counter() - t0)

    for k in range(budget):
        new_state, report = algo.step(ctx, state, config)
        inner.append(report.inner_iterations)

        raw = report.stationarity_norm
        if algo.running_min:
            best_measure = min(best_measure, raw)
            stat_col = best_measure
        else:
            stat_col = raw

        f_next = objective(new_state)
        E_next = algo.energy(ctx, state, new_state, f_next)
        gap = new_state.x - state.z
        record_row(k, stat_col, E_curr, math.sqrt(gap @ gap))

        if config.monitors.one_step_progress and k >= 1:
            lhs = E_curr - E_next
            rhs = (gamma * eta * (2.0 - eta) / 4.0) * raw ** 2
            monitors["one_step_progress"].append((k, lhs, rhs, lhs >= rhs - 1e-9))
        if config.monitors.dual_by_primal and k >= 1:
            dl = float(np.sum((new_state.lam - state.lam) ** 2))
            bound = (2.0 / ctx.c_gamma_A) * (
                (gamma * L_f + 1.0) ** 2 * float(np.sum((new_state.x - state.x) ** 2))
                + float(np.sum((state.z - prev_state.z) ** 2))
            )
            monitors["dual_by_primal"].append((k, dl, bound, dl <= bound + 1e-9))

        # oscillation detector on the multiplier sequence
        if k >= 1:
            back2, back1 = new_state.lam - prev_state.lam, new_state.lam - state.lam
            d2, d1 = math.sqrt(back2 @ back2), math.sqrt(back1 @ back1)
            osc_streak = osc_streak + 1 if (d2 <= 1e-6 and d1 >= 1e-3) else 0
            if osc_streak >= 20:
                oscillating = True

        lam_norm_next = math.sqrt(new_state.lam @ new_state.lam)
        if report.inner_budget_exhausted:
            status = "InnerBudgetExhausted"
        elif lam_norm_next > DIVERGENCE_LIMIT or abs(f_next) > DIVERGENCE_LIMIT:
            status = "DivergenceDetected"
        elif stat_col <= config.stop.stat_tol and feas <= config.stop.feas_tol:
            status, converged_at = "Converged", k

        prev_state, state, E_curr = state, new_state, E_next
        f, feas, lam_norm = f_next, report.feasibility, lam_norm_next
        if status != "MaxIters":
            break

    # terminal row for the final state; the measure column repeats
    record_row(k + 1, cols["stationarity"][-1], E_curr, np.nan)

    columns = {name: np.asarray(vals, dtype=float if name != "k" else int)
               for name, vals in cols.items()}
    return Trace(config.algorithm, columns, status, converged_at, oscillating,
                 monitors, state, inner)
