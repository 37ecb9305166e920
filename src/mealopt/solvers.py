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

import time
from dataclasses import dataclass, field, replace
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
from .oracle import ACTIVE_SET_MAX_N, box_qp_global_min, check_free_curvature

__all__ = [
    "IterateState",
    "StepReport",
    "EpsilonSchedule",
    "ProxIALMParams",
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
    """Primal iterate, envelope center and multiplier after k steps."""

    x: np.ndarray
    z: np.ndarray
    lam: np.ndarray
    k: int = 0

    def __post_init__(self):
        object.__setattr__(self, "x", _vec(self.x))
        object.__setattr__(self, "z", _vec(self.z))
        object.__setattr__(self, "lam", _vec(self.lam))
        for v in (self.x, self.z, self.lam):
            if not np.isfinite(v).all():
                raise ValueError("iterate state must be finite")


@dataclass
class StepReport:
    """Per-step byproducts: envelope gradient blocks and norms, and the
    subproblem solve's inner iterations (0 for steps with no inner loop)."""

    grad_phi_z: np.ndarray
    grad_phi_lambda: np.ndarray
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
class ProxIALMParams:
    """Primal step s; the prox weight is the plan's 1/gamma, the dual step beta."""

    s: float

    def __post_init__(self):
        if not self.s > 0:
            raise ValueError("s must be positive")


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
    one_step_progress: bool = False
    dual_by_primal: bool = False


@dataclass
class SolverConfig:
    algorithm: str
    plan: PenaltyPlan
    subproblem: Union[str, object] = "auto"
    epsilon_schedule: Optional[Callable[[int], float]] = None
    prox_ialm_params: Optional[ProxIALMParams] = None
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
                algo.progress_monitor and self.plan.mode == "fixed"):
            raise ValueError("one_step_progress monitor applies to meal with fixed beta")
        if self.monitors.dual_by_primal:
            problem.implicit_lipschitz_constant()  # raises MissingMetadata

    def resolve_subproblem(self, problem: Problem):
        return InnerProxGradient() if self.subproblem == "auto" else self.subproblem


# ---------------------------------------------------------------------------
# step functions
# ---------------------------------------------------------------------------


def _advance(ctx: EnvelopeContext, state: IterateState, x_new: np.ndarray,
             grad_z: Optional[np.ndarray], eta: Optional[float] = None,
             sub=None) -> tuple[IterateState, StepReport]:
    """The shared z and lam updates to x_new (dual step beta, eta the plan's
    unless given) and the step's report. grad_z is the z-block of the
    envelope gradient; None means zero, so the stationarity norm is the
    feasibility. The report carries the subproblem result's inexactness and
    inner iterations.
    """
    p = ctx.problem
    eta = ctx.plan.eta if eta is None else eta
    gl = p.constraint.A @ x_new - p.constraint.b
    new = IterateState(x_new, (1.0 - eta) * state.z + eta * x_new,
                       state.lam + ctx.beta * gl, state.k + 1)
    feas = float(np.linalg.norm(gl))
    if grad_z is None:
        grad_z, norm = np.zeros(p.n), feas
    else:
        norm = float(np.sqrt(np.sum(grad_z ** 2) + np.sum(gl ** 2)))
    return new, StepReport(
        grad_z, gl, norm, feas,
        inexact_residual_norm=None if sub is None else sub.residual_norm,
        inner_budget_exhausted=sub is not None and sub.budget_exhausted,
        inner_iterations=0 if sub is None else sub.inner_iterations)


def meal_step(ctx: EnvelopeContext, state: IterateState, warm_start=None,
              tol: Optional[float] = None) -> tuple[IterateState, StepReport]:
    """One proximal step on the envelope of the augmented Lagrangian.

    Exact up to the inner solver's own tolerance; with `tol` the subproblem
    residual is certified below it instead (the iMEAL step).
    """
    sub = solve_subproblem(ctx, state.z, state.lam, tol=tol, warm_start=warm_start)
    return _advance(ctx, state, sub.x, (state.z - sub.x) / ctx.plan.gamma, sub=sub)


def imeal_step(ctx: EnvelopeContext, state: IterateState, eps_k: float,
               warm_start=None) -> tuple[IterateState, StepReport]:
    """Inexact step: the subproblem residual is certified below eps_k."""
    return meal_step(ctx, state, warm_start=warm_start, tol=eps_k)


def limeal_step(ctx: EnvelopeContext, state: IterateState,
                warm_start=None) -> tuple[IterateState, StepReport]:
    """Prox-linear step: h is replaced by its first-order model at x^k."""
    p = ctx.problem
    if not p.composite:
        raise NotComposite("limeal_step needs a composite objective")
    sub = solve_subproblem(ctx, state.z, state.lam, linearize_at=state.x,
                           warm_start=warm_start)
    gz = (state.z - sub.x) / ctx.plan.gamma \
        + (p.smooth_gradient(sub.x) - p.smooth_gradient(state.x))
    return _advance(ctx, state, sub.x, gz, sub=sub)


def alm_step(ctx: EnvelopeContext, state: IterateState,
             warm_start=None) -> tuple[IterateState, StepReport]:
    """Classic step: global minimization of the augmented Lagrangian.

    Supported where the global-min oracle applies: quadratic objective with
    an (optional) box, at enumeration scale. The subproblem may be nonconvex;
    the oracle enumerates all face-stationary candidates.
    """
    _check_alm(None, ctx.problem)     # the step may be called without validate
    H, c = _alm_quadratic(ctx, state.lam)
    x_new, _ = box_qp_global_min(H, c, *ctx.problem.box_bounds())
    # global minimization leaves zero dual residual at x'; eta = 1 sets z' = x'
    return _advance(ctx, state, x_new, None, eta=1.0)


def _alm_quadratic(ctx, lam):
    """Hessian and linear term of x -> L_beta(x, lam) for quadratic objectives."""
    Q, r, _ = ctx.problem.quadratic_terms()
    H = Q + ctx.beta * ctx.AtA
    c = r + ctx.problem.constraint.A.T @ lam - ctx.beta * ctx.Atb
    return H, c


def prox_ialm_step(ctx: EnvelopeContext, state: IterateState,
                   params: ProxIALMParams) -> tuple[IterateState, StepReport]:
    """Projected prox-linear baseline step, prox weight p = 1/gamma.

        xbar = (beta A'A + p I) x + Q x + A'lam - p z - (beta A'b - r)
        x'   = Proj_C(x - s xbar),   beta A'A + p I = ctx.H,

    followed by the shared z and lambda updates (dual step beta, as in the
    printed scheme). Proj_C is the identity when the prox part is Zero.
    """
    p = ctx.problem
    beta, weight = ctx.beta, 1.0 / ctx.plan.gamma
    bounds = p.box_bounds()
    if bounds is None:
        raise ValueError("prox_ialm needs a box (or absent) prox part")
    Q, r, _ = p.quadratic_terms()
    A = p.constraint.A
    x, z, lam = state.x, state.z, state.lam

    xbar = ctx.H @ x + Q @ x + A.T @ lam - weight * z - (beta * ctx.Atb - r)
    x_new = np.clip(x - params.s * xbar, *bounds)

    # projected-gradient mapping residual: lies in grad h(x') + A'lam' + N_C(x')
    v = (x - x_new) / params.s + Q @ (x_new - x) + beta * (ctx.AtA @ (x_new - x)) \
        - weight * (x - z)
    return _advance(ctx, state, x_new, v)


# ---------------------------------------------------------------------------
# algorithm table
# ---------------------------------------------------------------------------


def _check_limeal(config, problem) -> None:
    if not problem.composite:
        raise NotComposite("limeal needs a composite objective")


def _check_alm(config, problem) -> None:
    """The step's requirements. With a config, also that the subproblem
    Hessian Q + beta A'A is positive definite on the coordinates without
    finite bounds, so that no step's subproblem is unbounded below."""
    terms, bounds = problem.quadratic_terms(), problem.box_bounds()
    if terms is None or bounds is None:
        raise SubproblemNonconvexUnsupported(
            "alm global minimization supports quadratic objectives over a box")
    if problem.n > ACTIVE_SET_MAX_N:
        raise SubproblemNonconvexUnsupported(
            f"alm enumerates box faces only up to n={ACTIVE_SET_MAX_N}, got n={problem.n}")
    if config is not None:
        # the beta the context fixes; in horizon mode it depends on A'A
        plan = config.plan
        beta = plan.beta if plan.mode == "fixed" else EnvelopeContext(problem, plan).beta
        A = problem.constraint.A
        check_free_curvature(terms[0] + beta * (A.T @ A), *bounds)


def _check_prox_ialm(config, problem) -> None:
    if config.prox_ialm_params is None:
        raise ValueError("prox_ialm needs prox_ialm_params")
    if not problem.composite or problem.quadratic_terms() is None:
        raise NotComposite("prox_ialm needs a quadratic smooth part")
    if problem.box_bounds() is None:
        raise ValueError("prox_ialm needs a box (or absent) prox part")


def _lyapunov_energy(family: str):
    """The family's Lyapunov value at the new state (usable from k + 1 >= 1)."""
    def energy(ctx, state, new):
        bounded = ctx.problem.prox_part.implicit_class.kind == "bounded"
        return lyapunov(ctx, f"{family}-{'s2' if bounded else 's1'}", new.x, new.z,
                        new.lam, z_prev=state.z, x_prev=state.x)
    return energy


_DEFAULT_EPSILON = EpsilonSchedule()


@dataclass(frozen=True)
class Algorithm:
    """One entry of the algorithm table.

    Its callables look the step and energy functions up as module globals
    when called, so a wrapper set on this module sees every call.
    """

    step: Callable          # (ctx, state, config, warm) -> (IterateState, StepReport)
    modulus: Callable       # Problem -> rho; gamma must stay below 1/rho
    running_min: bool       # stationarity column is the running minimum
    energy: Callable        # (ctx, state, new) -> the lyapunov column value
    # subproblem spec types it takes; "auto" is InnerProxGradient
    accepts: tuple = (InnerProxGradient,)
    check: Callable = lambda config, problem: None  # raises when a requirement is unmet
    progress_monitor: bool = False  # the one-step progress monitor applies


ALGORITHMS = {
    "meal": Algorithm(
        lambda ctx, st, cfg, warm: meal_step(ctx, st, warm_start=warm),
        lambda p: p.rho_total, True, _lyapunov_energy("meal"), progress_monitor=True),
    "imeal": Algorithm(
        lambda ctx, st, cfg, warm: imeal_step(
            ctx, st, (cfg.epsilon_schedule or _DEFAULT_EPSILON)(st.k), warm_start=warm),
        lambda p: p.rho_total, True, _lyapunov_energy("imeal")),
    # the linearized updates only see g's curvature
    "limeal": Algorithm(
        lambda ctx, st, cfg, warm: limeal_step(ctx, st, warm_start=warm),
        lambda p: p.rho_g, False, _lyapunov_energy("limeal"),
        accepts=(InnerProxGradient, Paper72FastPath), check=_check_limeal),
    # no proximal term: the global-min oracle handles any curvature
    "alm": Algorithm(
        lambda ctx, st, cfg, warm: alm_step(ctx, st), lambda p: 0.0, False,
        lambda ctx, st, new: augmented_lagrangian(ctx, new.x, new.lam),
        accepts=(), check=_check_alm),
    "prox_ialm": Algorithm(
        lambda ctx, st, cfg, warm: prox_ialm_step(ctx, st, cfg.prox_ialm_params),
        lambda p: p.rho_g, False,
        lambda ctx, st, new: potential_P(ctx, new.x, new.z, new.lam),
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
    """Iterate until both tolerances are met, or a budget/guard trips.

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
    """
    config.validate(problem)
    ctx = EnvelopeContext(problem, config.plan, config.resolve_subproblem(problem))
    algo = ALGORITHMS[config.algorithm]

    if init is None:
        state = IterateState(np.zeros(problem.n), np.zeros(problem.n),
                             np.zeros(problem.m), 0)
    elif isinstance(init, IterateState):
        state = replace(init, k=0)
    else:
        x0, z0, lam0 = init
        state = IterateState(x0, z0, lam0, 0)
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
    E_s1 = None            # s1 Lyapunov at the current state, for the progress monitor
    prev_state = None
    best_measure = np.inf
    warm = None
    # the current state's objective, feasibility and multiplier norm; record_row
    # writes them, and each step carries them over from its new state
    f = problem.objective_value(state.x)
    feas = problem.constraint.residual(state.x)
    lam_norm = float(np.linalg.norm(state.lam))
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
        new_state, report = algo.step(ctx, state, config, warm)
        inner.append(report.inner_iterations)

        raw = report.stationarity_norm
        if algo.running_min:
            best_measure = min(best_measure, raw)
            stat_col = best_measure
        else:
            stat_col = raw

        E_next = algo.energy(ctx, state, new_state)
        record_row(k, stat_col, E_curr, float(np.linalg.norm(new_state.x - state.z)))

        if config.monitors.one_step_progress:
            # the s1 Lyapunov at the new state is step k + 1's E_k
            E_s1_next = lyapunov(ctx, "meal-s1", new_state.x, new_state.z,
                                 new_state.lam, z_prev=state.z)
            if k >= 1:
                lhs = E_s1 - E_s1_next
                rhs = (gamma * eta * (2.0 - eta) / 4.0) * raw ** 2
                monitors["one_step_progress"].append((k, lhs, rhs, lhs >= rhs - 1e-9))
            E_s1 = E_s1_next
        if config.monitors.dual_by_primal and k >= 1:
            dl = float(np.sum((new_state.lam - state.lam) ** 2))
            bound = (2.0 / ctx.c_gamma_A) * (
                (gamma * L_f + 1.0) ** 2 * float(np.sum((new_state.x - state.x) ** 2))
                + float(np.sum((state.z - prev_state.z) ** 2))
            )
            monitors["dual_by_primal"].append((k, dl, bound, dl <= bound + 1e-9))

        # oscillation detector on the multiplier sequence
        if k >= 1:
            d2 = float(np.linalg.norm(new_state.lam - prev_state.lam))
            d1 = float(np.linalg.norm(new_state.lam - state.lam))
            osc_streak = osc_streak + 1 if (d2 <= 1e-6 and d1 >= 1e-3) else 0
            if osc_streak >= 20:
                oscillating = True

        f_next = problem.objective_value(new_state.x)
        lam_norm_next = float(np.linalg.norm(new_state.lam))
        if report.inner_budget_exhausted:
            status = "InnerBudgetExhausted"
        elif lam_norm_next > DIVERGENCE_LIMIT or abs(f_next) > DIVERGENCE_LIMIT:
            status = "DivergenceDetected"
        elif stat_col <= config.stop.stat_tol and feas <= config.stop.feas_tol:
            status, converged_at = "Converged", k

        prev_state, state, E_curr = state, new_state, E_next
        f, feas, lam_norm = f_next, report.feasibility, lam_norm_next
        warm = state.x
        if status != "MaxIters":
            break

    # terminal row for the final state; the measure column repeats
    record_row(k + 1, cols["stationarity"][-1], E_curr, np.nan)

    columns = {name: np.asarray(vals, dtype=float if name != "k" else int)
               for name, vals in cols.items()}
    return Trace(config.algorithm, columns, status, converged_at, oscillating,
                 monitors, state, inner)
