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
family, the augmented Lagrangian or the potential P), the envelope gradient's
z-block that the stationarity norm is formed from, the tuple of subproblem
spec types it accepts (empty for the two algorithms that solve no envelope
subproblem), and its own check on the config and context. A run is set up
once: `SolverConfig.validate` builds the context that `run` steps with.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .envelope import (
    EnvelopeContext,
    InnerProxGradient,
    Paper72FastPath,
    PenaltyPlan,
    _rowdot,
    augmented_lagrangian,
    lyapunov,
    potential_P,
    solve_subproblem,
)
from .errors import (
    GammaTooLarge,
    InvalidSubproblemPath,
    NonFiniteValue,
    NotComposite,
)
from .problem import Problem, _vec
from .oracle import box_qp_global_min

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
ROW_BLOCK = 64  # steps whose energies, xz_gap and monitor values are formed together

TRACE_COLUMNS = (
    "k", "objective", "feasibility", "stationarity", "lyapunov",
    "lambda_norm", "xz_gap", "wall_time",
)


@dataclass(frozen=True)
class IterateState:
    """Primal iterate, envelope center and multiplier after k steps, as
    finite float vectors. A step's state carries A x - b as `residual`, and
    h's gradient at x as `grad_h` when the step evaluated it (LiMEAL and
    Prox-iALM); the energies, the stationarity and the next step read them.
    Each is None otherwise, and for a state built from an init until a step
    (or `run`, for the residual) forms it there and keeps it on the state.

    One finiteness rule, `_of_step`'s, covers every state: x, z, lam and the
    carried grad_h and residual must be finite, else NonFiniteValue. The
    public constructor converts x, z and lam to float vectors first.
    """

    x: np.ndarray
    z: np.ndarray
    lam: np.ndarray
    k: int = 0
    grad_h: Optional[np.ndarray] = field(default=None, compare=False, repr=False)
    residual: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        checked = IterateState._of_step(_vec(self.x), _vec(self.z), _vec(self.lam),
                                        self.k, self.grad_h, self.residual)
        self.__dict__.update(x=checked.x, z=checked.z, lam=checked.lam)

    @classmethod
    def _of_step(cls, x, z, lam, k, grad_h, residual) -> IterateState:
        """The state a step made from its float vectors, with no conversion;
        NonFiniteValue unless it and its carried vectors are finite."""
        state = object.__new__(cls)
        state.__dict__.update(x=x, z=z, lam=lam, k=k, grad_h=grad_h, residual=residual)
        vectors = (x, z, lam) if residual is None else (x, z, lam, residual)
        if grad_h is not None:
            vectors += (grad_h,)
        if not np.logical_and.reduce(np.isfinite(np.concatenate(vectors))):
            raise NonFiniteValue("iterate state must be finite")
        return state


def _raw_norms(form, ctx, prev, new):
    """The stationarity norm sqrt(||G||^2 + ||A x' - b||^2), with G =
    form(ctx, prev, new) the algorithm's `stationarity`: a 0-d array for
    one step's two states, one norm a row for a block of them. The rows are
    independent, so each has the bits its step's states alone give."""
    G, R = form(ctx, prev, new), new.residual
    # np.add.reduce(v * v) is np.sum(v ** 2) bit for bit; v.dot(v) sums in another order
    return np.sqrt(np.add.reduce(G * G, axis=-1) + np.add.reduce(R * R, axis=-1))


class _FormedOnFirstAccess:
    """A step report's stationarity norm, `_raw_norms` at the step's two
    states, formed on first access and kept in the report's __dict__, which
    later reads find first. Read on the class it raises AttributeError: the
    field has no default."""

    def __get__(self, report, owner=None):
        norm = float(_raw_norms(*report.__dict__.pop("_formed_from")))
        report.__dict__["stationarity_norm"] = norm
        return norm


@dataclass
class StepReport:
    """Per-step byproducts: envelope gradient and residual norms, and the
    subproblem solve's inner iterations (0 for steps with no inner loop).
    A step's report forms its stationarity norm on first access; `run` asks
    for it only where row k's feasibility is <= feas_tol, where a Converged
    test reads it, and `_RowBlock` forms the other steps' norms.
    """

    stationarity_norm: float = _FormedOnFirstAccess()
    feasibility: float
    inexact_residual_norm: Optional[float] = None
    inner_budget_exhausted: bool = False
    inner_iterations: int = 0


@dataclass(frozen=True)
class EpsilonSchedule:
    """Square-summable inexactness schedule eps_k = eps0 / (k + 1)."""

    eps0: float = 1e-2

    def __post_init__(self):
        if not 0 < self.eps0 < math.inf:
            raise ValueError(f"eps0 must be finite and positive, got {self.eps0}")

    def __call__(self, k: int) -> float:
        return self.eps0 / (k + 1.0)


@dataclass(frozen=True)
class StopRule:
    max_iters: int = 2000
    stat_tol: float = 1e-6
    feas_tol: float = 1e-6

    def __post_init__(self):
        if not isinstance(self.max_iters, (int, np.integer)) or self.max_iters < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        if not (0 < self.stat_tol < math.inf and 0 < self.feas_tol < math.inf):
            raise ValueError("tolerances must be finite and positive")


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

    def validate(self, problem: Problem) -> EnvelopeContext:
        """Check the config on the problem and return the context `run` steps
        with, in order: the algorithm, the spec it takes, gamma < 1/modulus,
        the context (PenaltyOutOfRange unless beta and alpha are positive and
        finite; the spec's check), the algorithm's check on it, the monitors."""
        algo = ALGORITHMS.get(self.algorithm)
        if algo is None:
            raise ValueError(f"algorithm must be one of {tuple(ALGORITHMS)}")
        if self.subproblem != "auto" and not isinstance(self.subproblem, algo.accepts):
            names = ", ".join(cls.__name__ for cls in algo.accepts) or "none"
            raise InvalidSubproblemPath(
                f'{self.algorithm} takes the subproblem "auto" or one of: {names}; '
                f"got {self.subproblem!r}")
        modulus = algo.modulus(problem)
        if modulus > 0 and self.plan.gamma >= 1.0 / modulus:
            raise GammaTooLarge(
                f"gamma={self.plan.gamma} >= 1/{modulus:.6g}, the "
                f"{self.algorithm} subproblem is not strongly convex"
            )
        # the module global, which the benchmark wraps to time the set-up
        ctx = EnvelopeContext(problem, self.plan, self.resolve_subproblem())
        algo.check(self, ctx)
        if self.monitors.one_step_progress and not (
                algo.progress_monitor and self.plan.mode == "fixed"
                and _lyapunov_case(problem) == "s1"):
            raise ValueError("one_step_progress needs meal, a fixed beta and the s1 Lyapunov")
        if self.monitors.dual_by_primal:
            problem.implicit_lipschitz_constant()  # raises MissingMetadata
        return ctx

    def resolve_subproblem(self):
        return InnerProxGradient() if self.subproblem == "auto" else self.subproblem


# ---------------------------------------------------------------------------
# step functions
# ---------------------------------------------------------------------------


def _advance(ctx: EnvelopeContext, state: IterateState, x_new: np.ndarray,
             stationarity: Optional[Callable], sub=None, grad_h=None,
             gl=None) -> tuple[IterateState, StepReport]:
    """The shared z and lam updates to x_new (dual step beta, the plan's
    eta) and the step's report. `stationarity` is the algorithm's table
    entry, from which the report forms its norm on first access; None
    means a zero z-block, so the norm is the feasibility. gl is A x_new - b
    when the step already formed it, else None and it is formed here. The
    report carries the subproblem result's inexactness and inner
    iterations; the new state carries grad_h and gl.
    """
    constraint, c = ctx.problem.constraint, ctx.factors
    if gl is None:
        gl = constraint.A.dot(x_new) - constraint.b
    new = IterateState._of_step(x_new, c.one_minus_eta * state.z + c.eta * x_new,
                                state.lam + c.beta * gl, state.k + 1, grad_h, gl)
    feas = math.sqrt(gl.dot(gl))
    report = object.__new__(StepReport)     # no __init__ call: an unset field reads its default
    report.__dict__ = {"feasibility": feas, "stationarity_norm": feas} if stationarity is None \
        else {"feasibility": feas, "_formed_from": (stationarity, ctx, state, new)}
    if sub is not None:
        report.inexact_residual_norm, report.inner_budget_exhausted, report.inner_iterations = (
            sub.residual_norm, sub.budget_exhausted, sub.inner_iterations)
    return new, report


def meal_step(ctx: EnvelopeContext, state: IterateState,
              tol: Optional[float] = None) -> tuple[IterateState, StepReport]:
    """One proximal step on the envelope of the augmented Lagrangian.

    Solved from state.x, exact up to the inner solver's own tolerance; with
    `tol` the subproblem residual is certified below it instead (iMEAL).
    """
    # the module global, which the benchmark wraps to count inner iterations
    sub = solve_subproblem(ctx, state.z, state.lam, tol=tol, warm_start=state.x)
    return _advance(ctx, state, sub.x, _meal_stationarity, sub=sub)


def imeal_step(ctx: EnvelopeContext, state: IterateState,
               eps_k: float) -> tuple[IterateState, StepReport]:
    """Inexact step: the subproblem residual is certified below eps_k."""
    return meal_step(ctx, state, tol=eps_k)


def limeal_step(ctx: EnvelopeContext,
                state: IterateState) -> tuple[IterateState, StepReport]:
    """Prox-linear step: h is replaced by its first-order model at x^k.

    Solved from state.x. h's gradient at x^k is the state's carried one;
    for a state that carries none (one built from an init) the step forms
    it and keeps it on the state. The step evaluates it once more, at
    x^{k+1}, and carries it on.
    """
    if not ctx.problem.composite:
        raise NotComposite("limeal_step needs a composite objective")
    if state.grad_h is None:
        state.__dict__["grad_h"] = ctx.h_gradient(state.x)
    # the module global, which the benchmark wraps to count inner iterations
    sub = solve_subproblem(ctx, state.z, state.lam, grad_h=state.grad_h, warm_start=state.x)
    return _advance(ctx, state, sub.x, _limeal_stationarity, sub=sub,
                    grad_h=ctx.h_gradient(sub.x))


def alm_step(ctx: EnvelopeContext,
             state: IterateState) -> tuple[IterateState, StepReport]:
    """Classic step: global minimization of the augmented Lagrangian.

    Supported where the global-min oracle applies: quadratic objective with
    an (optional) box, at enumeration scale. The subproblem may be nonconvex;
    the oracle enumerates all face-stationary candidates. Only the linear
    term moves with lam, so the faces are prepared once, with h's linear
    term r, in the context's `_alm` (which `validate` forms).

    With the faces fixed, x' is a function of the linear term c alone, so
    `_alm` also keeps the minimizers of the last two distinct c, keyed by
    c's bytes: a multiplier that repeats (ALM's two-cycle on exp1 repeats
    bit for bit) reuses its minimizer instead of enumerating the faces again.
    Two is the window the run's oscillation detector looks back over. A step
    returns a copy, so writing into a returned state cannot change a later step.
    """
    faces, r, minimizers = ctx._alm
    c = r + ctx.problem.constraint.A.T.dot(state.lam) - ctx.beta_Atb
    key = c.tobytes()
    x_new = minimizers.get(key)
    if x_new is None:
        x_new, _ = box_qp_global_min(faces, c)
        if len(minimizers) == 2:
            del minimizers[next(iter(minimizers))]   # the oldest
        minimizers[key] = x_new
    x_new = x_new.copy()
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
    from the problem's L_h = ||Q||_2 and the context's ||A||_2^2, kept as
    the context's `_prox_ialm_s`.

    The step forms xbar from the residual res = A x - b that the state
    carries, as A'(lam + beta res) + grad h(x) + p (x - z), and forms
    A x' - b once for `_advance`: two products with A a step, and a third,
    beta A'(A x' - b - res) for beta A'A (x' - x), where the stationarity
    is formed. grad h(x) is the state's carried gradient, and the step
    evaluates h's gradient once, at x', and carries it on: one product with
    Q a step. For a state that carries no residual or gradient (one built
    from an init) the step forms them and keeps them on the state.
    """
    c, s, (lo, hi) = ctx.factors, ctx._prox_ialm_s, ctx.bounds
    A, b = ctx.problem.constraint.A, ctx.problem.constraint.b
    x, grad, res = state.x, state.grad_h, state.residual
    if grad is None:
        grad = state.__dict__["grad_h"] = ctx.h_gradient(x)
    if res is None:
        res = state.__dict__["residual"] = A.dot(x) - b

    xbar = A.T.dot(state.lam + c.beta * res) + grad + c.inv_gamma * (x - state.z)
    x_new = np.minimum(np.maximum(x - s * xbar, lo), hi)     # np.clip's bits
    return _advance(ctx, state, x_new, _prox_ialm_stationarity,
                    grad_h=ctx.h_gradient(x_new), gl=A.dot(x_new) - b)


# ---------------------------------------------------------------------------
# algorithm table
# ---------------------------------------------------------------------------


def _check_limeal(config, ctx) -> None:
    if not ctx.problem.composite:
        raise NotComposite("limeal needs a composite objective")


def _check_alm(config, ctx) -> None:
    if config.plan.eta != 1.0:
        raise ValueError(f"alm takes eta = 1 (z' = x'), got eta={config.plan.eta}")
    ctx._alm        # forms and checks the Hessian, and prepares the faces


def _check_prox_ialm(config, ctx) -> None:
    if not ctx.problem.composite or ctx.problem.quadratic_terms() is None:
        raise NotComposite("prox_ialm needs a quadratic smooth part")
    if ctx.bounds is None:
        raise ValueError("prox_ialm needs a box (or absent) prox part")


def _meal_stationarity(ctx, prev, new):
    """MEAL's and iMEAL's envelope gradient z-block, (z_prev - x) / gamma."""
    return (prev.z - new.x) / ctx.factors.gamma


def _limeal_stationarity(ctx, prev, new):
    """LiMEAL's: MEAL's plus the change in h's gradient."""
    return (prev.z - new.x) / ctx.factors.gamma + (new.grad_h - prev.grad_h)


def _prox_ialm_stationarity(ctx, prev, new):
    """Prox-iALM's projected-gradient mapping residual, which lies in
    grad h(x') + A'lam' + N_C(x'): (x_prev - x) / s + (grad h(x) -
    grad h(x_prev)) + beta A'(res - res_prev) - (x_prev - z_prev) / gamma.
    The product with A' is a stacked np.matmul, whose bits are A.T.dot's
    for one state and for each row of a block."""
    c, At = ctx.factors, ctx.problem.constraint.A.T
    return ((prev.x - new.x) / ctx._prox_ialm_s + (new.grad_h - prev.grad_h)
            + c.beta * np.matmul(At, (new.residual - prev.residual)[..., None])[..., 0]
            - c.inv_gamma * (prev.x - prev.z))


def _lyapunov_case(problem) -> str:
    return "s2" if problem.prox_part.implicit_class.kind == "bounded" else "s1"


def _lyapunov_energy(family: str):
    """The family's Lyapunov value at the new state (usable from k + 1 >= 1)."""
    variants = {case: f"{family}-{case}" for case in ("s1", "s2")}

    def energy(ctx, state, new, f):
        return lyapunov(ctx, variants[_lyapunov_case(ctx.problem)], new, state, f=f)
    return energy


@dataclass(frozen=True)
class Algorithm:
    """One entry of the algorithm table.

    Its callables look the step and energy functions up as module globals
    when called, so a wrapper set on this module sees every call. Its
    `stationarity` forms the envelope gradient's z-block G for one state or
    a block of states, and the raw stationarity norm is
    sqrt(||G||^2 + ||A x' - b||^2); None (ALM) means G = 0. `run` forms a
    step's norm only where row k's feasibility is <= feas_tol, and
    `_RowBlock` the rest.
    """

    step: Callable          # (ctx, state, config) -> (IterateState, StepReport)
    modulus: Callable       # Problem -> rho; gamma must stay below 1/rho
    running_min: bool       # stationarity column is the running minimum
    energy: Callable        # (ctx, state, new, f(new.x)) -> the lyapunov column value;
                            # for blocks of states, one value per row
    stationarity: Optional[Callable]   # (ctx, prev, new) -> envelope gradient z-block(s)
    # subproblem spec types it takes; "auto" is InnerProxGradient
    accepts: tuple = (InnerProxGradient,)
    check: Callable = lambda config, ctx: None  # raises when a requirement is unmet
    progress_monitor: bool = False  # the one-step progress monitor applies


ALGORITHMS = {
    "meal": Algorithm(
        lambda ctx, st, cfg: meal_step(ctx, st),
        lambda p: p.rho_total, True, _lyapunov_energy("meal"), _meal_stationarity,
        progress_monitor=True),
    "imeal": Algorithm(
        lambda ctx, st, cfg: imeal_step(ctx, st, cfg.epsilon_schedule(st.k)),
        lambda p: p.rho_total, True, _lyapunov_energy("imeal"), _meal_stationarity),
    # the linearized updates only see g's curvature
    "limeal": Algorithm(
        lambda ctx, st, cfg: limeal_step(ctx, st),
        lambda p: p.rho_g, False, _lyapunov_energy("limeal"), _limeal_stationarity,
        accepts=(InnerProxGradient, Paper72FastPath), check=_check_limeal),
    # no proximal term: the global-min oracle handles any curvature
    "alm": Algorithm(
        lambda ctx, st, cfg: alm_step(ctx, st), lambda p: 0.0, False,
        lambda ctx, st, new, f: augmented_lagrangian(ctx, new, f), None,
        accepts=(), check=_check_alm),
    "prox_ialm": Algorithm(
        lambda ctx, st, cfg: prox_ialm_step(ctx, st),
        lambda p: p.rho_g, False,
        lambda ctx, st, new, f: potential_P(ctx, new, f), _prox_ialm_stationarity,
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
    status: str     # Converged | MaxIters | InnerBudgetExhausted | DivergenceDetected | NonFinite
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


class _States(NamedTuple):
    """A block of states, one per row of each field: what the energies and
    the stationarity read."""

    x: np.ndarray
    z: np.ndarray
    lam: np.ndarray
    residual: np.ndarray
    grad_h: np.ndarray      # with no columns where the states carry none


class _RowBlock:
    """The trace's columns, formed from the steps' records a block of up to
    ROW_BLOCK steps at a time, and the values that no stopping rule reads:
    the energies (the `lyapunov` column from row 1 on), the stationarity
    norms `run` did not form (row k's feasibility above feas_tol) and the
    stationarity column, the xz_gap values, the oscillation flag and the
    monitor entries.

    A step's record is one tuple: its new state, its raw stationarity norm
    (None where `run` did not form it) and inner iterations, the new
    state's objective, feasibility and multiplier norm, and its wall time.
    `run` appends it to `steps`; flush extends the columns from the
    records, keeps the records of the last two states in `head` (the
    initial state's at the start) and empties `steps` in place, so an
    append bound once per run stays valid. Each value is the one its step
    would give alone, bit for bit: the energies take the block through the
    module globals, and the row norms are `_rowdot` and
    `np.add.reduce(..., axis=-1)`. `best` is the stationarity column's
    last value, from which a running minimum goes on.
    """

    def __init__(self, ctx: EnvelopeContext, algo: Algorithm, flags: MonitorFlags,
                 state: IterateState, f: float, feas: float, lam_norm: float):
        self.ctx, self.algo, self.flags = ctx, algo, flags
        self.L_f = ctx.problem.implicit_lipschitz_constant() if flags.dual_by_primal else None
        # the initial state's record: no step left it, so its step values are None
        self.head, self.steps = [(state, None, None, f, feas, lam_norm, None)], []
        self.k0 = 0                 # the state of head's first record
        # row 0's objective, feasibility and multiplier norm are the initial
        # record's; its stationarity and wall time are step 0's
        self.columns = {"objective": [f], "feasibility": [feas], "lambda_norm": [lam_norm],
                        "wall_time": [], "stationarity": []}   # in the records' order
        self.inner, self.energies, self.gaps = [], [], []
        self.monitors = {"one_step_progress": [], "dual_by_primal": []}
        self.osc_streak, self.oscillating, self.best = 0, False, np.inf

    def flush(self) -> float:
        """Form the rows of the block's steps, and keep its last two records.
        Returns `best`."""
        if not self.steps:
            return self.best
        ctx, algo, flags, h = self.ctx, self.algo, self.flags, len(self.head)
        records = self.head + self.steps
        states, raws, inner, *values = zip(*records)
        xs, zs, lams, residuals, grads = zip(*[(s.x, s.z, s.lam, s.residual, s.grad_h)
                                               for s in states])
        X, Z, Lam, Res = map(np.array, (xs, zs, lams, residuals))
        Grad = np.array(grads) if grads[0] is not None else np.empty((len(grads), 0))
        prev = _States(X[h - 1:-1], Z[h - 1:-1], Lam[h - 1:-1], Res[h - 1:-1], Grad[h - 1:-1])
        new = _States(X[h:], Z[h:], Lam[h:], Res[h:], Grad[h:])
        E = algo.energy(ctx, prev, new, np.array(values[0][h:]))
        gap = new.x - prev.z
        self.gaps.extend(np.sqrt(_rowdot(gap, gap)).tolist())

        # the raw norms, NaN where run formed none; ALM's are the feasibility
        raw = np.array(values[1][h:] if algo.stationarity is None else raws[h:], dtype=float)
        if np.logical_or.reduce(lazy := np.isnan(raw)):
            raw[lazy] = _raw_norms(algo.stationarity, ctx, prev, new)[lazy]
        # a running minimum by fmin, which passes over a NaN as run's raw < best does
        stat = np.fmin(np.fmin.accumulate(raw), self.best) if algo.running_min else raw
        self.best = stat[-1]
        self.columns["stationarity"].extend(stat.tolist())

        # the checks of the steps k >= 1, which leave rows 2, 3, ...
        ks = range(self.k0 + 1, self.k0 + len(X) - 1)
        back2, back1 = Lam[2:] - Lam[:-2], Lam[2:] - Lam[1:-1]
        for hit in ((np.sqrt(_rowdot(back2, back2)) <= 1e-6)
                    & (np.sqrt(_rowdot(back1, back1)) >= 1e-3)).tolist():
            self.osc_streak = self.osc_streak + 1 if hit else 0
            if self.osc_streak >= 20:
                self.oscillating = True
        gamma, eta = ctx.plan.gamma, ctx.plan.eta
        if flags.one_step_progress:
            E_run = np.concatenate((self.energies[-1:], E))
            lhs = E_run[:-1] - E_run[1:]
            # Python's raw ** 2: the array's ** 2 may differ in the last bit
            rhs = (gamma * eta * (2.0 - eta) / 4.0) * np.array(
                [r ** 2 for r in raw[2 - h:].tolist()])
            self.monitors["one_step_progress"].extend(
                zip(ks, lhs.tolist(), rhs.tolist(), (lhs >= rhs - 1e-9).tolist()))
        if flags.dual_by_primal:
            dx, dz = X[2:] - X[1:-1], Z[1:-1] - Z[:-2]
            dl = np.add.reduce(back1 * back1, axis=-1)
            bound = (2.0 / ctx.c_gamma_A) * (
                (gamma * self.L_f + 1.0) ** 2 * np.add.reduce(dx * dx, axis=-1)
                + np.add.reduce(dz * dz, axis=-1)
            )
            self.monitors["dual_by_primal"].extend(
                zip(ks, dl.tolist(), bound.tolist(), (dl <= bound + 1e-9).tolist()))
        self.energies.extend(E.tolist())
        self.inner.extend(inner[h:])
        for column, vals in zip(self.columns.values(), values):
            column.extend(vals[h:])

        self.k0 += len(X) - 2
        self.head = records[-2:]
        self.steps.clear()
        return self.best


def run(problem: Problem, config: SolverConfig, init=None) -> Trace:
    """Iterate from init, None (zeros) or (x0, z0, lam0), until the tolerances are met.

    Row k holds the objective, feasibility and multiplier norm of the state
    after k steps and, from k >= 1, its lyapunov energy, which step k - 1
    (steps count from 0) forms as it leaves that state; the row's
    stationarity and xz_gap columns come from step k, which starts from
    that state. After each step the first of these that holds sets the
    status: InnerBudgetExhausted when the inner solver ran out of
    iterations, DivergenceDetected when the new multiplier norm or
    objective magnitude passes DIVERGENCE_LIMIT, Converged
    (converged_at = k) when row k's feasibility and the
    stationarity column are both below their tolerances. With none of them
    the run ends at max_iters (or the horizon K) as MaxIters. A step that
    meets a non-finite iterate, carried gradient or residual, or prox input
    (NonFiniteValue) ends the run as NonFinite, with the last finite state
    as the terminal state. A terminal row holds the final state, so the
    trace has a row for every state. `config.validate` sets the run up.

    A step leaves one record, which `_RowBlock` turns into its row a block
    of ROW_BLOCK steps at a time. The record's objective and multiplier
    norm are computed once, at the step, for the status checks; each row's
    energy, xz_gap, oscillation and monitor values are computed once too, in
    the block, since no status reads them. So is a step's stationarity norm,
    unless row k's feasibility is <= feas_tol, where the Converged test
    reads it: only there does `run` ask the step's report to form it, and a
    running-min run first flushes the block, so that its running minimum
    covers every earlier norm. The objective is g(x) + h(x).
    g is 0 at every step's x when the prox part is a box or Zero: each step
    of every algorithm ends with a clip onto the box, and the new state is
    finite, so the row takes g(x) as 0.0 with no box test; other prox parts
    are evaluated. For a quadratic h = x'Qx/2 + r'x + c and a state that
    carries grad h(x) = Qx + r, h(x) is x'(grad h(x) + r)/2 + c, with no
    product with Q; otherwise it is h's value. Row 0's objective is
    `Problem.objective_value` at the init, which may lie outside the box;
    its feasibility is the norm of A x0 - b, which the initial state keeps.
    """
    ctx = config.validate(problem)
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

    res = state.__dict__["residual"] = problem.constraint.A.dot(state.x) - problem.constraint.b
    feas = math.sqrt(res.dot(res))
    rows = _RowBlock(ctx, algo, config.monitors, state, problem.objective_value(state.x),
                     feas, math.sqrt(state.lam.dot(state.lam)))
    status, converged_at = "MaxIters", None
    best_measure, pending = np.inf, False   # pending: raws the running minimum misses
    step, running_min = algo.step, algo.running_min
    stat_tol, feas_tol = config.stop.stat_tol, config.stop.feas_tol
    quad = problem.quadratic_terms() if problem.composite else None
    r, c = (None, None) if quad is None else quad[1:]
    prox_value = None if ctx.bounds is not None else problem.prox_part.value
    h_value = problem.smooth.value if problem.composite else None
    keep, clock = rows.steps.append, time.perf_counter
    t0 = clock()

    for k in range(budget):
        try:
            new_state, report = step(ctx, state, config)
        except NonFiniteValue:
            status = "NonFinite"
            break

        x, grad_h, lam = new_state.x, new_state.grad_h, new_state.lam
        g = 0.0 if prox_value is None else prox_value(x)     # 0.0 on a box or Zero
        if quad is None or grad_h is None:
            f = float(g if h_value is None else g + h_value(x))
        else:
            f = float(g + 0.5 * x.dot(grad_h + r) + c)
        lam_norm = math.sqrt(lam.dot(lam))
        # `feas` is row k's: the state's before the step
        if feas <= feas_tol:
            if pending:     # the running minimum must cover every earlier norm
                best_measure, pending = rows.flush(), False
            raw = stat = report.stationarity_norm
            if running_min:
                if raw < best_measure:      # min(best_measure, raw)
                    best_measure = raw
                stat = best_measure
        else:
            raw, pending = None, running_min
        keep((new_state, raw, report.inner_iterations, f, report.feasibility, lam_norm,
              clock() - t0))
        if k % ROW_BLOCK == ROW_BLOCK - 1:     # the block is full (or flushed sooner)
            rows.flush()

        if report.inner_budget_exhausted:
            status = "InnerBudgetExhausted"
        elif lam_norm > DIVERGENCE_LIMIT or abs(f) > DIVERGENCE_LIMIT:
            status = "DivergenceDetected"
        elif feas <= feas_tol and stat <= stat_tol:
            status, converged_at = "Converged", k

        state, feas = new_state, report.feasibility
        if status != "MaxIters":
            break

    # terminal row: the final state's values are in its record; the
    # stationarity column repeats (NaN when no step finished)
    wall_time = clock() - t0
    rows.flush()
    cols = rows.columns
    cols["stationarity"].append(cols["stationarity"][-1] if cols["stationarity"] else np.nan)
    cols["wall_time"].append(wall_time)
    cols["k"] = range(len(cols["objective"]))
    cols["lyapunov"] = [np.nan] + rows.energies
    cols["xz_gap"] = rows.gaps + [np.nan]

    columns = {name: np.asarray(cols[name], dtype=float if name != "k" else int)
               for name in TRACE_COLUMNS}
    return Trace(config.algorithm, columns, status, converged_at, rows.oscillating,
                 rows.monitors, state, rows.inner)
