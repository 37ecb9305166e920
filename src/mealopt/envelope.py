"""Augmented Lagrangian, its Moreau envelope, and the penalty calculus.

The augmented Lagrangian of `min f(x) s.t. Ax = b` is

    L_beta(x, lam) = f(x) + <lam, Ax - b> + (beta/2) ||Ax - b||^2,

and its Moreau envelope in x (for fixed lam) is

    phi_beta(z, lam) = min_x { L_beta(x, lam) + ||x - z||^2 / (2 gamma) }.

This module evaluates both and implements the penalty-parameter calculus
(alpha from beta, beta for a target alpha, per-variant admissible caps) plus
the potential and Lyapunov functions used as runtime descent monitors.

The strongly convex inner problem belongs to an EnvelopeContext, which
fixes beta; `SolverConfig.validate` builds a run's one context. Its spec
(InnerProxGradient or Paper72FastPath) is checked against the problem when
the context is built, and its `solve` is what `solve_subproblem` calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy.linalg import cho_factor, cholesky, get_lapack_funcs, solve_triangular

from .errors import (
    GammaTooLarge,
    InvalidSubproblemPath,
    MissingMetadata,
    NonPositiveAlpha,
    NotComposite,
    PenaltyOutOfRange,
    SubproblemNonconvexUnsupported,
    WindowTooShort,
)
from .oracle import box_qp_faces
from .problem import (
    BoxIndicator,
    Problem,
    QuadraticSmooth,
    Zero,
    _FLOAT,
    _vec,
)

__all__ = [
    "PenaltyPlan",
    "InnerProxGradient",
    "Paper72FastPath",
    "EnvelopeContext",
    "SubproblemResult",
    "augmented_lagrangian",
    "potential_P",
    "solve_subproblem",
    "alpha_from_beta",
    "beta_for_target_alpha",
    "alpha_cap",
    "stationarity_stream",
    "lyapunov",
    "LYAPUNOV_COEFFICIENTS",
]


# ---------------------------------------------------------------------------
# penalty plan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PenaltyPlan:
    """Penalty schedule plus the proximal and primal step parameters.

    mode "fixed": constant beta. mode "horizon": run exactly K iterations
    with the constant beta_k that makes alpha_k == alpha_target / K.
    """

    mode: str
    gamma: float
    eta: float
    beta: Optional[float] = None
    K: Optional[int] = None
    alpha_target: Optional[float] = None

    def __post_init__(self):
        if self.mode not in ("fixed", "horizon"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and positive, got {self.gamma}")
        if not (0.0 < self.eta < 2.0):
            raise ValueError("eta must lie in (0, 2)")
        if self.mode == "fixed":
            if self.beta is None or not 0 < self.beta < math.inf:
                raise ValueError(f"fixed mode needs a finite beta > 0, got {self.beta}")
        else:
            if not isinstance(self.K, (int, np.integer)) or self.K < 1:
                raise ValueError(f"horizon mode needs an integer K >= 1, got {self.K!r}")
            if self.alpha_target is None or not 0 < self.alpha_target < math.inf:
                raise ValueError("horizon mode needs a finite alpha_target > 0")

    @staticmethod
    def fixed(beta: float, gamma: float, eta: float) -> "PenaltyPlan":
        return PenaltyPlan("fixed", gamma, eta, beta=beta)

    @staticmethod
    def horizon(K: int, alpha_target: float, gamma: float, eta: float) -> "PenaltyPlan":
        return PenaltyPlan("horizon", gamma, eta, K=K, alpha_target=alpha_target)

    def c_gamma_A(self, constraint) -> float:
        """gamma^2 times the smallest positive eigenvalue of A'A, from the
        constraint's kept `gram_spectrum`."""
        return self.gamma ** 2 * constraint.gram_spectrum[1]

    def beta_for(self, constraint) -> float:
        """The penalty the plan fixes on the constraint: beta, or in horizon
        mode the constant that makes alpha equal alpha_target / K."""
        if self.mode == "fixed":
            return self.beta
        return beta_for_target_alpha(self.alpha_target, self.gamma, self.eta,
                                     self.c_gamma_A(constraint), horizon_K=self.K)


# ---------------------------------------------------------------------------
# subproblem solver specs
# ---------------------------------------------------------------------------


class SubproblemSpec:
    """How the envelope subproblem is solved: one of the two specs below.

    `check(problem)` raises InvalidSubproblemPath unless the path applies to
    the problem; EnvelopeContext calls it when built.
    `solve(ctx, z, lam, grad_h, tol, warm_start)` solves at ctx.beta; `grad_h`
    is h's gradient at the linearization point of a linearized step. Its
    vectors are the float vectors of their lengths that `solve_subproblem`
    converted and checked.
    """

    def check(self, problem: Problem) -> None:
        pass


@dataclass(frozen=True)
class InnerProxGradient(SubproblemSpec):
    """The strongly convex subproblem: one solve when it is a quadratic with
    no bound, else face steps and accelerated proximal gradient.

    The subproblem splits into the prox part g and a smooth part S(x) =
    beta/2 ||Ax - b||^2 + <lam, Ax> + ||x - z||^2/(2 gamma) [+ h(x), or h's
    linear model, whose gradient `grad_h` the caller passes]. Each iteration
    takes one prox step of length t = 1/L from an extrapolated point y,

        x+ = prox_{t g}(y - t grad S(y)),   y' = x+ + m (x+ - x),

    with L = beta ||A||^2 + 1/gamma [+ L_h for the exact step]. The momentum
    m = (1 - q)/(1 + q), q = sqrt(mu/L), uses the known strong-convexity
    modulus of S: mu = 1/gamma - L_h for the exact step (h is L_h-weakly
    convex at worst) and mu = 1/gamma for a linearized or non-composite step.
    Momentum is used only when g is convex (weak_convexity_modulus == 0)
    and mu > 0; otherwise m = 0 and the loop is plain proximal gradient.
    Adaptive restart (O'Donoghue and Candes) drops the momentum, y' = x+,
    whenever <y - x+, x+ - x> > 0.

    Stops when the certified residual

        s = (y - x+)/t - grad S(y) + grad S(x+),

    an element of grad S(x+) + dg(x+), drops below tol (or the call's tol,
    iMEAL's eps_k); it certifies the inexactness condition directly. After
    max_inner iterations the last point is returned with budget_exhausted.

    When the objective is quadratic with no bound (h quadratic and g Zero,
    or g a QuadraticForm and no h), the subproblem minimizes x'Mx/2 + c'x
    with M = H + Q [H alone for a linearized step] and c = shift + r
    [shift], where grad S(x) = H x + shift [+ grad h(x)]. Then x = -M^{-1} c
    by one `potrs` solve on M's Cholesky factor (the plan's `_System`), the
    residual is s = M x + c, and the step counts one inner iteration
    whatever the tolerance.

    When h is quadratic and g is a box, S is a strongly convex quadratic
    over a box, grad S(x) = M x + c as above, and the loop is preceded by up
    to _FACE_STEPS face steps (a primal-dual active-set finish:
    Hintermueller, Ito and Kunisch 2002; Bertsekas 1982). A face step takes the bounds
    that y = prox_{t g}(x - t grad S(x)) sits on as active, solves M x = -c
    on the free coordinates with the active ones fixed, clips, and returns
    once s = grad S(x) + the nearest element of the box normal cone at x has
    ||s|| <= tol. When an active set repeats, or after _FACE_STEPS steps, the
    accelerated loop goes on from the clipped point. Each face step makes one
    prox call and counts as one inner iteration, so max_inner bounds the
    total. M_FF, M's block on the free coordinates, is positive definite as M
    is; M's `_System` keeps the Cholesky factor of the last face's block, so
    a face is factored once and each face step is one `potrs` (on M's own
    factor when all coordinates are free; a face with none free is its
    clamped point). What a solve reads from the context alone is its plan,
    the context's `_exact_plan` or `_linearized_plan`.
    """

    tol: float = 1e-10
    max_inner: int = 50000

    def __post_init__(self):
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        if not isinstance(self.max_inner, (int, np.integer)) or self.max_inner < 1:
            raise ValueError(f"max_inner must be an integer >= 1, got {self.max_inner!r}")

    def solve(self, ctx, z, lam, grad_h=None, tol=None,
              warm_start=None) -> "SubproblemResult":
        exact_h, r, system, bounds, t, momentum = (
            ctx._exact_plan if grad_h is None else ctx._linearized_plan)

        # grad S(x) = H x + shift [+ grad h(x)]; shift is formed once per solve
        p = ctx.problem
        shift = p.constraint.A.T.dot(lam) - ctx.beta_Atb - z / ctx.factors.gamma
        if grad_h is not None:
            shift = shift + grad_h
        c = shift if r is None else shift + r
        if system is not None and bounds is None:       # a quadratic, no bound
            x = system.solve(-c)
            s_vec = system.matvec(x) + c
            return SubproblemResult(x, s_vec, math.sqrt(s_vec.dot(s_vec)), 1)

        stop_tol = self.tol if tol is None else tol
        x = z if warm_start is None else warm_start
        g, done = p.prox_part, 0
        if bounds is not None:
            x = np.minimum(np.maximum(x, bounds[0]), bounds[1])
            if system is not None:          # a box QP: face steps first
                x, s_vec, s_norm, done = _face_steps(g, system, bounds, t, x, c, stop_tol,
                                                     min(_FACE_STEPS, self.max_inner))
                if s_norm <= stop_tol:
                    return SubproblemResult(x, s_vec, s_norm, done)

        def grad(xx):
            out = ctx.H_matvec(xx) + shift
            return out + ctx.h_gradient(xx) if exact_h else out

        y, grad_y = x, grad(x)
        for it in range(done + 1, self.max_inner + 1):
            x_new = g.prox(t, y - t * grad_y)
            grad_new = grad(x_new)
            back = y - x_new
            s_vec = back / t - grad_y + grad_new
            s_norm = math.sqrt(s_vec.dot(s_vec))
            if s_norm <= stop_tol:
                return SubproblemResult(x_new, s_vec, s_norm, it)
            step = x_new - x
            if momentum and back.dot(step) <= 0:     # else restart: y' = x+
                y = x_new + momentum * step
                grad_y = grad(y)
            else:
                y, grad_y = x_new, grad_new
            x = x_new
        return SubproblemResult(x, s_vec, s_norm, self.max_inner, budget_exhausted=True)


def _inner_plan(ctx, exact: bool) -> tuple:
    """InnerProxGradient.solve's plan on `ctx` for calls without grad_h
    (`exact`) or with it: (exact_h, r, system, bounds, t, momentum). exact_h:
    S holds h itself; r: the linear term c adds to shift; system: the
    `_System` of M = beta A'A + I/gamma [+ Q], for the no-bound solve or the
    face steps; bounds: the box; t = 1/L. None marks what is unused."""
    p, gamma = ctx.problem, ctx.plan.gamma
    g = p.prox_part
    exact_h = p.composite and exact
    quad = p.quadratic_terms()      # h's, or g's when g is the objective
    include_Q = exact_h or not p.composite      # exact_h when g is a box
    bounds = ctx.bounds if isinstance(g, BoxIndicator) else None
    system = None
    if quad is not None and (not p.composite or isinstance(g, Zero) or bounds is not None):
        A = p.constraint.A
        M = ctx.beta * (A.T @ A) + np.eye(p.n) / gamma
        if include_Q:
            M = M + quad[0]
        factor, lower = cho_factor(M)
        potrs, = get_lapack_funcs(("potrs",), (factor,))
        system = _System(M, M.dot if include_Q else ctx.H_matvec, factor, lower, potrs)
    L_h = p.L_h if exact_h else 0.0
    L = ctx.beta * ctx.A_norm2 + 1.0 / gamma + L_h
    mu = 1.0 / gamma - L_h
    momentum = 0.0
    if g.weak_convexity_modulus == 0 and mu > 0:
        q = math.sqrt(mu / L)
        momentum = (1.0 - q) / (1.0 + q)
    r = quad[1] if system is not None and include_Q else None
    return exact_h, r, system, bounds, 1.0 / L, momentum


_FACE_STEPS = 8  # face steps before InnerProxGradient's accelerated loop


def _face_steps(g, system, bounds, t, x, c, tol, steps):
    """Up to `steps` face steps on min x'Mx/2 + c'x over g's box `bounds`, M
    the plan's `system` (see InnerProxGradient): (x, s, ||s||, steps taken).
    Stops once ||s|| <= tol or when an active set repeats."""
    lo, hi = bounds
    grad = system.matvec(x) + c
    seen = set()
    for k in range(1, steps + 1):
        y = g.prox(t, x - t * grad)
        at_lo, at_hi = y <= lo, y >= hi
        key = at_lo.tobytes() + at_hi.tobytes()
        if key in seen:
            break
        seen.add(key)
        if system.face is None or system.face[0] != key:
            system.face = _face_blocks(system.M, key, at_lo, at_hi, lo, hi)
        _, free, x, factor, M_FC_x = system.face
        if x is None:
            x = system.solve(-c)
        elif factor is not None:
            x = x.copy()
            x[free] = system.solve(-(c[free] + M_FC_x), factor)
        x = np.minimum(np.maximum(x, lo), hi)
        grad = system.matvec(x) + c
        # s = grad, with min(grad, 0) where x is at lo and max(grad, 0) at hi
        s = grad.copy()
        np.maximum(grad, 0.0, out=s, where=x >= hi)
        np.minimum(grad, 0.0, out=s, where=x <= lo)
        s_norm = math.sqrt(s.dot(s))
        if s_norm <= tol:
            break
    return x, s, s_norm, k


def _face_blocks(M, key, at_lo, at_hi, lo, hi):
    """The `_System.face` entry of a face: (key, free mask, the point holding
    the clamped values, the Cholesky factor of M_FF, M_FC x_C). The last
    three are None on the all-free face, which is solved on M's own factor;
    the factor and M_FC x_C are None on a face with no free coordinate,
    whose point is the clamped one. M_FF is factored without a finite check,
    which M passed when the plan factored it; a block that is not positive
    definite raises LinAlgError."""
    free = ~(at_lo | at_hi)
    if np.logical_and.reduce(free):
        return key, free, None, None, None
    x = np.where(at_lo, lo, hi)
    if not np.logical_or.reduce(free):
        return key, free, x, None, None
    factor = cho_factor(M[np.ix_(free, free)], check_finite=False)[0]
    return key, free, x, factor, M[np.ix_(free, ~free)] @ x[~free]


@dataclass(frozen=True)
class Paper72FastPath(SubproblemSpec):
    """Unconstrained linearized solve followed by box projection.

    Replicates the quadratic-program recipe: x_tilde = H^{-1} rhs, with rhs =
    z/gamma + beta A'b - grad h(x^k) - A'lam, then clip to the box. The solve
    with H = beta A'A + I/gamma is the context's rank-m `H_solve`, so a step
    does O(mn) work and forms no n x n matrix. Exact only while the box is
    inactive; the returned residual is therefore not certified (None).
    """

    def check(self, problem: Problem) -> None:
        if not (problem.composite and problem.quadratic_terms() is not None):
            raise InvalidSubproblemPath("fast path needs a quadratic smooth part")
        if problem.box_bounds() is None:
            raise InvalidSubproblemPath("fast path needs a box (or absent) prox part")

    def solve(self, ctx, z, lam, grad_h=None, tol=None,
              warm_start=None) -> "SubproblemResult":
        if grad_h is None:
            raise InvalidSubproblemPath("fast path is a linearized-update scheme")
        rhs = z / ctx.factors.gamma + ctx.beta_Atb - grad_h - ctx.problem.constraint.A.T.dot(lam)
        lo, hi = ctx.bounds
        x = np.minimum(np.maximum(ctx.H_solve(rhs), lo), hi)
        return SubproblemResult(x, None, None, 0)


# ---------------------------------------------------------------------------
# penalty calculus
# ---------------------------------------------------------------------------


def alpha_from_beta(beta: float, gamma: float, eta: float, c_gamma_A: float) -> float:
    """alpha = (2 beta + gamma*eta*(1 - eta/2)) / (2 c beta^2).

    The paper's alpha_k = (beta_k + beta_{k+1} + ...) / (2 c beta_k^2) with
    the penalty fixed over the run, as every context holds it. Raises
    PenaltyOutOfRange unless alpha is a positive finite float.
    """
    try:
        alpha = (2.0 * beta + gamma * eta * (1.0 - eta / 2.0)) / (
            2.0 * c_gamma_A * beta ** 2
        )
    except (OverflowError, ZeroDivisionError):
        alpha = math.nan
    if not 0.0 < alpha < math.inf:
        raise PenaltyOutOfRange(f"beta = {beta:g} and c_gamma_A = {c_gamma_A:g} "
                                "give no positive finite alpha")
    return alpha


_BETA_MARGIN = 1e-6  # fixed-mode beta inflation: alpha(beta) < alpha_bar strictly


def beta_for_target_alpha(alpha_bar: float, gamma: float, eta: float,
                          c_gamma_A: float, horizon_K: Optional[int] = None) -> float:
    """Smallest beta meeting the alpha condition, inflated by _BETA_MARGIN.

    Fixed mode inverts alpha(beta) < alpha_bar:

        beta = (1 + sqrt(1 + eta(2-eta) gamma c alpha_bar)) / (2 c alpha_bar)

    times (1 + _BETA_MARGIN) so the strict inequality holds. Horizon mode returns
    the K-scaled constant that achieves alpha_k == alpha_bar / K exactly
    (no margin: the schedule targets equality). Raises PenaltyOutOfRange
    unless beta comes out a finite float, as when c_gamma_A underflows to 0.
    """
    if alpha_bar <= 0:
        raise NonPositiveAlpha(f"alpha target must be positive, got {alpha_bar}")
    c, a = float(c_gamma_A), float(alpha_bar)      # Python floats: no numpy warnings
    K = 1 if horizon_K is None else int(horizon_K)
    disc = eta * (2.0 - eta) * gamma * c * a
    beta = K * (1.0 + math.sqrt(1.0 + disc / K)) / (2.0 * c * a) if c > 0 else math.inf
    if horizon_K is None:
        beta *= 1.0 + _BETA_MARGIN
    if not beta < math.inf:
        raise PenaltyOutOfRange(f"alpha target {alpha_bar:g} and c_gamma_A = "
                                f"{c_gamma_A:g} give no finite beta")
    return beta


# Lyapunov coefficient c of each family, for the (Lipschitz, bounded)
# implicit class: the "-a"/"-s1" and "-b"/"-s2" variants
_COEFFICIENTS = {"meal": (2, 3), "imeal": (3, 4), "limeal": (3, 4)}
_VARIANTS = tuple(f"{family}-{cls}" for family in _COEFFICIENTS for cls in "ab")


def alpha_cap(problem: Problem, plan: PenaltyPlan, variant: str) -> float:
    """Admissible upper bound on alpha for the given algorithm variant:
    min(primal / (2 c gamma K), (1 / (4 c gamma)) (2/eta - 1)), with c the
    variant's Lyapunov coefficient. The "-a" variants assume the implicit
    Lipschitz class, K = (1 + gamma L)^2 with L = L_f (L_g for LiMEAL); the
    "-b" variants assume the bounded class, K = 1. MEAL and iMEAL need gamma
    < 1/rho and have primal = 1 - gamma rho. LiMEAL's primal is its margin
    1 - gamma (rho_g + L_h) - eta (1 - eta/2) gamma^2 L_h^2, its K gains
    + gamma^2 L_h^2, and it needs gamma below the root bound

        gamma < 2 / ((rho_g + L_h) (1 + sqrt(1 + 2(2-eta) eta L_h^2 /
                                             (rho_g + L_h)^2)))

    A gamma past its bound raises GammaTooLarge, before MissingMetadata.
    """
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}")
    family, cls = variant.split("-")
    g, eta = plan.gamma, plan.eta

    if family == "limeal":
        if not problem.composite:
            raise NotComposite("LiMEAL caps need a composite objective")
        rho_g, L_h = problem.rho_g, problem.L_h
        base = rho_g + L_h
        if base > 0:
            root = 1.0 + np.sqrt(1.0 + 2.0 * (2.0 - eta) * eta * L_h ** 2 / base ** 2)
            gamma_max = 2.0 / (base * root)
            if g >= gamma_max:
                raise GammaTooLarge(
                    f"gamma={g} >= {gamma_max:.6g}, the admissible LiMEAL bound"
                )
        primal = 1.0 - g * base - eta * (1.0 - eta / 2.0) * g ** 2 * L_h ** 2
        K_h = g ** 2 * L_h ** 2
        if cls == "a":
            g_class = problem.prox_part.implicit_class
            if g_class.kind != "lipschitz":
                raise MissingMetadata("L_g", "limeal-a needs the Lipschitz class on g")
            L = g_class.constant
    else:
        rho = problem.rho_total
        if rho > 0 and g >= 1.0 / rho:
            raise GammaTooLarge(f"gamma={g} >= 1/rho={1.0 / rho:.6g}")
        primal, K_h = 1.0 - g * rho, 0.0
        L = problem.implicit_lipschitz_constant() if cls == "a" else None
    K = ((1.0 + g * L) ** 2 if cls == "a" else 1.0) + K_h
    c = _COEFFICIENTS[family][cls == "b"]
    return min(primal / (2 * c * g * K), (1.0 / (4 * c * g)) * (2.0 / eta - 1.0))


# ---------------------------------------------------------------------------
# context
# ---------------------------------------------------------------------------


@dataclass
class _System:
    """A plan's subproblem matrix M: its product, its Cholesky factor
    (`cho_factor(M)`'s factor and `lower` flag) with the LAPACK `potrs` that
    solves on it and on a face block's factor, and the last face
    `_face_steps` solved on, with its block's Cholesky factor (`_face_blocks`,
    None before the first)."""

    M: np.ndarray
    matvec: Callable[[np.ndarray], np.ndarray]
    factor: np.ndarray
    lower: bool
    potrs: Callable
    face: Optional[tuple] = None

    def solve(self, v: np.ndarray, factor: Optional[np.ndarray] = None) -> np.ndarray:
        """M^{-1} v, or a face block's M_FF^{-1} v on its kept `factor`, by
        `potrs`: the LAPACK call that scipy's Cholesky solve makes, with the
        same inputs, so the same bits."""
        x, info = self.potrs(self.factor if factor is None else factor, v, lower=self.lower)
        if info != 0:
            raise ValueError(f"illegal value in {-info}th argument of internal potrs")
        return x


class _Factors(NamedTuple):
    """A context's scalar factors as 0-d float64 arrays: a vector times or
    over one gives the Python float's bits, and numpy converts no float."""

    beta: np.ndarray
    gamma: np.ndarray
    eta: np.ndarray
    one_minus_eta: np.ndarray
    inv_gamma: np.ndarray


@dataclass
class EnvelopeContext:
    """Problem + penalty plan + subproblem spec: the one place that knows
    the subproblem's linear algebra.

    Fixed at construction: `A_norm2` and `sigma_min_pos` from the
    constraint's `gram_spectrum` (one eigendecomposition of the smaller of
    AA' and A'A, kept by the constraint); `c_gamma_A` and `beta`, the plan's
    `c_gamma_A` and `beta_for`; `alpha = alpha_from_beta(beta, ...)`; and
    `beta_Atb` = beta A'b, the constant term of the subproblem's gradient;
    and `input_shapes`, ((n,), (m,)), which `solve_subproblem` checks its
    inputs against.
    The subproblem spec is checked against the problem. The energies and
    every step read beta, alpha and gamma from here. `factors` holds beta,
    gamma, eta, 1 - eta and 1/gamma as 0-d float64 arrays (`_Factors`), the
    form in which a step multiplies or divides a vector by them; `beta` and
    the plan's fields stay Python floats.

    `h_gradient` is h's gradient: a `QuadraticSmooth`'s own, which returns
    a fresh float vector from one BLAS `dsymv` on one triangle of its
    exactly symmetric Q, else `Problem.smooth_gradient`, which converts. Every
    other run constant is a `cached_property`, formed on first use: `bounds`,
    the problem's `box_bounds()`; `_woodbury`; InnerProxGradient's plans
    `_exact_plan` and `_linearized_plan` (`_inner_plan`); ALM's `_alm`; and
    Prox-iALM's primal step `_prox_ialm_s`, a 0-d array like `factors`.
    Nothing else sets an attribute on a context.

    The subproblem matrix H = beta A'A + I/gamma is the identity plus a
    rank-m term. `H_matvec` applies it as beta A'(A v) + v/gamma, and
    `H_solve` inverts it by the Sherman-Morrison-Woodbury identity

        H^{-1} v = gamma (v - beta gamma A' K^{-1} A v),   K = I + beta gamma AA',

    through K's Cholesky factor L: with C = sqrt(beta gamma) L^{-1} A, formed
    once on first use, the correction is C'(C v), two m x n products. K's
    eigenvalues are at least 1 whatever the rank of A, and K is used for
    every m, m >= n included. `H_solve` is Paper72FastPath's solve, and
    `H_matvec` makes InnerProxGradient's products with H alone; a Prox-iALM
    step forms its H x from the residual A x - b its state carries.

    A plan of InnerProxGradient's with M = H + Q (an exact step) or M = H
    (a linearized one) owns M's `_System`: M, its product, its Cholesky
    factor with LAPACK's `potrs` (a solve is one `potrs` call on the kept
    factor, the bits of scipy's Cholesky solve without its Python wrapper)
    and the last face solved on, with the Cholesky factor of its block, on
    which a face step's solve is one `potrs` call too. Those solves certify the
    residual M x + c, and M's Cholesky factor is backward stable; the
    residual of the rank-m solve grows with cond(H), and can miss a
    tolerance near round-off that the factor meets.
    """

    problem: Problem
    plan: PenaltyPlan
    subproblem: SubproblemSpec = field(default_factory=InnerProxGradient)

    def __post_init__(self):
        constraint, plan = self.problem.constraint, self.plan
        self.A_norm2, self.sigma_min_pos = constraint.gram_spectrum
        self.c_gamma_A = plan.c_gamma_A(constraint)
        self.beta = plan.beta_for(constraint)
        self.alpha = alpha_from_beta(self.beta, plan.gamma, plan.eta, self.c_gamma_A)
        self.subproblem.check(self.problem)
        self.beta_Atb = self.beta * (constraint.A.T @ constraint.b)
        self.input_shapes = (self.beta_Atb.shape, constraint.b.shape)
        self.factors = _Factors(*(np.array(v, dtype=_FLOAT) for v in (
            self.beta, plan.gamma, plan.eta, 1.0 - plan.eta, 1.0 / plan.gamma)))
        smooth = self.problem.smooth
        self.h_gradient = smooth.gradient if type(smooth) is QuadraticSmooth \
            else self.problem.smooth_gradient

    # -- run constants, read by every step -------------------------------

    @cached_property
    def bounds(self) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """The problem's `box_bounds()`: (lower, upper), infinite for Zero."""
        return self.problem.box_bounds()

    _exact_plan = cached_property(partial(_inner_plan, exact=True))
    _linearized_plan = cached_property(partial(_inner_plan, exact=False))

    @cached_property
    def _alm(self) -> tuple:
        """ALM's box faces of H = Q + beta A'A, h's linear term r, and the
        minimizers of the last two distinct linear terms its steps solved for.
        SubproblemNonconvexUnsupported unless the objective is a quadratic over
        a box; `box_qp_faces` raises it too, above its enumeration scale or
        where the subproblems are unbounded below."""
        p, bounds = self.problem, self.bounds
        terms = p.quadratic_terms()
        if terms is None or bounds is None:
            raise SubproblemNonconvexUnsupported(
                "alm global minimization supports quadratic objectives over a box")
        A = p.constraint.A
        return box_qp_faces(terms[0] + self.beta * (A.T @ A), *bounds), terms[1], {}

    @cached_property
    def _prox_ialm_s(self) -> np.ndarray:
        """s = 1 / (2 (L_h + 1/gamma + beta ||A||^2))."""
        return np.array(1.0 / (2.0 * (self.problem.L_h + 1.0 / self.plan.gamma
                                      + self.beta * self.A_norm2)))

    # -- the rank-m products and solves with H ---------------------------

    def H_matvec(self, v: np.ndarray) -> np.ndarray:
        """H v = beta A'(A v) + v/gamma."""
        A, c = self.problem.constraint.A, self.factors
        return c.beta * A.T.dot(A.dot(v)) + v / c.gamma

    def H_solve(self, v: np.ndarray) -> np.ndarray:
        """H^{-1} v = gamma (v - C'(C v)), by the identity in the class docstring."""
        C = self._woodbury
        return self.factors.gamma * (v - C.T.dot(C.dot(v)))

    @cached_property
    def _woodbury(self) -> np.ndarray:
        """C = sqrt(beta gamma) L^{-1} A, L the Cholesky factor of K = I +
        beta gamma AA', so that C'C = beta gamma A' K^{-1} A."""
        A = self.problem.constraint.A
        bg = self.beta * self.plan.gamma
        L = cholesky(np.eye(self.problem.m) + bg * (A @ A.T), lower=True,
                     check_finite=False)
        return math.sqrt(bg) * solve_triangular(L, A, lower=True, check_finite=False)


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------


def _rowdot(a: np.ndarray, b: np.ndarray):
    """a @ b along the last axis: one value for 1-D a and b, one per row for
    stacked rows. numpy forms each row's product with the kernel of the 1-D
    a @ b, so the values are the same bit for bit."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def augmented_lagrangian(ctx: EnvelopeContext, state, f=None):
    """L_beta(x, lam) = f(x) + <lam, Ax-b> + (beta/2)||Ax-b||^2 at ctx.beta and
    the state's x and lam, with its carried Ax - b when it has one.

    `state` is an IterateState, or a block of states: any object whose x,
    z, lam and residual stack one state per row, for which every energy gives
    an array of the per-state values, bit for bit. `f` is the objective at
    x (one per row) when the caller already has it."""
    x, resid = state.x, state.residual
    if resid is None:
        constraint = ctx.problem.constraint
        resid = np.matmul(constraint.A, x[..., None])[..., 0] - constraint.b
    if f is None:
        objective = ctx.problem.objective_value
        f = objective(x) if x.ndim == 1 else np.array([objective(row) for row in x])
    return f + _rowdot(state.lam, resid) + (0.5 * ctx.beta) * _rowdot(resid, resid)


def potential_P(ctx: EnvelopeContext, state, f=None):
    """P_beta(x, z, lam) = L_beta(x, lam) + ||x - z||^2 / (2 gamma) at ctx.beta,
    for a state or a block of states (see augmented_lagrangian)."""
    d = state.x - state.z
    return augmented_lagrangian(ctx, state, f) + np.add.reduce(
        d * d, axis=-1) / (2.0 * ctx.plan.gamma)


# ---------------------------------------------------------------------------
# subproblem
# ---------------------------------------------------------------------------


@dataclass
class SubproblemResult:
    x: np.ndarray
    residual: Optional[np.ndarray]      # s in the subdifferential sum, None if uncertified
    residual_norm: Optional[float]
    inner_iterations: int
    budget_exhausted: bool = False


def solve_subproblem(ctx: EnvelopeContext, z, lam, grad_h=None,
                     tol: Optional[float] = None, warm_start=None) -> SubproblemResult:
    """Minimize L_beta(., lam) + ||. - z||^2/(2 gamma) at ctx.beta.

    With `grad_h`, h's gradient at a linearization point, the smooth part is
    replaced by its first-order model there. The result's residual lies in
    the subproblem subdifferential at the returned point (a quadratic with no
    bound gives M x + c, zero up to solve accuracy); the fast path returns an
    uncertified None residual.

    The one entry that converts a subproblem's inputs: z, `grad_h` and
    `warm_start` must have length n and lam length m, else ValueError.
    """
    n, m = ctx.input_shapes
    if type(z) is not np.ndarray or z.shape != n or z.dtype != _FLOAT:
        z = _input(z, n, "z")
    if type(lam) is not np.ndarray or lam.shape != m or lam.dtype != _FLOAT:
        lam = _input(lam, m, "lam")
    if grad_h is not None and (type(grad_h) is not np.ndarray or grad_h.shape != n
                               or grad_h.dtype != _FLOAT):
        grad_h = _input(grad_h, n, "grad_h")
    if warm_start is not None and (type(warm_start) is not np.ndarray
                                   or warm_start.shape != n or warm_start.dtype != _FLOAT):
        warm_start = _input(warm_start, n, "warm_start")
    return ctx.subproblem.solve(ctx, z, lam, grad_h, tol, warm_start)


def _input(v, shape: tuple, name: str) -> np.ndarray:
    """`v` as a float vector of the given shape, else ValueError."""
    v = _vec(v)
    if v.shape != shape:
        raise ValueError(f"{name} has shape {v.shape}; the subproblem's is {shape}")
    return v


# ---------------------------------------------------------------------------
# stationarity stream and Lyapunov values
# ---------------------------------------------------------------------------


def stationarity_stream(reports) -> np.ndarray:
    """Running minimum of envelope-gradient norms: the per-k measure.

    Accepts raw norms or step reports carrying `stationarity_norm`.
    """
    norms = [getattr(r, "stationarity_norm", r) for r in reports]
    return np.minimum.accumulate(np.asarray(norms, dtype=float))


# per-variant multiplier of alpha_k in the Lyapunov value (the caps' c); the
# limeal pair also carries the gamma^2 L_h^2 ||x - x_prev||^2 term
LYAPUNOV_COEFFICIENTS = {f"{family}-s{i}": float(c) for family, pair in _COEFFICIENTS.items()
                         for i, c in enumerate(pair, 1)}


def lyapunov(ctx: EnvelopeContext, variant: str, state, prev, f=None):
    """Lyapunov value E^k for the given variant at `state` = (x, z, lam),
    the IterateState that the step from `prev` = (x_prev, z_prev, ...) made.

    E^k = P_beta(x, z, lam) + coef * alpha * (||z - z_prev||^2
          [+ gamma^2 L_h^2 ||x - x_prev||^2 for limeal variants]),

    at the context's beta and alpha; `f` is the objective at x when the caller
    already has it. `state` and `prev` may be blocks of states, row i of
    `state` made from row i of `prev` (see augmented_lagrangian). Defined
    from k >= 1; callers without a predecessor must not ask (WindowTooShort).
    """
    if variant not in LYAPUNOV_COEFFICIENTS:
        raise ValueError(f"unknown Lyapunov variant {variant!r}")
    if prev is None:
        raise WindowTooShort("Lyapunov needs the previous state (k >= 1)")
    coef = LYAPUNOV_COEFFICIENTS[variant]
    dz = state.z - prev.z
    extra = np.add.reduce(dz * dz, axis=-1)
    if variant.startswith("limeal"):
        if not ctx.problem.composite:
            raise NotComposite("limeal Lyapunov needs a composite objective")
        L_h = ctx.problem.L_h
        dx = state.x - prev.x
        extra = extra + ctx.plan.gamma ** 2 * L_h ** 2 * np.add.reduce(dx * dx, axis=-1)
    return potential_P(ctx, state, f) + coef * ctx.alpha * extra
