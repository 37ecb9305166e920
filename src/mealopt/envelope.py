"""Augmented Lagrangian, its Moreau envelope, and the penalty calculus.

The augmented Lagrangian of `min f(x) s.t. Ax = b` is

    L_beta(x, lam) = f(x) + <lam, Ax - b> + (beta/2) ||Ax - b||^2,

and its Moreau envelope in x (for fixed lam) is

    phi_beta(z, lam) = min_x { L_beta(x, lam) + ||x - z||^2 / (2 gamma) }.

This module evaluates both and implements the penalty-parameter calculus
(alpha from beta, beta for a target alpha, per-variant admissible caps) plus
the potential and Lyapunov functions used as runtime descent monitors.

The strongly convex inner problem belongs to an EnvelopeContext, which
fixes beta. Its spec (DirectQP, InnerProxGradient or Paper72FastPath) is
checked against the problem when the config is validated and when the
context is built, and its `solve` is what `solve_subproblem` calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import (
    GammaTooLarge,
    InvalidSubproblemPath,
    MissingMetadata,
    NonPositiveAlpha,
    NotComposite,
    PenaltyOutOfRange,
    WindowTooShort,
)
from .problem import (
    BoxIndicator,
    Problem,
    Zero,
    _smallest_positive,
    _vec,
)

__all__ = [
    "PenaltyPlan",
    "DirectQP",
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
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if not (0.0 < self.eta < 2.0):
            raise ValueError("eta must lie in (0, 2)")
        if self.mode == "fixed":
            if self.beta is None or self.beta <= 0:
                raise ValueError("fixed mode needs beta > 0")
        else:
            if self.K is None or self.K < 1:
                raise ValueError("horizon mode needs K >= 1")
            if self.alpha_target is None or self.alpha_target <= 0:
                raise ValueError("horizon mode needs alpha_target > 0")

    @staticmethod
    def fixed(beta: float, gamma: float, eta: float) -> "PenaltyPlan":
        return PenaltyPlan("fixed", gamma, eta, beta=beta)

    @staticmethod
    def horizon(K: int, alpha_target: float, gamma: float, eta: float) -> "PenaltyPlan":
        return PenaltyPlan("horizon", gamma, eta, K=K, alpha_target=alpha_target)


# ---------------------------------------------------------------------------
# subproblem solver specs
# ---------------------------------------------------------------------------


class SubproblemSpec:
    """How the envelope subproblem is solved: one of the three specs below.

    `check(problem)` raises InvalidSubproblemPath unless the path applies to
    the problem; `SolverConfig.validate` and EnvelopeContext call it.
    `solve(ctx, z, lam, linearize_at, tol, warm_start)` solves at ctx.beta;
    a direct path factors its system on the first solve.
    """

    def check(self, problem: Problem) -> None:
        pass


@dataclass(frozen=True)
class DirectQP(SubproblemSpec):
    """Dense SPD solve; valid when the subproblem objective is quadratic."""

    @staticmethod
    def fits(problem: Problem) -> bool:
        """Quadratic objective with no nonsmooth part."""
        return problem.quadratic_terms() is not None and (
            not problem.composite or isinstance(problem.prox_part, Zero))

    def check(self, problem: Problem) -> None:
        if not self.fits(problem):
            raise InvalidSubproblemPath(
                "DirectQP needs a quadratic objective with no nonsmooth part"
            )

    def solve(self, ctx, z, lam, linearize_at=None, tol=None,
              warm_start=None) -> "SubproblemResult":
        x = _cholesky_solve(ctx, z, lam, linearize_at)
        return SubproblemResult(x, np.zeros(z.shape[0]), 0.0, 0)


@dataclass(frozen=True)
class InnerProxGradient(SubproblemSpec):
    """Accelerated proximal gradient on the strongly convex subproblem.

    The subproblem splits into the prox part g and a smooth part S(x) =
    beta/2 ||Ax - b||^2 + <lam, Ax> + ||x - z||^2/(2 gamma) [+ h(x), or h's
    linear model at `linearize_at`]. Each iteration takes one prox step of
    length t = 1/L from an extrapolated point y,

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

    When h is quadratic and g is a box or Zero, S is a strongly convex
    quadratic over a box, grad S(x) = M x + c with M = H + Q for the exact
    step and H for a linearized one, and the loop is preceded by up to
    _FACE_STEPS face steps (a primal-dual active-set finish: Hintermueller,
    Ito and Kunisch 2002; Bertsekas 1982). A face step takes the bounds
    that y = prox_{t g}(x - t grad S(x)) sits on as active, solves M x = -c
    on the free coordinates with the active ones fixed (the cached Cholesky
    factor when all are free), clips, and returns once s = grad S(x) + the
    nearest element of the box normal cone at x has ||s|| <= tol. When an
    active set repeats, or after _FACE_STEPS steps, the accelerated loop
    goes on from the clipped point. Each face step makes one prox call and
    counts as one inner iteration, so max_inner bounds the total.
    """

    tol: float = 1e-10
    max_inner: int = 50000

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_inner < 1:
            raise ValueError(f"max_inner must be >= 1, got {self.max_inner}")

    def solve(self, ctx, z, lam, linearize_at=None, tol=None,
              warm_start=None) -> "SubproblemResult":
        p = ctx.problem
        beta, gamma, H = ctx.beta, ctx.plan.gamma, ctx.H
        stop_tol = self.tol if tol is None else tol
        g = p.prox_part
        x = _vec(warm_start).copy() if warm_start is not None else z.copy()
        if isinstance(g, BoxIndicator):
            x = np.clip(x, g.lower, g.upper)

        # grad S(x) = H x + shift [+ grad h(x)]; shift is formed once per solve
        exact_h = p.composite and linearize_at is None
        shift = p.constraint.A.T @ lam - beta * ctx.Atb - z / gamma
        if linearize_at is not None:
            shift = shift + p.smooth_gradient(_vec(linearize_at))

        def grad(xx):
            out = H @ xx + shift
            return out + p.smooth_gradient(xx) if exact_h else out

        L_h = p.L_h if exact_h else 0.0
        L = beta * ctx.A_norm2 + 1.0 / gamma + L_h
        mu = 1.0 / gamma - L_h
        t = 1.0 / L

        done = 0
        quad = p.quadratic_terms()      # h's, as a box or Zero g is not quadratic
        if quad is not None and p.box_bounds() is not None:
            c = shift + quad[1] if exact_h else shift
            x, s_vec, s_norm, done = _face_steps(ctx, x, c, exact_h, t, stop_tol,
                                                 min(_FACE_STEPS, self.max_inner))
            if s_norm <= stop_tol:
                return SubproblemResult(x, s_vec, s_norm, done)

        momentum = 0.0
        if g.weak_convexity_modulus == 0 and mu > 0:
            q = math.sqrt(mu / L)
            momentum = (1.0 - q) / (1.0 + q)

        y, grad_y = x, grad(x)
        for it in range(done + 1, self.max_inner + 1):
            x_new = g.prox(t, y - t * grad_y)
            grad_new = grad(x_new)
            back = y - x_new
            s_vec = back / t - grad_y + grad_new
            s_norm = math.sqrt(s_vec @ s_vec)
            if s_norm <= stop_tol:
                return SubproblemResult(x_new, s_vec, s_norm, it)
            step = x_new - x
            if momentum and back @ step <= 0:     # else restart: y' = x+
                y = x_new + momentum * step
                grad_y = grad(y)
            else:
                y, grad_y = x_new, grad_new
            x = x_new
        return SubproblemResult(x, s_vec, s_norm, self.max_inner, budget_exhausted=True)


_FACE_STEPS = 8  # face steps before InnerProxGradient's accelerated loop


def _face_steps(ctx, x, c, exact, t, tol, steps):
    """Up to `steps` face steps on min x'Mx/2 + c'x over the box (see
    InnerProxGradient): (x, s, ||s||, steps taken). Stops once ||s|| <= tol
    or when an active set repeats."""
    p = ctx.problem
    lo, hi = p.box_bounds()
    M = ctx.H + p.quadratic_terms()[0] if exact else ctx.H
    grad = M @ x + c
    seen = set()
    for k in range(1, steps + 1):
        y = p.prox_part.prox(t, x - t * grad)
        at_lo, at_hi = y <= lo, y >= hi
        key = at_lo.tobytes() + at_hi.tobytes()
        if key in seen:
            break
        seen.add(key)
        free = ~(at_lo | at_hi)
        if free.all():
            x = cho_solve(ctx._factor(include_Q=exact), -c)
        else:
            x = np.where(at_lo, lo, hi)
            fixed = ~free
            x[free] = np.linalg.solve(M[np.ix_(free, free)],
                                      -(c[free] + M[np.ix_(free, fixed)] @ x[fixed]))
        x = np.clip(x, lo, hi)
        grad = M @ x + c
        s = np.where(x <= lo, np.minimum(grad, 0.0),
                     np.where(x >= hi, np.maximum(grad, 0.0), grad))
        s_norm = math.sqrt(s @ s)
        if s_norm <= tol:
            break
    return x, s, s_norm, k


@dataclass(frozen=True)
class Paper72FastPath(SubproblemSpec):
    """Unconstrained linearized solve followed by box projection.

    Replicates the quadratic-program recipe: x_tilde from the SPD system,
    then clip to the box. Exact only while the box is inactive; the returned
    residual is therefore not certified (None).
    """

    def check(self, problem: Problem) -> None:
        if not (problem.composite and problem.quadratic_terms() is not None):
            raise InvalidSubproblemPath("fast path needs a quadratic smooth part")
        if problem.box_bounds() is None:
            raise InvalidSubproblemPath("fast path needs a box (or absent) prox part")

    def solve(self, ctx, z, lam, linearize_at=None, tol=None,
              warm_start=None) -> "SubproblemResult":
        if linearize_at is None:
            raise InvalidSubproblemPath("fast path is a linearized-update scheme")
        x = np.clip(_cholesky_solve(ctx, z, lam, linearize_at), *ctx.problem.box_bounds())
        return SubproblemResult(x, None, None, 0)


def _cholesky_solve(ctx, z, lam, linearize_at):
    """The quadratic subproblem's minimizer: the exact step factors H + Q, a
    linearized composite step H with h's gradient at x0 on the right."""
    p = ctx.problem
    Q, r, _ = p.quadratic_terms()
    linearized = linearize_at is not None and p.composite
    rhs = z / ctx.plan.gamma + ctx.beta * ctx.Atb - r
    if linearized:
        rhs = rhs - Q @ _vec(linearize_at)
    rhs = rhs - p.constraint.A.T @ lam
    return cho_solve(ctx._factor(include_Q=not linearized), rhs)


# ---------------------------------------------------------------------------
# penalty calculus
# ---------------------------------------------------------------------------


def alpha_from_beta(beta_k: float, beta_next: float, gamma: float, eta: float,
                    c_gamma_A: float) -> float:
    """alpha_k = (beta_k + beta_{k+1} + gamma*eta*(1 - eta/2)) / (2 c beta_k^2).

    With beta fixed the numerator's beta terms reduce to 2*beta. Raises
    PenaltyOutOfRange unless alpha_k is a positive finite float.
    """
    try:
        alpha = (beta_k + beta_next + gamma * eta * (1.0 - eta / 2.0)) / (
            2.0 * c_gamma_A * beta_k ** 2
        )
    except (OverflowError, ZeroDivisionError):
        alpha = math.nan
    if not 0.0 < alpha < math.inf:
        raise PenaltyOutOfRange(f"beta = {beta_k:g} and c_gamma_A = {c_gamma_A:g} "
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
class EnvelopeContext:
    """Problem + penalty plan + subproblem spec, with the derived matrices.

    Fixed at construction: `A_norm2` and `sigma_min_pos` (by the rule of
    `smallest_positive_eigenvalue`) from one eigendecomposition of A'A;
    `beta`, the plan's or in horizon mode the constant that makes alpha
    equal alpha_target / K; and `alpha =
    alpha_from_beta(beta, beta, ...)`. The subproblem spec is checked
    against the problem. The subproblem matrix `H = beta A'A + I/gamma` is
    formed on first use, and `_factor(include_Q)` factors H (or H + Q) by
    Cholesky on the first solve that needs it and keeps the factor. The
    energies and every step read beta, alpha and gamma from here.
    """

    problem: Problem
    plan: PenaltyPlan
    subproblem: SubproblemSpec = field(default_factory=InnerProxGradient)

    def __post_init__(self):
        A = self.problem.constraint.A
        plan = self.plan
        self.AtA = A.T @ A
        self.Atb = A.T @ self.problem.constraint.b
        eigs = np.linalg.eigvalsh(self.AtA)
        self.sigma_min_pos = _smallest_positive(eigs)
        self.A_norm2 = float(eigs.max())  # ||A||_2^2
        self.c_gamma_A = plan.gamma ** 2 * self.sigma_min_pos
        self.beta = plan.beta if plan.mode == "fixed" else beta_for_target_alpha(
            plan.alpha_target, plan.gamma, plan.eta, self.c_gamma_A, horizon_K=plan.K)
        self.alpha = alpha_from_beta(self.beta, self.beta, plan.gamma, plan.eta,
                                     self.c_gamma_A)
        self._chol_cache: dict = {}
        self.subproblem.check(self.problem)

    # -- factor cache ---------------------------------------------------

    @cached_property
    def H(self) -> np.ndarray:
        """beta A'A + I/gamma, the subproblem's Hessian apart from f."""
        return self.beta * self.AtA + np.eye(self.problem.n) / self.plan.gamma

    def _factor(self, include_Q: bool):
        if include_Q not in self._chol_cache:
            M = self.H + self.problem.quadratic_terms()[0] if include_Q else self.H
            self._chol_cache[include_Q] = cho_factor(M)
        return self._chol_cache[include_Q]


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------


def augmented_lagrangian(ctx: EnvelopeContext, x, lam) -> float:
    """L_beta(x, lam) = f(x) + <lam, Ax-b> + (beta/2)||Ax-b||^2 at ctx.beta."""
    x, lam = _vec(x), _vec(lam)
    resid = ctx.problem.constraint.A @ x - ctx.problem.constraint.b
    f = ctx.problem.objective_value(x)
    return f + float(lam @ resid) + 0.5 * ctx.beta * float(resid @ resid)


def potential_P(ctx: EnvelopeContext, x, z, lam) -> float:
    """P_beta(x, z, lam) = L_beta(x, lam) + ||x - z||^2 / (2 gamma) at ctx.beta."""
    x, z = _vec(x), _vec(z)
    return augmented_lagrangian(ctx, x, lam) + float(
        np.sum((x - z) ** 2)
    ) / (2.0 * ctx.plan.gamma)


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


def solve_subproblem(ctx: EnvelopeContext, z, lam, linearize_at=None,
                     tol: Optional[float] = None, warm_start=None) -> SubproblemResult:
    """Minimize L_beta(., lam) + ||. - z||^2/(2 gamma) at ctx.beta.

    With `linearize_at` the smooth part is replaced by its first-order model
    there. The result's residual lies in the subproblem subdifferential at
    the returned point (exact paths give zero up to solve accuracy); the fast
    path returns an uncertified None residual.
    """
    return ctx.subproblem.solve(ctx, _vec(z), _vec(lam), linearize_at, tol, warm_start)


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


def lyapunov(ctx: EnvelopeContext, variant: str, x, z, lam, z_prev,
             x_prev=None) -> float:
    """Lyapunov value E^k for the given variant at state (x, z, lam).

    E^k = P_beta(x, z, lam) + coef * alpha * (||z - z_prev||^2
          [+ gamma^2 L_h^2 ||x - x_prev||^2 for limeal variants]),

    at the context's beta and alpha. Defined from k >= 1; callers without a
    predecessor must not ask (WindowTooShort).
    """
    if variant not in LYAPUNOV_COEFFICIENTS:
        raise ValueError(f"unknown Lyapunov variant {variant!r}")
    if z_prev is None:
        raise WindowTooShort("Lyapunov needs z_prev (k >= 1)")
    coef = LYAPUNOV_COEFFICIENTS[variant]
    x, z, z_prev = _vec(x), _vec(z), _vec(z_prev)
    extra = float(np.sum((z - z_prev) ** 2))
    if variant.startswith("limeal"):
        if x_prev is None:
            raise WindowTooShort("limeal Lyapunov needs x_prev (k >= 1)")
        if not ctx.problem.composite:
            raise NotComposite("limeal Lyapunov needs a composite objective")
        L_h = ctx.problem.L_h
        extra += ctx.plan.gamma ** 2 * L_h ** 2 * float(np.sum((x - _vec(x_prev)) ** 2))
    return potential_P(ctx, x, z, lam) + coef * ctx.alpha * extra
