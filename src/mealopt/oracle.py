"""Independent brute-force oracles and numerical certifiers.

Everything here validates the closed forms and solver outputs by a second,
slower route: grid search for 1-D proxes, exhaustive active-set enumeration
for small box-QPs, interval arithmetic for KKT residuals, finite differences
for gradients, and least-squares fits for convergence rates. These functions
share no code with the MEAL-family solver paths they certify. The ALM
baseline is the exception: its step takes the global box-QP minimum from
`active_set_qp_oracle` through `box_qp_global_min`, so no oracle here
certifies ALM.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    InsufficientData,
    RangeTooSmall,
    SubproblemNonconvexUnsupported,
)
from .problem import BoxIndicator, PointwiseMin, Problem, Zero, _vec

__all__ = [
    "grid_prox_oracle",
    "active_set_qp_oracle",
    "box_qp_global_min",
    "check_free_curvature",
    "KKTReport",
    "kkt_residual",
    "finite_diff_check",
    "RateFit",
    "rate_fit",
    "ACTIVE_SET_MAX_N",
]

ACTIVE_SET_MAX_N = 8  # 3^8 = 6561 patterns; exhaustive certainty at desk scale


def grid_prox_oracle(g_1d: Callable[[float], float], gamma: float, v: float,
                     half_range: float = 10.0, step: float = 1e-4) -> float:
    """Brute-force 1-D prox: grid argmin plus one ternary-search refinement.

    Minimizes g(t) + (t - v)^2 / (2 gamma) over [-half_range, half_range].
    Raises RangeTooSmall when the argmin lands on the interval boundary.
    """
    ts = np.arange(-half_range, half_range + step, step)
    vals = np.array([g_1d(t) + (t - v) ** 2 / (2.0 * gamma) for t in ts])
    i = int(np.argmin(vals))
    if i == 0 or i == len(ts) - 1:
        raise RangeTooSmall(f"argmin at grid boundary t={ts[i]}")
    obj = lambda t: g_1d(t) + (t - v) ** 2 / (2.0 * gamma)
    lo, hi = ts[i - 1], ts[i + 1]
    for _ in range(200):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if obj(m1) < obj(m2):
            hi = m2
        else:
            lo = m1
    return float(0.5 * (lo + hi))


def active_set_qp_oracle(Q, r, A, b, lower, upper, feas_tol: float = 1e-8,
                         bound_tol: float = 1e-9):
    """Enumerate stationary points of a small box-QP by active-set patterns.

    Problem: min x'Qx/2 + r'x  s.t.  Ax = b (optional), lower <= x <= upper.
    All 3^n lower/upper/free patterns are tried in lexicographic order; each
    yields an equality-constrained KKT solve on the free coordinates. Points
    are kept when they satisfy bounds, multiplier signs and Ax = b within
    feas_tol. Returns (points, multipliers, n_singular_skipped); multipliers
    are the equality-constraint duals (empty vector when A is None).
    """
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    n = Q.shape[0]
    if n > ACTIVE_SET_MAX_N:
        raise ValueError(f"active-set oracle capped at n={ACTIVE_SET_MAX_N}")
    r = _vec(r) if r is not None else np.zeros(n)
    lower = _vec(lower)
    upper = _vec(upper)
    if A is None:
        A, b = np.zeros((0, n)), np.zeros(0)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = _vec(b)
    m = A.shape[0]

    points, multipliers = [], []
    n_singular = 0
    # per-coordinate states 0 = at lower, 1 = at upper, 2 = free; an
    # infinite bound cannot be active, so its state is dropped
    states = [[s for s, bound in ((0, lo), (1, hi)) if np.isfinite(bound)] + [2]
              for lo, hi in zip(lower, upper)]
    for pattern in itertools.product(*states):
        free = [i for i, s in enumerate(pattern) if s == 2]
        clamped = [i for i, s in enumerate(pattern) if s != 2]
        x = np.empty(n)
        for i in clamped:
            x[i] = lower[i] if pattern[i] == 0 else upper[i]
        nf = len(free)
        K = np.zeros((nf + m, nf + m))
        K[:nf, :nf] = Q[np.ix_(free, free)]
        K[:nf, nf:] = A[:, free].T
        K[nf:, :nf] = A[:, free]
        rhs = np.empty(nf + m)
        rhs[:nf] = -r[free] - (Q[np.ix_(free, clamped)] @ x[clamped] if clamped else 0.0)
        rhs[nf:] = b - (A[:, clamped] @ x[clamped] if clamped else 0.0)
        try:
            sol = np.linalg.solve(K, rhs) if K.size else np.zeros(0)
        except np.linalg.LinAlgError:
            n_singular += 1
            continue
        if not np.all(np.isfinite(sol)):
            n_singular += 1
            continue
        x[free] = sol[:nf]
        mu = sol[nf:]

        if np.any(x < lower - bound_tol) or np.any(x > upper + bound_tol):
            continue
        grad = Q @ x + r + A.T @ mu
        ok = True
        for i, s in enumerate(pattern):
            if s == 0 and grad[i] < -bound_tol:      # at lower: residual must push up
                ok = False
            elif s == 1 and grad[i] > bound_tol:     # at upper: must push down
                ok = False
            elif s == 2 and abs(grad[i]) > 1e-7 * max(1.0, np.abs(grad).max()):
                ok = False
        if not ok:
            continue
        if np.linalg.norm(A @ x - b) > feas_tol:
            continue
        # degenerate patterns rediscover the same point; keep the first
        if any(np.linalg.norm(x - p) <= 1e-8 for p in points):
            continue
        points.append(x)
        multipliers.append(mu)
    return points, multipliers, n_singular


def check_free_curvature(H, lower, upper) -> None:
    """Raise SubproblemNonconvexUnsupported unless H is positive definite on
    the coordinates without two finite bounds; otherwise x'Hx/2 + c'x may be
    unbounded below over the box."""
    unbounded = [i for i in range(len(lower))
                 if not (np.isfinite(lower[i]) and np.isfinite(upper[i]))]
    if unbounded and np.linalg.eigvalsh(H[np.ix_(unbounded, unbounded)]).min() <= 0:
        raise SubproblemNonconvexUnsupported(
            "objective unbounded below along a free coordinate direction"
        )


def box_qp_global_min(H, c, lower, upper):
    """Global minimizer of x'Hx/2 + c'x over a box, and its value.

    The quadratic may be indefinite. Coordinates with an infinite bound must
    see positive curvature, otherwise the problem is unbounded below and
    SubproblemNonconvexUnsupported is raised. The minimum over the box is
    then a KKT point, so it is the lowest-value point that
    `active_set_qp_oracle` enumerates; the first of them wins exact ties.
    """
    H = np.atleast_2d(np.asarray(H, dtype=float))
    if H.shape[0] > ACTIVE_SET_MAX_N:
        raise SubproblemNonconvexUnsupported(
            f"global box-QP oracle capped at n={ACTIVE_SET_MAX_N}"
        )
    c, lower, upper = _vec(c), _vec(lower), _vec(upper)
    check_free_curvature(H, lower, upper)

    points, _, _ = active_set_qp_oracle(H, c, None, None, lower, upper)
    if not points:
        raise SubproblemNonconvexUnsupported("no feasible stationary point found")
    values = [float(0.5 * x @ H @ x + c @ x) for x in points]
    best = values.index(min(values))
    return np.clip(points[best], lower, upper), values[best]


@dataclass
class KKTReport:
    """First-order stationarity certificate at (x, lambda)."""

    stationarity_residual: float
    feasibility: float
    complementarity: dict = field(default_factory=dict)
    nonsmooth_flag: bool = False

    def __post_init__(self):
        assert self.stationarity_residual >= 0 and self.feasibility >= 0


def kkt_residual(problem: Problem, x, lam, active_tol: float = 1e-9) -> KKTReport:
    """Upper bound on dist(0, grad h(x) + A'lam + subdiff g(x)), plus ||Ax-b||.

    Box indicators are handled through normal cones with active-set detection;
    separable kinds through per-coordinate subgradient intervals. PointwiseMin
    near a piece crossing gets a conservative min-over-pieces bound and a
    nonsmooth flag.
    """
    x = _vec(x)
    lam = _vec(lam)
    A = problem.constraint.A
    grad = problem.smooth_gradient(x) + A.T @ lam
    feas = problem.constraint.residual(x)
    g = problem.prox_part
    complementarity: dict = {}
    flag = False

    if isinstance(g, PointwiseMin):
        vals = [g.piece_value(i, x) for i in range(len(g.pieces))]
        best = min(vals)
        active = [i for i, v in enumerate(vals) if v <= best + 1e-9 * max(1.0, abs(best))]
        if len(active) > 1:
            flag = True
        best_res = np.inf
        for i in active:
            quad, box = g.pieces[i]
            piece_part = box if box is not None else Zero()
            piece_grad = grad + quad.gradient(x)
            best_res = min(best_res, _residual_against(piece_part, x, piece_grad,
                                                       active_tol))
        stat = float(best_res)
    else:
        stat = _residual_against(g, x, grad, active_tol, complementarity)

    return KKTReport(stat, feas, complementarity, flag)


def _residual_against(g, x, grad, active_tol, complementarity=None) -> float:
    """Norm of the residual of -grad against the subdifferential of g at x.

    A box indicator goes through its normal cone, with active bounds
    detected within active_tol, and records each active coordinate in
    `complementarity` when one is given; other kinds go through their
    per-coordinate subgradient intervals.
    """
    if isinstance(g, BoxIndicator):
        res = np.empty_like(x)
        scale = max(1.0, float(np.abs(x).max()))
        for i in range(x.shape[0]):
            at_lo = np.isfinite(g.lower[i]) and x[i] <= g.lower[i] + active_tol * scale
            at_hi = np.isfinite(g.upper[i]) and x[i] >= g.upper[i] - active_tol * scale
            if at_lo and at_hi:
                res[i], side = 0.0, "fixed"
            elif at_lo:
                res[i], side = max(0.0, -grad[i]), "lower"
            elif at_hi:
                res[i], side = max(0.0, grad[i]), "upper"
            else:
                res[i] = abs(grad[i])
                continue
            if complementarity is not None:
                complementarity[i] = (side, float(grad[i]))
        return float(np.linalg.norm(res))
    interval = g.subgradient_interval(x)
    if interval is None:
        raise NotImplementedError(f"no subdifferential description for {type(g)}")
    lo, hi = interval
    target = -grad
    res = np.maximum(lo - target, 0.0) + np.maximum(target - hi, 0.0)
    return float(np.linalg.norm(res))


def finite_diff_check(f: Callable[[np.ndarray], float], grad,
                      x, h: float = 1e-6) -> float:
    """Max relative error between analytic gradient and central differences."""
    x = _vec(x)
    grad = _vec(grad(x)) if callable(grad) else _vec(grad)
    fd = np.empty_like(x)
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = h
        fd[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    denom = max(1.0, float(np.linalg.norm(grad)))
    return float(np.linalg.norm(fd - grad)) / denom


@dataclass
class RateFit:
    """Fitted decay law of a positive trace column."""

    kind: str            # "linear" (geometric) or "sublinear" (power law)
    rate: float          # contraction factor tau, or the power of k
    r2: float


def rate_fit(values, burn_in: int = 0, min_points: int = 20) -> RateFit:
    """Classify decay as geometric or power-law by log-space least squares.

    Fits log y against k (geometric: y ~ tau^k) and against log k (power law:
    y ~ k^p) on the positive entries after burn_in, and returns whichever has
    the better r^2. Raises InsufficientData below min_points samples.
    """
    y = np.asarray(values, dtype=float)[burn_in:]
    k = np.arange(burn_in, burn_in + y.shape[0], dtype=float)
    mask = np.isfinite(y) & (y > 0) & (k > 0)
    y, k = y[mask], k[mask]
    if y.shape[0] < min_points:
        raise InsufficientData(f"{y.shape[0]} positive points, need {min_points}")
    logy = np.log(y)

    def fit(xs):
        coef = np.polyfit(xs, logy, 1)
        pred = np.polyval(coef, xs)
        ss_res = float(np.sum((logy - pred) ** 2))
        ss_tot = float(np.sum((logy - logy.mean()) ** 2))
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
        return coef[0], r2

    slope_lin, r2_lin = fit(k)
    slope_sub, r2_sub = fit(np.log(k))
    if r2_lin >= r2_sub:
        return RateFit("linear", float(np.exp(slope_lin)), r2_lin)
    return RateFit("sublinear", float(slope_sub), r2_sub)
