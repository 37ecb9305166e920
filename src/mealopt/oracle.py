"""Independent brute-force oracles and numerical certifiers.

Everything here validates the closed forms and solver outputs by a second,
slower route: grid search for 1-D proxes, exhaustive active-set enumeration
for small box-QPs, interval arithmetic for KKT residuals, finite differences
for gradients, and least-squares fits for convergence rates. These functions
share no code with the MEAL-family solver paths they certify. The ALM
baseline is the exception: it shares the box-QP face enumeration (`BoxFaces`,
prepared once per run, solved each step by `box_qp_global_min`), so no
oracle here certifies ALM.
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
    "BoxFaces",
    "box_qp_faces",
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
_FEAS_TOL = 1e-8      # ||Ax - b|| a face's point may leave
_BOUND_TOL = 1e-9     # bound violation and wrong-signed bound residual allowed
_ACTIVE_TOL = 1e-9    # kkt_residual's active-bound test, relative to max(1, max |x_i|)
_MIN_FIT_POINTS = 20  # rate_fit's fewest positive samples
_SIDES = np.array([None, "lower", "upper", "fixed"], dtype=object)  # by at_lo + 2 at_hi


def grid_prox_oracle(g_1d: Callable[[float], float], gamma: float, v,
                     half_range: float = 10.0, step: float = 1e-4) -> float | np.ndarray:
    """Brute-force 1-D prox: grid argmin plus one ternary-search refinement.

    Minimizes g(t) + (t - v)^2 / (2 gamma) over [-half_range, half_range],
    for a scalar v (a float back) or for each entry of a 1-D array of v (an
    array back); g is evaluated on the grid once. `float_power` squares with
    the C pow, as the scalar `(t - v) ** 2` does (the array `** 2` multiplies
    and may differ in the last bit), so every grid value is the one a scalar
    loop forms. The refinement stops once an iteration leaves (lo, hi)
    unchanged: every later one would repeat it. Raises RangeTooSmall when an
    argmin lands on the interval boundary.
    """
    ts = np.arange(-half_range, half_range + step, step)
    gs = np.array([g_1d(t) for t in ts], dtype=float)
    out = []
    for vi in np.atleast_1d(np.asarray(v, dtype=float)):
        vals = gs + np.float_power(ts - vi, 2) / (2.0 * gamma)
        i = int(np.argmin(vals))
        if i == 0 or i == len(ts) - 1:
            raise RangeTooSmall(f"argmin at grid boundary t={ts[i]}")
        obj = lambda t: g_1d(t) + (t - vi) ** 2 / (2.0 * gamma)
        lo, hi = ts[i - 1], ts[i + 1]
        for _ in range(200):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            new = (lo, m2) if obj(m1) < obj(m2) else (m1, hi)
            if new == (lo, hi):
                break
            lo, hi = new
        out.append(float(0.5 * (lo + hi)))
    return out[0] if np.ndim(v) == 0 else np.array(out)


class BoxFaces:
    """`active_set_qp_oracle`'s enumeration, prepared from (Q, A, lower, upper)
    for any (r, b): per pattern, its free mask, the point holding the clamped
    values, the KKT matrix [[Q_FF, A_F'], [A_F, 0]] and Q_FC x_C and A_C x_C."""

    def __init__(self, Q, A, lower, upper):
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        n = Q.shape[0]
        if n > ACTIVE_SET_MAX_N:
            raise ValueError(f"active-set oracle capped at n={ACTIVE_SET_MAX_N}")
        A = np.atleast_2d(np.asarray(np.zeros((0, n)) if A is None else A, dtype=float))
        self.Q, self.A, self.lower, self.upper = Q, A, _vec(lower), _vec(upper)
        m = A.shape[0]
        # per-coordinate states 0 = at lower, 1 = at upper, 2 = free; an
        # infinite bound cannot be active, so its state is dropped
        states = [[s for s, bound in ((0, lo), (1, hi)) if np.isfinite(bound)] + [2]
                  for lo, hi in zip(self.lower, self.upper)]
        self.faces = []
        for pattern in map(np.array, itertools.product(*states)):
            free = pattern == 2
            F, C = np.flatnonzero(free), np.flatnonzero(~free)
            x = np.where(pattern == 0, self.lower, self.upper)  # free entries: solved
            nf = F.size
            K = np.zeros((nf + m, nf + m))
            K[:nf, :nf] = Q[np.ix_(F, F)]
            K[:nf, nf:] = A[:, F].T
            K[nf:, :nf] = A[:, F]
            QC, AC = (Q[np.ix_(F, C)] @ x[C], A[:, C] @ x[C]) if C.size else (0.0, 0.0)
            self.faces.append((free, pattern == 0, pattern == 1, x, K, QC, AC))

    def solve(self, r, b=None):
        """`active_set_qp_oracle`'s result for r (None is zero) and b (unused
        without A). Without A, Ax = b holds trivially and is not checked."""
        Q, A, m = self.Q, self.A, self.A.shape[0]
        r = _vec(r) if r is not None else np.zeros(Q.shape[0])
        b = _vec(b) if m else np.zeros(0)
        below, above = self.lower - _BOUND_TOL, self.upper + _BOUND_TOL
        points, multipliers, n_singular = [], [], 0
        for free, at_lower, at_upper, x_clamped, K, QC, AC in self.faces:
            nf = K.shape[0] - m
            rhs = np.concatenate((-r[free] - QC, b - AC))
            try:
                sol = np.linalg.solve(K, rhs) if K.size else np.zeros(0)
            except np.linalg.LinAlgError:
                sol = None
            if sol is None or not np.logical_and.reduce(np.isfinite(sol)):
                n_singular += 1
                continue
            x = x_clamped.copy()
            x[free], mu = sol[:nf], sol[nf:]
            if np.logical_or.reduce(x < below) or np.logical_or.reduce(x > above):
                continue
            grad = Q @ x + r + A.T @ mu
            # at lower the residual must push up, at upper down; free: zero
            # ufunc reductions: ndarray.any() and .max() run numpy's Python wrappers
            if (np.logical_or.reduce(grad[at_lower] < -_BOUND_TOL)
                    or np.logical_or.reduce(grad[at_upper] > _BOUND_TOL)
                    or np.logical_or.reduce(np.abs(grad[free]) > 1e-7 * max(
                        1.0, np.maximum.reduce(np.abs(grad))))):
                continue
            if m and np.linalg.norm(A @ x - b) > _FEAS_TOL:
                continue
            # degenerate patterns rediscover the same point; keep the first
            if any(np.linalg.norm(x - p) <= 1e-8 for p in points):
                continue
            points.append(x)
            multipliers.append(mu)
        return points, multipliers, n_singular


def active_set_qp_oracle(Q, r, A, b, lower, upper):
    """Enumerate stationary points of a small box-QP by active-set patterns.

    Problem: min x'Qx/2 + r'x  s.t.  Ax = b (optional), lower <= x <= upper.
    All 3^n lower/upper/free patterns are tried in lexicographic order; each
    yields an equality-constrained KKT solve on the free coordinates. Points
    are kept when they satisfy the bounds and the multiplier signs within
    _BOUND_TOL = 1e-9, and Ax = b within _FEAS_TOL = 1e-8. Returns (points,
    multipliers, n_singular_skipped); multipliers are the equality-constraint
    duals (empty vector when A is None).
    """
    return BoxFaces(Q, A, lower, upper).solve(r, b)


def check_free_curvature(H, lower, upper) -> None:
    """Raise SubproblemNonconvexUnsupported unless H is positive definite on
    the coordinates without two finite bounds; otherwise x'Hx/2 + c'x may be
    unbounded below over the box."""
    unbounded = ~(np.isfinite(lower) & np.isfinite(upper))
    if unbounded.any() and np.linalg.eigvalsh(H[np.ix_(unbounded, unbounded)]).min() <= 0:
        raise SubproblemNonconvexUnsupported(
            "objective unbounded below along a free coordinate direction")


def box_qp_faces(H, lower, upper) -> BoxFaces:
    """The prepared faces of x'Hx/2 + c'x over a box, for `box_qp_global_min`.
    H may be indefinite, but must be positive definite on the coordinates with
    an infinite bound; SubproblemNonconvexUnsupported otherwise, or above the cap."""
    H = np.atleast_2d(np.asarray(H, dtype=float))
    if H.shape[0] > ACTIVE_SET_MAX_N:
        raise SubproblemNonconvexUnsupported(
            f"global box-QP oracle capped at n={ACTIVE_SET_MAX_N}")
    check_free_curvature(H, _vec(lower), _vec(upper))
    return BoxFaces(H, None, lower, upper)


def box_qp_global_min(faces: BoxFaces, c):
    """Global minimizer of x'Hx/2 + c'x over the box of `faces` (A-free
    BoxFaces, as from `box_qp_faces`), and its value: the lowest-value KKT
    point the faces' enumeration finds; the first of them wins exact ties."""
    c = _vec(c)
    points, _, _ = faces.solve(c)
    if not points:
        raise SubproblemNonconvexUnsupported("no feasible stationary point found")
    values = [float(0.5 * x @ faces.Q @ x + c @ x) for x in points]
    best = values.index(min(values))
    return np.minimum(np.maximum(points[best], faces.lower), faces.upper), values[best]


@dataclass
class KKTReport:
    """First-order stationarity certificate at (x, lambda)."""

    stationarity_residual: float
    feasibility: float
    complementarity: dict = field(default_factory=dict)
    nonsmooth_flag: bool = False

    def __post_init__(self):
        assert self.stationarity_residual >= 0 and self.feasibility >= 0


def kkt_residual(problem: Problem, x, lam) -> KKTReport:
    """Upper bound on dist(0, grad h(x) + A'lam + subdiff g(x)), plus ||Ax-b||.

    Box indicators are handled through normal cones, a bound counting as
    active within _ACTIVE_TOL = 1e-9 times max(1, max |x_i|), and the report's
    `complementarity` maps each active coordinate to its side and gradient
    entry; separable kinds go through per-coordinate subgradient intervals.
    PointwiseMin near a piece crossing gets a conservative min-over-pieces
    bound and a nonsmooth flag.
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
            best_res = min(best_res, _residual_against(piece_part, x, piece_grad))
        stat = float(best_res)
    else:
        stat = _residual_against(g, x, grad, complementarity)

    return KKTReport(stat, feas, complementarity, flag)


def _residual_against(g, x, grad, complementarity=None) -> float:
    """Norm of the residual of -grad against the subdifferential of g at x.

    A box indicator goes through its normal cone, a finite bound active
    within _ACTIVE_TOL * max(1, max |x_i|), and records each active i as
    complementarity[i] = (side, grad_i) when a dict is given; other kinds go
    through their per-coordinate subgradient intervals.
    """
    if isinstance(g, BoxIndicator):
        tol = _ACTIVE_TOL * max(1.0, float(np.abs(x).max()))
        at_lo = np.isfinite(g.lower) & (x <= g.lower + tol)
        at_hi = np.isfinite(g.upper) & (x >= g.upper - tol)
        side = at_lo + 2 * at_hi                    # 0 free, 1 lower, 2 upper, 3 fixed
        # fmax, like max(0, .), takes a NaN to 0
        res = np.choose(side, (np.abs(grad), np.fmax(-grad, 0.0), np.fmax(grad, 0.0), 0.0))
        if complementarity is not None:
            active = np.flatnonzero(side)
            complementarity.update(zip(active.tolist(), zip(
                _SIDES[side[active]].tolist(), grad[active].tolist())))
    else:
        interval = g.subgradient_interval(x)
        if interval is None:
            raise NotImplementedError(f"no subdifferential description for {type(g)}")
        lo, hi = interval
        target = -grad
        res = np.maximum(lo - target, 0.0) + np.maximum(target - hi, 0.0)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(res)
        if norm == np.inf and np.isfinite(res).all():     # the squares overflowed
            big = np.abs(res).max()
            norm = big * np.linalg.norm(res / big)
    return float(norm)


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


def rate_fit(values, burn_in: int = 0) -> RateFit:
    """Classify decay as geometric or power-law by log-space least squares.

    Fits log y against k (geometric: y ~ tau^k) and against log k (power law:
    y ~ k^p) on the positive entries after burn_in, and returns whichever has
    the better r^2. Raises InsufficientData below _MIN_FIT_POINTS = 20 samples.
    """
    y = np.asarray(values, dtype=float)[burn_in:]
    k = np.arange(burn_in, burn_in + y.shape[0], dtype=float)
    mask = np.isfinite(y) & (y > 0) & (k > 0)
    y, k = y[mask], k[mask]
    if y.shape[0] < _MIN_FIT_POINTS:
        raise InsufficientData(f"{y.shape[0]} positive points, need {_MIN_FIT_POINTS}")
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
