"""Constrained-problem data model and the proximal-operator catalog.

A problem is `minimize f(x) subject to Ax = b` with f weakly convex. The
objective is either a single prox-friendly part g, or a composite h + g with
h smooth (Lipschitz gradient) and g prox-friendly. Every catalog function
exposes an exact proximal map, valid for gamma < 1/rho where rho is the
function's weak-convexity modulus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import AllZeroMatrix, GammaTooLarge, MissingMetadata, NonFiniteValue

__all__ = [
    "LinearConstraint",
    "ImplicitClass",
    "ProxFunction",
    "Zero",
    "QuadraticForm",
    "BoxIndicator",
    "L1",
    "SCAD",
    "MCP",
    "PointwiseMin",
    "SmoothFunction",
    "QuadraticSmooth",
    "Problem",
    "prox",
    "moreau_value_grad",
    "objective_value",
    "smallest_positive_eigenvalue",
    "probe_implicit_class",
]


_FEASIBILITY_TOL = 1e-8       # feasibility_probe's relative least-squares residual
_RANK_TOL = 1e-10             # eigenvalues at or below this times the largest are zero
_BOX_PROX_TOL = 1e-12         # _box_quad_prox's step-length stopping rule
_BOX_PROX_MAX_ITER = 200_000  # and its iteration cap


_FLOAT = np.dtype(float)


def _vec(v) -> np.ndarray:
    """v as a float vector (a scalar becomes length 1). The per-step callers
    skip it for a v that already is one, a 1-D ndarray with dtype _FLOAT,
    which it would return unchanged."""
    out = np.asarray(v, dtype=float)
    if out.ndim == 0:
        out = out.reshape(1)
    return out


# ---------------------------------------------------------------------------
# constraint
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearConstraint:
    """Equality constraint Ax = b with dense A (m x n)."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = _vec(self.b)
        if A.shape[0] < 1 or A.shape[1] < 1:
            raise ValueError("A must be at least 1x1")
        if b.shape[0] != A.shape[0]:
            raise ValueError(f"b has {b.shape[0]} rows, A has {A.shape[0]}")
        if not (np.isfinite(A).all() and np.isfinite(b).all()):
            raise ValueError("A and b must be finite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    def residual(self, x) -> float:
        return float(np.linalg.norm(self.A @ _vec(x) - self.b))

    @cached_property
    def gram_spectrum(self) -> tuple[float, float]:
        """(||A||_2^2, smallest positive eigenvalue of A'A by the rule of
        smallest_positive_eigenvalue), from one eigendecomposition of the
        smaller of AA' and A'A, which share their nonzero eigenvalues.
        Formed on first use and kept."""
        A = self.A
        eigs = np.linalg.eigvalsh(A @ A.T if self.m <= self.n else A.T @ A)
        return float(eigs.max()), _smallest_positive(eigs)

    def feasibility_probe(self) -> tuple[bool, float]:
        """Least-squares check that Ax = b admits a solution.

        Returns (ok, residual) where residual is ||A x_ls - b|| at the
        least-squares point, relative to max(1, ||b||), and ok means it is
        at most _FEASIBILITY_TOL = 1e-8.
        """
        x_ls, *_ = np.linalg.lstsq(self.A, self.b, rcond=None)
        res = self.residual(x_ls) / max(1.0, float(np.linalg.norm(self.b)))
        return res <= _FEASIBILITY_TOL, res


# ---------------------------------------------------------------------------
# implicit regularity metadata
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImplicitClass:
    """Declared regularity of the envelope-gradient selection of a subgradient.

    kind is one of "lipschitz" (constant = L), "bounded" (constant = L-hat)
    or "unknown". This is user metadata, not a certified property; see
    `probe_implicit_class` for an empirical sampling check.
    """

    kind: str
    constant: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("lipschitz", "bounded", "unknown"):
            raise ValueError(f"unknown implicit class kind {self.kind!r}")
        if self.kind != "unknown" and (self.constant is None or self.constant < 0):
            raise ValueError("lipschitz/bounded classes need a nonnegative constant")

    @staticmethod
    def lipschitz(L: float) -> "ImplicitClass":
        return ImplicitClass("lipschitz", float(L))

    @staticmethod
    def bounded(L_hat: float) -> "ImplicitClass":
        return ImplicitClass("bounded", float(L_hat))

    @staticmethod
    def unknown() -> "ImplicitClass":
        return ImplicitClass("unknown")


# ---------------------------------------------------------------------------
# prox catalog
# ---------------------------------------------------------------------------


class ProxFunction:
    """A weakly convex function with value and exact proximal map.

    Kinds that may be nonconvex compute `weak_convexity_modulus` (rho >= 0);
    convex kinds keep the class value 0. Subclasses implement `value` and
    `_prox`. Prox queries with gamma >= 1/rho are rejected: uniqueness of
    the minimizer is only guaranteed below that.
    """

    weak_convexity_modulus: float = 0.0
    implicit_class: ImplicitClass = ImplicitClass.unknown()

    def value(self, x) -> float:
        raise NotImplementedError

    def _prox(self, gamma: float, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def prox(self, gamma: float, v) -> np.ndarray:
        """Unique minimizer of g(x) + ||x - v||^2 / (2 gamma); NonFiniteValue
        unless v is finite."""
        self.check_gamma(gamma)
        if type(v) is not np.ndarray or v.ndim != 1 or v.dtype != _FLOAT:
            v = _vec(v)
        if not np.logical_and.reduce(np.isfinite(v)):
            raise NonFiniteValue("prox input must be finite")
        return self._prox(float(gamma), v)

    def check_gamma(self, gamma: float) -> None:
        rho = self.weak_convexity_modulus
        if gamma <= 0:
            raise GammaTooLarge(f"gamma must be positive, got {gamma}")
        if rho > 0 and gamma >= 1.0 / rho:
            raise GammaTooLarge(
                f"gamma={gamma} >= 1/rho={1.0 / rho:.6g}; prox may be set-valued"
            )

    def subgradient_interval(self, x) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """Per-coordinate [lo, hi] bounds on the subdifferential, or None.

        Only separable kinds implement this; it backs the KKT residual
        computation. Indicator kinds return None (handled via normal cones).
        """
        return None

    def gradient(self, x) -> Optional[np.ndarray]:
        """Exact gradient for differentiable kinds, else None."""
        return None


@dataclass
class Zero(ProxFunction):
    """The zero function; prox is the identity (envelope gradient is 0)."""

    implicit_class: ImplicitClass = field(
        default_factory=lambda: ImplicitClass.lipschitz(0.0)
    )

    def value(self, x) -> float:
        return 0.0

    def _prox(self, gamma, v):
        return v.copy()

    def subgradient_interval(self, x):
        x = _vec(x)
        z = np.zeros_like(x)
        return z, z

    def gradient(self, x):
        return np.zeros_like(_vec(x))


@dataclass
class QuadraticForm(ProxFunction):
    """g(x) = x'Qx/2 + r'x + c with symmetric Q (possibly indefinite); one
    eigendecomposition gives its modulus, `spectral_norm` = ||Q||_2 and the
    extreme eigenvalues `eig_min` and `eig_max`. The symmetry check holds one
    n x n scratch array, dropped before the decomposition."""

    Q: np.ndarray = None
    r: np.ndarray = None
    c: float = 0.0
    implicit_class: ImplicitClass = field(default_factory=ImplicitClass.unknown)

    def __post_init__(self):
        self.Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        n = self.Q.shape[0]
        if self.Q.shape != (n, n):
            raise ValueError("Q must be square")
        D = self.Q - self.Q.T                       # one n x n scratch, freed
        asym = np.abs(D, out=D).max()               # before eigvalsh copies Q
        scale = max(1.0, np.abs(self.Q, out=D).max())
        del D
        if asym > 1e-12 * scale:
            raise ValueError("Q must be symmetric")
        self.r = _vec(self.r) if self.r is not None else np.zeros(n)
        if self.r.shape != (n,):
            raise ValueError("r dimension mismatch")
        eigs = np.linalg.eigvalsh(self.Q)
        self.eig_min, self.eig_max = float(eigs.min()), float(eigs.max())
        self.weak_convexity_modulus = max(0.0, -self.eig_min)
        self.spectral_norm = float(np.abs(eigs).max())
        if self.implicit_class.kind == "unknown":
            self.implicit_class = ImplicitClass.lipschitz(self.spectral_norm)

    def value(self, x) -> float:
        if type(x) is not np.ndarray or x.ndim != 1 or x.dtype != _FLOAT:
            x = _vec(x)
        return float((0.5 * x).dot(self.Q).dot(x) + self.r.dot(x) + self.c)

    def _prox(self, gamma, v):
        n = self.Q.shape[0]
        return np.linalg.solve(self.Q + np.eye(n) / gamma, v / gamma - self.r)

    def gradient(self, x):
        if type(x) is not np.ndarray or x.ndim != 1 or x.dtype != _FLOAT:
            x = _vec(x)
        return self.Q.dot(x) + self.r

    def subgradient_interval(self, x):
        g = self.gradient(x)
        return g, g.copy()


_INF = float("inf")


@dataclass
class BoxIndicator(ProxFunction):
    """Indicator of the box [lower, upper]; prox is coordinate-wise clipping.

    Infinite entries encode one-sided or absent bounds.
    """

    lower: np.ndarray = None
    upper: np.ndarray = None
    implicit_class: ImplicitClass = field(default_factory=ImplicitClass.unknown)

    def __post_init__(self):
        self.lower = _vec(self.lower)
        self.upper = _vec(self.upper)
        if self.lower.shape != self.upper.shape:
            raise ValueError("bound shapes differ")
        if np.any(self.lower > self.upper):
            raise ValueError("lower > upper leaves an empty domain")

    def value(self, x) -> float:
        if type(x) is not np.ndarray or x.ndim != 1 or x.dtype != _FLOAT:
            x = _vec(x)
        if np.logical_and.reduce(x >= self.lower) and np.logical_and.reduce(x <= self.upper):
            return 0.0
        return _INF

    def _prox(self, gamma, v):
        # np.clip's bits, without its Python wrapper
        return np.minimum(np.maximum(v, self.lower), self.upper)


@dataclass
class L1(ProxFunction):
    """g(x) = weight * ||x||_1; prox is the soft-threshold."""

    weight: float = 1.0
    implicit_class: ImplicitClass = field(default_factory=ImplicitClass.unknown)

    def __post_init__(self):
        if self.weight < 0:
            raise ValueError("weight must be nonnegative")
        if self.implicit_class.kind == "unknown":
            self.implicit_class = ImplicitClass.bounded(self.weight)

    def value(self, x) -> float:
        return float(self.weight * np.abs(_vec(x)).sum())

    def _prox(self, gamma, v):
        t = gamma * self.weight
        return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)

    def subgradient_interval(self, x):
        x = _vec(x)
        w = self.weight
        lo = np.where(x > 0, w, np.where(x < 0, -w, -w))
        hi = np.where(x > 0, w, np.where(x < 0, -w, w))
        return lo.astype(float), hi.astype(float)


@dataclass
class SCAD(ProxFunction):
    """Smoothly clipped absolute deviation penalty, coordinate-separable.

    Piecewise on t = |x_i|: lam*t for t <= lam, then the concave quadratic
    blend (2*a*lam*t - t^2 - lam^2) / (2(a-1)) up to a*lam, constant
    lam^2 (a+1)/2 beyond. Weakly convex with modulus 1/(a-1). The prox
    closed form below is certified against the grid oracle in the tests.
    """

    lam: float = 1.0
    a: float = 3.7
    implicit_class: ImplicitClass = field(default_factory=ImplicitClass.unknown)

    def __post_init__(self):
        if self.lam <= 0 or self.a <= 2:
            raise ValueError("SCAD needs lam > 0 and a > 2")
        self.weak_convexity_modulus = 1.0 / (self.a - 1.0)
        if self.implicit_class.kind == "unknown":
            self.implicit_class = ImplicitClass.bounded(self.lam)

    def value(self, x) -> float:
        t = np.abs(_vec(x))
        lam, a = self.lam, self.a
        mid = (2 * a * lam * t - t * t - lam * lam) / (2 * (a - 1))
        out = np.where(
            t <= lam, lam * t, np.where(t <= a * lam, mid, lam * lam * (a + 1) / 2)
        )
        return float(out.sum())

    def _prox(self, gamma, v):
        lam, a = self.lam, self.a
        t = np.abs(v)
        soft = np.sign(v) * np.maximum(t - gamma * lam, 0.0)
        blend = np.sign(v) * ((a - 1) * t - gamma * a * lam) / (a - 1 - gamma)
        return np.where(
            t <= lam * (1 + gamma), soft, np.where(t <= a * lam, blend, v)
        )

    def subgradient_interval(self, x):
        x = _vec(x)
        lam, a = self.lam, self.a
        t = np.abs(x)
        # derivative of the penalty on t, chain-ruled through sign(x)
        dpen = np.where(t <= lam, lam, np.where(t <= a * lam, (a * lam - t) / (a - 1), 0.0))
        g = np.sign(x) * dpen
        lo = np.where(x == 0, -lam, g)
        hi = np.where(x == 0, lam, g)
        return lo.astype(float), hi.astype(float)


@dataclass
class MCP(ProxFunction):
    """Minimax concave penalty, coordinate-separable.

    lam*t - t^2/(2a) for t = |x_i| <= a*lam, constant a*lam^2/2 beyond.
    Weakly convex with modulus 1/a.
    """

    lam: float = 1.0
    a: float = 3.0
    implicit_class: ImplicitClass = field(default_factory=ImplicitClass.unknown)

    def __post_init__(self):
        if self.lam <= 0 or self.a <= 0:
            raise ValueError("MCP needs lam > 0 and a > 0")
        self.weak_convexity_modulus = 1.0 / self.a
        if self.implicit_class.kind == "unknown":
            self.implicit_class = ImplicitClass.bounded(self.lam)

    def value(self, x) -> float:
        t = np.abs(_vec(x))
        lam, a = self.lam, self.a
        out = np.where(t <= a * lam, lam * t - t * t / (2 * a), a * lam * lam / 2)
        return float(out.sum())

    def _prox(self, gamma, v):
        lam, a = self.lam, self.a
        t = np.abs(v)
        shrink = np.sign(v) * (a * np.maximum(t - gamma * lam, 0.0)) / (a - gamma)
        return np.where(t <= a * lam, shrink, v)

    def subgradient_interval(self, x):
        x = _vec(x)
        lam, a = self.lam, self.a
        t = np.abs(x)
        dpen = np.where(t <= a * lam, lam - t / a, 0.0)
        g = np.sign(x) * dpen
        lo = np.where(x == 0, -lam, g)
        hi = np.where(x == 0, lam, g)
        return lo.astype(float), hi.astype(float)


@dataclass
class PointwiseMin(ProxFunction):
    """Pointwise minimum of quadratic-plus-box pieces.

    pieces is a sequence of (QuadraticForm, BoxIndicator-or-None). The prox
    solves each piece's prox and keeps the piece with the smallest regularized
    value; exact ties go to the smallest piece index. The weak-convexity
    modulus follows the 2*max||M_i|| bound for this function class.
    """

    pieces: Sequence[tuple] = ()
    implicit_class: ImplicitClass = field(default_factory=ImplicitClass.unknown)

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("PointwiseMin needs at least one piece")
        norm = 0.0
        for quad, box in self.pieces:
            if not isinstance(quad, QuadraticForm):
                raise ValueError("each piece needs a QuadraticForm part")
            if box is not None and not isinstance(box, BoxIndicator):
                raise ValueError("piece constraint must be a BoxIndicator")
            norm = max(norm, quad.spectral_norm)
        self.weak_convexity_modulus = 2.0 * norm

    def piece_value(self, i: int, x) -> float:
        quad, box = self.pieces[i]
        val = quad.value(x)
        if box is not None:
            val += box.value(x)
        return val

    def value(self, x) -> float:
        return min(self.piece_value(i, x) for i in range(len(self.pieces)))

    def _prox(self, gamma, v):
        best_val, best_x = _INF, None
        for i, (quad, box) in enumerate(self.pieces):
            if box is None:
                cand = quad._prox(gamma, v)
            else:
                cand = _box_quad_prox(quad, box, gamma, v)
            val = self.piece_value(i, cand) + float(np.sum((cand - v) ** 2)) / (2 * gamma)
            if val < best_val:  # strict: earlier index wins ties
                best_val, best_x = val, cand
        return best_x


def _box_quad_prox(quad: QuadraticForm, box: BoxIndicator, gamma: float, v: np.ndarray):
    """Prox of (quadratic + box indicator) by projected gradient.

    The regularized objective is strongly convex for valid gamma, so the
    iteration converges linearly; run until a step moves x by at most
    _BOX_PROX_TOL times the step length, or for _BOX_PROX_MAX_ITER steps. The
    step is 1/||Q + I/gamma||_2, read off Q's stored extreme eigenvalues.
    """
    n = v.shape[0]
    H = quad.Q + np.eye(n) / gamma
    c = quad.r - v / gamma
    t = 1.0 / max(abs(quad.eig_min + 1.0 / gamma), abs(quad.eig_max + 1.0 / gamma))
    x = np.clip(v, box.lower, box.upper)
    for _ in range(_BOX_PROX_MAX_ITER):
        g = H @ x + c
        x_new = np.clip(x - t * g, box.lower, box.upper)
        if np.linalg.norm(x_new - x) <= _BOX_PROX_TOL * t:
            return x_new
        x = x_new
    return x


# ---------------------------------------------------------------------------
# smooth part
# ---------------------------------------------------------------------------


@dataclass
class SmoothFunction:
    """Differentiable objective part with a Lipschitz gradient constant. Its
    gradient may return any float sequence; Problem.smooth_gradient converts it once."""

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    lipschitz_grad_constant: float

    def __post_init__(self):
        if self.lipschitz_grad_constant <= 0:
            raise ValueError("lipschitz_grad_constant must be positive")

    def quadratic_terms(self) -> Optional[tuple[np.ndarray, np.ndarray, float]]:
        """(Q, r, c) when the function is known quadratic, else None."""
        return None


class QuadraticSmooth(SmoothFunction):
    """h(x) = x'Qx/2 + r'x + c with L_h = ||Q||_2: a QuadraticForm, which
    checks Q and r and decomposes Q once, in the smooth role."""

    def __init__(self, Q, r=None, c: float = 0.0):
        form = QuadraticForm(Q, r, float(c))
        self.Q, self.r, self.c = form.Q, form.r, form.c
        super().__init__(form.value, form.gradient,
                         max(form.spectral_norm, np.finfo(float).tiny))

    def quadratic_terms(self):
        return self.Q, self.r, self.c


# ---------------------------------------------------------------------------
# problem
# ---------------------------------------------------------------------------


@dataclass
class Problem:
    """Linearly constrained minimization of g or h + g."""

    constraint: LinearConstraint
    prox_part: ProxFunction
    smooth: Optional[SmoothFunction] = None

    def __post_init__(self):
        ok, res = self.constraint.feasibility_probe()
        if not ok:
            raise ValueError(
                f"constraint looks infeasible: least-squares residual {res:.3e}"
            )
        if not np.isfinite(self.rho_total):
            raise ValueError("total weak-convexity modulus must be finite")
        # box bounds, Q and r would otherwise broadcast against x
        g = self.prox_part
        parts = [p for piece in g.pieces for p in piece] \
            if isinstance(g, PointwiseMin) else [g]
        for part in parts + [self.smooth]:
            if isinstance(part, BoxIndicator):
                shape = part.lower.shape
            elif isinstance(part, (QuadraticForm, QuadraticSmooth)):
                shape = part.r.shape          # r has Q's order by construction
            else:
                continue
            if shape != (self.n,):
                raise ValueError(f"{type(part).__name__} has shape {shape}, "
                                 f"the constraint has n={self.n}")

    @property
    def composite(self) -> bool:
        return self.smooth is not None

    @property
    def n(self) -> int:
        return self.constraint.n

    @property
    def m(self) -> int:
        return self.constraint.m

    @property
    def rho_g(self) -> float:
        return self.prox_part.weak_convexity_modulus

    @property
    def L_h(self) -> float:
        return self.smooth.lipschitz_grad_constant if self.composite else 0.0

    @property
    def rho_total(self) -> float:
        """Weak-convexity modulus of the full objective."""
        return self.rho_g + self.L_h

    def implicit_lipschitz_constant(self) -> float:
        """Declared L for the full objective's envelope-gradient selection.

        Composite objectives compose the declared L_g with L_h.
        """
        cls = self.prox_part.implicit_class
        if cls.kind != "lipschitz":
            raise MissingMetadata(
                "L_f", "prox part does not declare the implicit Lipschitz class"
            )
        return cls.constant + self.L_h

    def quadratic_terms(self) -> Optional[tuple[np.ndarray, np.ndarray, float]]:
        """(Q, r, c) of a quadratic smooth part h, or of g when g is a
        QuadraticForm and there is no smooth part; None otherwise."""
        if self.composite:
            return self.smooth.quadratic_terms()
        g = self.prox_part
        return (g.Q, g.r, g.c) if isinstance(g, QuadraticForm) else None

    def box_bounds(self) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """(lower, upper) of a box prox part, infinite bounds when the prox
        part is Zero, None for any other prox part."""
        g = self.prox_part
        if isinstance(g, BoxIndicator):
            return g.lower, g.upper
        if isinstance(g, Zero):
            return np.full(self.n, -_INF), np.full(self.n, _INF)
        return None

    def objective_value(self, x) -> float:
        if type(x) is not np.ndarray or x.ndim != 1 or x.dtype != _FLOAT:
            x = _vec(x)
        val = self.prox_part.value(x)
        if self.composite:
            val = val + self.smooth.value(x)
        return float(val)

    def smooth_gradient(self, x) -> np.ndarray:
        """h's gradient at x as a float vector; the one call of smooth.gradient."""
        if self.smooth is None:
            return np.zeros(self.n)
        if type(x) is not np.ndarray or x.ndim != 1 or x.dtype != _FLOAT:
            x = _vec(x)
        g = self.smooth.gradient(x)
        return g if type(g) is np.ndarray and g.ndim == 1 and g.dtype == _FLOAT else _vec(g)


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def prox(g: ProxFunction, gamma: float, v) -> np.ndarray:
    """Proximal map of g at v with parameter gamma (gamma < 1/rho strictly)."""
    return g.prox(gamma, v)


def moreau_value_grad(g: ProxFunction, gamma: float, v):
    """Moreau envelope value, gradient and prox point at v.

    value = g(p) + ||p - v||^2 / (2 gamma)  with p = prox(g, gamma, v),
    grad  = (v - p) / gamma.
    """
    v = _vec(v)
    p = g.prox(gamma, v)
    val = g.value(p) + float(np.sum((p - v) ** 2)) / (2.0 * gamma)
    grad = (v - p) / gamma
    return val, grad, p


def objective_value(problem: Problem, x) -> float:
    """f(x) = h(x) + g(x) (or g(x) for pure problems); +inf outside dom g."""
    return problem.objective_value(x)


def smallest_positive_eigenvalue(M) -> float:
    """Smallest eigenvalue of symmetric PSD M above _RANK_TOL * largest.

    The threshold is relative; eigenvalues at or below it count as numerical
    zeros. Raises AllZeroMatrix when nothing clears it.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if np.abs(M - M.T).max() > 1e-12 * max(1.0, np.abs(M).max()):
        raise ValueError("matrix must be symmetric")
    return _smallest_positive(np.linalg.eigvalsh(M))


def _smallest_positive(eigs: np.ndarray) -> float:
    """smallest_positive_eigenvalue's rule, on eigenvalues already computed."""
    cutoff = _RANK_TOL * max(float(eigs.max()), 0.0)
    positive = eigs[eigs > cutoff]
    if positive.size == 0:
        raise AllZeroMatrix("no eigenvalue clears the rank threshold")
    return float(positive.min())


def probe_implicit_class(g: ProxFunction, gamma: float, n_samples: int = 200,
                         radius: float = 10.0, seed: int = 0):
    """Empirical estimate of the envelope-gradient regularity constants.

    Samples pre-images w, computes prox points u = prox(w) and envelope
    gradients, and reports the max gradient norm (bounded-class estimate) and
    the max ratio ||grad_i - grad_j|| / ||u_i - u_j|| (Lipschitz-class
    estimate). A sampling probe only, not a certificate.
    """
    rng = np.random.default_rng(seed)
    n = 1
    ws = rng.uniform(-radius, radius, size=(n_samples, n))
    grads, us = [], []
    for w in ws:
        _, grad, p = moreau_value_grad(g, gamma, w)
        grads.append(grad)
        us.append(p)
    grads = np.array(grads)
    us = np.array(us)
    max_norm = float(np.linalg.norm(grads, axis=1).max())
    best = 0.0
    for i in range(n_samples):
        du = np.linalg.norm(us - us[i], axis=1)
        dg = np.linalg.norm(grads - grads[i], axis=1)
        mask = du > 1e-9
        if mask.any():
            best = max(best, float((dg[mask] / du[mask]).max()))
    return {"bounded_estimate": max_norm, "lipschitz_estimate": best}
