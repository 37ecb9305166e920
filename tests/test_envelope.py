import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mealopt as m
from mealopt import envelope
from mealopt.envelope import (
    _VARIANTS,
    LYAPUNOV_COEFFICIENTS,
    EnvelopeContext,
    _rowdot,
    alpha_cap,
    alpha_from_beta,
    beta_for_target_alpha,
    lyapunov,
    potential_P,
    solve_subproblem,
    stationarity_stream,
)
from mealopt.errors import (
    GammaTooLarge,
    MissingMetadata,
    NonFiniteValue,
    NonPositiveAlpha,
    NotComposite,
    PenaltyOutOfRange,
    WindowTooShort,
)
from mealopt.oracle import active_set_qp_oracle, finite_diff_check
from tests.conftest import make_box_qp, make_convex_qp
from tests.test_golden_traces import platform_record


def plan_system(ctx, name):
    """The `_System` of the context's plan `name`, (exact_h, r, system, ...)."""
    return getattr(ctx, name)[2]


def zero_problem(n=2):
    return m.Problem(m.LinearConstraint(np.eye(n), np.zeros(n)), m.Zero())


class TestAugmentedLagrangian:
    def test_zero_everything(self):
        ctx = EnvelopeContext(zero_problem(), m.PenaltyPlan.fixed(7.0, 0.5, 1.0))
        st = m.IterateState([0.0, 0.0], [0.0, 0.0], [3.0, -1.0])
        assert m.augmented_lagrangian(ctx, st) == 0.0

    def test_exp1_hand_value(self, exp1_problem):
        ctx = EnvelopeContext(exp1_problem, m.PenaltyPlan.fixed(50.0, 0.25, 1.0))
        # f(1,0) = 1, residual 1, lam = 0: 1 + 25
        st = m.IterateState([1.0, 0.0], [1.0, 0.0], [0.0])
        assert m.augmented_lagrangian(ctx, st) == pytest.approx(26.0)

    def test_feasible_point_ignores_penalty(self, exp1_problem):
        for lam, beta in [(0.0, 1.0), (5.0, 400.0), (-3.0, 17.0)]:
            ctx = EnvelopeContext(exp1_problem, m.PenaltyPlan.fixed(beta, 0.25, 1.0))
            got = m.augmented_lagrangian(ctx, m.IterateState([0.3, 0.3], [0.3, 0.3], [lam]))
            assert got == pytest.approx(exp1_problem.objective_value([0.3, 0.3]),
                                        abs=1e-14)


class TestPotential:
    def test_reduces_to_lagrangian_when_z_is_x(self, exp1_problem):
        ctx = EnvelopeContext(exp1_problem, m.PenaltyPlan.fixed(50.0, 0.25, 1.0))
        st = m.IterateState([0.4, -0.2], [0.4, -0.2], [1.0])
        assert potential_P(ctx, st) == pytest.approx(m.augmented_lagrangian(ctx, st))

    def test_hand_value(self):
        ctx = EnvelopeContext(zero_problem(), m.PenaltyPlan.fixed(1.0, 0.5, 1.0))
        got = potential_P(ctx, m.IterateState([0.0, 0.0], [1.0, 0.0], [0.0, 0.0]))
        assert got == pytest.approx(1.0)

    def test_depends_only_on_residual_shift(self):
        # same residual Ax - b and same (x, z): identical potential
        p1 = m.Problem(m.LinearConstraint([[1.0, 0.0]], [0.0]), m.Zero())
        p2 = m.Problem(m.LinearConstraint([[1.0, 0.0]], [1.0]), m.Zero())
        plan = m.PenaltyPlan.fixed(3.0, 0.5, 1.0)
        c1 = EnvelopeContext(p1, plan)
        c2 = EnvelopeContext(p2, plan)
        x1, x2 = np.array([0.7, 0.1]), np.array([1.7, 0.1])
        z = np.array([0.0, 0.0])
        r1 = potential_P(c1, m.IterateState(x1, x1 - z, [2.0]))
        r2 = potential_P(c2, m.IterateState(x2, x2 - z, [2.0]))
        assert r1 == pytest.approx(r2, abs=1e-12)


class TestSolveSubproblem:
    def test_zero_fixed_point(self):
        ctx = EnvelopeContext(zero_problem(), m.PenaltyPlan.fixed(1.0, 0.5, 1.0))
        res = solve_subproblem(ctx, np.zeros(2), np.zeros(2))
        np.testing.assert_allclose(res.x, np.zeros(2), atol=1e-12)

    def test_one_dimensional_hand_solution(self):
        prob = m.Problem(m.LinearConstraint([[1.0]], [0.0]), m.QuadraticForm(Q=[[1.0]]))
        ctx = EnvelopeContext(prob, m.PenaltyPlan.fixed(1.0, 0.5, 1.0))
        res = solve_subproblem(ctx, [3.0], [0.0])
        # stationarity x + beta x + (x - z)/gamma = 0 with z=3: x = 6/4
        assert res.x[0] == pytest.approx(1.5, abs=1e-12)
        assert res.residual_norm == 0.0

    @staticmethod
    def _exp2_context(spec=None):
        # n = 6 and m = 2
        return EnvelopeContext(m.build_exp2(3, 2, 6), m.PenaltyPlan.fixed(50.0, 0.05, 1.0),
                               spec or m.InnerProxGradient())

    def test_a_z_of_the_wrong_length_is_rejected(self):
        # not broadcast to a solve at z = 0 in R^6
        ctx = self._exp2_context()
        with pytest.raises(ValueError, match=r"z has shape \(1,\); .* is \(6,\)"):
            solve_subproblem(ctx, [0.0], np.zeros(2))
        with pytest.raises(ValueError, match=r"z has shape \(1,\)"):
            m.meal_step(ctx, m.IterateState(np.zeros(1), np.zeros(1), np.zeros(2)))

    def test_a_lam_of_the_wrong_length_is_rejected(self):
        with pytest.raises(ValueError, match=r"lam has shape \(3,\); .* is \(2,\)"):
            solve_subproblem(self._exp2_context(), np.zeros(6), np.zeros(3))

    @pytest.mark.parametrize("spec", [m.InnerProxGradient(), m.Paper72FastPath()],
                             ids=lambda spec: type(spec).__name__)
    def test_a_grad_h_of_the_wrong_length_is_rejected(self, spec):
        with pytest.raises(ValueError, match=r"grad_h has shape \(1,\); .* is \(6,\)"):
            solve_subproblem(self._exp2_context(spec), np.zeros(6), np.zeros(2),
                             grad_h=[1.0])

    def test_a_warm_start_of_the_wrong_length_is_rejected(self):
        with pytest.raises(ValueError, match=r"warm_start has shape \(7,\); .* is \(6,\)"):
            solve_subproblem(self._exp2_context(), np.zeros(6), np.zeros(2),
                             warm_start=np.zeros(7))

    def test_inner_matches_direct_on_qp(self):
        prob = make_convex_qp(11)
        plan = m.PenaltyPlan.fixed(20.0, 0.4, 1.0)
        inner = EnvelopeContext(prob, plan, m.InnerProxGradient(tol=1e-12,
                                                                max_inner=200000))
        z = np.linspace(-1, 1, prob.n)
        lam = np.array([0.3, -0.2])
        xd = _dense_solution(prob, 20.0, 0.4, z, lam)[0]
        xi = solve_subproblem(inner, z, lam).x
        np.testing.assert_allclose(xi, xd, atol=1e-9)

    def test_fast_path_formula(self):
        # one linearized solve then projection, matched against the
        # transcription of the update rule
        prob = m.build_exp2(seed=3, m=2, n=5)
        gamma = 0.1
        ctx = EnvelopeContext(prob, m.PenaltyPlan.fixed(8.0, gamma, 1.0),
                              m.Paper72FastPath())
        Q, r, _ = prob.smooth.quadratic_terms()
        A, b = prob.constraint.A, prob.constraint.b
        z = np.linspace(0, 1, 5)
        lam = np.array([0.5, -0.1])
        x0 = np.full(5, 0.4)
        res = solve_subproblem(ctx, z, lam, grad_h=prob.smooth_gradient(x0))
        M = 8.0 * A.T @ A + np.eye(5) / gamma
        x_tilde = np.linalg.solve(M, z / gamma + 8.0 * A.T @ b - r - Q @ x0 - A.T @ lam)
        np.testing.assert_allclose(res.x, np.clip(x_tilde, 0.0, 1.0), atol=1e-10)
        assert res.residual is None

    def test_residual_certifies_inexactness(self, exp1_problem):
        ctx = EnvelopeContext(exp1_problem, m.PenaltyPlan.fixed(50.0, 0.25, 1.0),
                              m.InnerProxGradient(tol=1e-3, max_inner=100000))
        res = solve_subproblem(ctx, [1.0, -1.0], [0.0])
        assert res.residual_norm <= 1e-3

    def test_envelope_gradient_matches_finite_differences(self):
        prob = make_convex_qp(5)
        gamma = 0.4
        plan = m.PenaltyPlan.fixed(10.0, gamma, 1.0)
        ctx = EnvelopeContext(prob, plan, m.InnerProxGradient(tol=1e-10,
                                                              max_inner=200000))
        lam = np.array([0.2, -0.4])

        def phi(z):
            res = solve_subproblem(ctx, z, lam)
            return potential_P(ctx, m.IterateState(res.x, z, lam))

        rng = np.random.default_rng(8)
        for _ in range(5):
            z = rng.uniform(-1, 1, prob.n)
            x_star = solve_subproblem(ctx, z, lam).x
            grad = (z - x_star) / gamma
            err = m.finite_diff_check(phi, lambda _: grad, z, h=1e-5)
            assert err <= 1e-4

    def test_strong_convexity_certificate(self, exp1_problem):
        gamma = 0.25
        ctx = EnvelopeContext(exp1_problem, m.PenaltyPlan.fixed(50.0, gamma, 1.0),
                              m.InnerProxGradient(tol=1e-12, max_inner=300000))
        z = np.array([0.7, -0.4])
        lam = np.array([1.0])
        res = solve_subproblem(ctx, z, lam)
        base = potential_P(ctx, m.IterateState(res.x, z, lam))
        mu = 1.0 / gamma - exp1_problem.rho_total
        rng = np.random.default_rng(9)
        for _ in range(20):
            d = rng.normal(size=2)
            d /= np.linalg.norm(d)
            delta = 1e-3
            cand = res.x + delta * d
            if not np.isfinite(exp1_problem.objective_value(cand)):
                continue
            val = potential_P(ctx, m.IterateState(cand, z, lam))
            assert val - base >= 0.5 * mu * delta ** 2 - 1e-9

    def test_fast_path_equals_direct_on_zero_prox(self):
        # with no box to clip to, the fast path is the linearized step's solve
        prob = make_convex_qp(17)
        plan = m.PenaltyPlan.fixed(20.0, 0.4, 1.0)
        z = np.linspace(-1, 1, prob.n)
        lam = np.array([0.3, -0.2])
        at = np.full(prob.n, 0.25)
        fast = solve_subproblem(EnvelopeContext(prob, plan, m.Paper72FastPath()),
                                z, lam, grad_h=prob.smooth_gradient(at))
        direct = _dense_solution(prob, 20.0, 0.4, z, lam, at)[0]
        np.testing.assert_allclose(fast.x, direct, rtol=0, atol=1e-12)

    def test_one_eigendecomposition_per_context(self, monkeypatch):
        prob = make_convex_qp(0)
        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: calls.append(M) or real(M))
        ctx = EnvelopeContext(prob, m.PenaltyPlan.fixed(1.0, 0.1, 1.0))
        assert len(calls) == 1
        # on the m x m Gram AA', whose nonzero eigenvalues are A'A's
        A = prob.constraint.A
        assert prob.m < prob.n
        np.testing.assert_array_equal(calls[0], A @ A.T)
        AtA = A.T @ A
        assert ctx.A_norm2 == pytest.approx(float(real(AtA).max()), rel=1e-13, abs=0)
        assert ctx.sigma_min_pos == pytest.approx(m.smallest_positive_eigenvalue(AtA),
                                                  rel=1e-13, abs=0)

    def test_subproblem_matrix_formed_on_first_use(self, monkeypatch):
        plans = {"_exact_plan", "_linearized_plan"}
        prob = make_box_qp(1)
        ctx = EnvelopeContext(prob, m.PenaltyPlan.fixed(5.0, 0.1, 1.0))
        assert not plans & set(vars(ctx))
        solve_subproblem(ctx, np.zeros(prob.n), np.zeros(prob.m))
        assert plans & set(vars(ctx)) == {"_exact_plan"}
        A, Q = prob.constraint.A, prob.smooth.quadratic_terms()[0]
        want = 5.0 * (A.T @ A) + np.eye(prob.n) / 0.1 + Q
        assert plan_system(ctx, "_exact_plan").M.tobytes() == want.tobytes()

        # the fast path and Prox-iALM form no n x n matrix
        from mealopt import solvers
        from mealopt.experiments import exp2_configs

        made = []
        monkeypatch.setattr(solvers, "EnvelopeContext",
                            lambda *a: made.append(EnvelopeContext(*a)) or made[-1])
        prob = m.build_exp2(42, 5, 40)
        configs = dict(exp2_configs(prob, m.StopRule(max_iters=20)))
        for label in ("limeal_beta50_eta1", "ialm"):
            m.run(prob, configs[label])
        assert [type(ctx.subproblem) for ctx in made] == [m.Paper72FastPath,
                                                          m.InnerProxGradient]
        for ctx in made:
            assert not plans & set(vars(ctx))


@st.composite
def _rank_m_contexts(draw):
    """A context and a vector: n 1-8, m 1-(n+2) with the first row of A
    repeated as its last when m >= 2 (so rank(A) < m), beta 1e-3-1e4."""
    n = draw(st.integers(1, 8))
    mcon = draw(st.integers(1, n + 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = rng.uniform(-1, 1, size=(mcon, n))
    A[-1] = A[0]
    beta = 10.0 ** draw(st.floats(-3.0, 4.0))
    gamma = 10.0 ** draw(st.floats(-2.0, 1.0))
    prob = m.Problem(m.LinearConstraint(A, A @ rng.uniform(-1, 1, size=n)), m.Zero())
    ctx = EnvelopeContext(prob, m.PenaltyPlan.fixed(beta, gamma, 1.0))
    return ctx, rng.uniform(-2, 2, size=n)


class TestRankMAlgebra:
    @settings(max_examples=300)
    @given(case=_rank_m_contexts())
    def test_matches_the_dense_matrix(self, case):
        ctx, v = case
        A = ctx.problem.constraint.A
        H = ctx.beta * A.T @ A + np.eye(ctx.problem.n) / ctx.plan.gamma
        Hv, x = H @ v, np.linalg.solve(H, v)
        assert np.linalg.norm(ctx.H_matvec(v) - Hv) <= 1e-10 * np.linalg.norm(Hv)
        assert np.linalg.norm(ctx.H_solve(v) - x) <= 1e-10 * np.linalg.norm(x)


def _smooth_grad(prob, beta, gamma, z, lam):
    """grad S for the exact subproblem, written out term by term."""
    A, b = prob.constraint.A, prob.constraint.b
    Q, r, _ = prob.smooth.quadratic_terms()
    return lambda x: beta * A.T @ (A @ x - b) + A.T @ lam + (x - z) / gamma + Q @ x + r


def _dense_solution(prob, beta, gamma, z, lam, at=None):
    """(x, M, c): the no-bound quadratic subproblem min x'Mx/2 + c'x written
    out term by term, exact or with h linearized at `at`, and its minimizer
    by a dense solve of M x = -c."""
    A, b = prob.constraint.A, prob.constraint.b
    Q, r, _ = prob.quadratic_terms()
    M = beta * A.T @ A + np.eye(prob.n) / gamma
    c = A.T @ lam - beta * A.T @ b - z / gamma + r
    if at is None or not prob.composite:
        M = M + Q
    else:
        c = c + Q @ at
    return np.linalg.solve(M, -c), M, c


def _plain_prox_gradient(prob, beta, gamma, z, lam, tol):
    """Reference loop: constant-step proximal gradient without momentum.

    Returns the point and the iterations it took for the residual
    (x - x+)/t - grad(x) + grad(x+) to drop below tol.
    """
    grad = _smooth_grad(prob, beta, gamma, z, lam)
    A_norm2 = np.linalg.eigvalsh(prob.constraint.A.T @ prob.constraint.A).max()
    t = 1.0 / (beta * A_norm2 + 1.0 / gamma + prob.L_h)
    g = prob.prox_part
    bounds = prob.box_bounds()
    x = z.copy() if bounds is None else np.clip(z, *bounds)
    for it in range(1, 10 ** 6):
        x_new = g.prox(t, x - t * grad(x))
        s = (x - x_new) / t - grad(x) + grad(x_new)
        x = x_new
        if np.linalg.norm(s) <= tol:
            return x, it
    raise AssertionError("reference loop did not converge")


class TestAcceleratedInnerLoop:
    BETA = 50.0

    def _box_case(self, seed):
        prob = make_box_qp(seed)
        gamma = 0.5 / max(prob.rho_total, 1.0)
        z = np.linspace(-0.5, 1.5, prob.n)      # pushes both bounds active
        lam = np.array([0.4, -0.3])
        return prob, gamma, z, lam

    def test_residual_is_in_grad_plus_box_normal_cone(self):
        prob, gamma, z, lam = self._box_case(2)
        tol = 1e-9
        ctx = EnvelopeContext(prob, m.PenaltyPlan.fixed(self.BETA, gamma, 1.0),
                              m.InnerProxGradient(tol=tol, max_inner=200000))
        res = solve_subproblem(ctx, z, lam)
        x = res.x
        lo, hi = prob.prox_part.lower, prob.prox_part.upper
        assert ((x == lo) | (x == hi)).any()
        gS = _smooth_grad(prob, self.BETA, gamma, z, lam)(x)
        # the element of N_box(x) nearest to s - grad S(x)
        w = res.residual - gS
        normal = np.where(x <= lo, np.minimum(w, 0.0),
                          np.where(x >= hi, np.maximum(w, 0.0), 0.0))
        np.testing.assert_allclose(res.residual, gS + normal, rtol=0, atol=1e-10)
        assert res.residual_norm == pytest.approx(np.linalg.norm(res.residual))
        assert res.residual_norm <= tol
        assert not res.budget_exhausted

    @pytest.mark.parametrize("linearized", [False, True])
    def test_zero_prox_qp_matches_direct(self, linearized):
        prob = make_convex_qp(17)
        plan = m.PenaltyPlan.fixed(20.0, 0.4, 1.0)
        z = np.linspace(-1, 1, prob.n)
        lam = np.array([0.3, -0.2])
        at = np.full(prob.n, 0.25) if linearized else None
        direct = _dense_solution(prob, 20.0, 0.4, z, lam, at)[0]
        inner = solve_subproblem(
            EnvelopeContext(prob, plan, m.InnerProxGradient(tol=1e-11)),
            z, lam, grad_h=None if at is None else prob.smooth_gradient(at))
        np.testing.assert_allclose(inner.x, direct, rtol=0, atol=1e-8)
        assert inner.residual_norm <= 1e-11

    @pytest.mark.parametrize("fields", [{"max_inner": 0}, {"tol": -1.0}, {"tol": 0.0}])
    def test_fields_are_validated(self, fields):
        with pytest.raises(ValueError):
            m.InnerProxGradient(**fields)

    def test_momentum_cuts_iterations_on_boxqp4(self):
        prob, gamma, z, lam = self._box_case(4)
        tol = 1e-9
        ctx = EnvelopeContext(prob, m.PenaltyPlan.fixed(self.BETA, gamma, 1.0),
                              m.InnerProxGradient(tol=tol, max_inner=200000))
        res = solve_subproblem(ctx, z, lam)
        x_ref, plain_iters = _plain_prox_gradient(prob, self.BETA, gamma, z, lam, tol)
        assert 3 * res.inner_iterations <= plain_iters
        np.testing.assert_allclose(res.x, x_ref, rtol=0, atol=1e-8)

    def test_momentum_cuts_iterations_with_an_l1_prox(self):
        """A convex QP h with an L1 prox part takes no face steps, so the
        accelerated loop does all the work: about 107 iterations against
        693 without momentum."""
        base = make_convex_qp(4)
        prob = m.Problem(base.constraint, m.L1(0.3), base.smooth)
        gamma = 0.5 / max(prob.rho_total, 1.0)
        z = np.linspace(-0.5, 1.5, prob.n)
        lam = np.array([0.4, -0.3])
        tol = 1e-9
        ctx = EnvelopeContext(prob, m.PenaltyPlan.fixed(self.BETA, gamma, 1.0),
                              m.InnerProxGradient(tol=tol, max_inner=200000))
        res = solve_subproblem(ctx, z, lam)
        x_ref, plain_iters = _plain_prox_gradient(prob, self.BETA, gamma, z, lam, tol)
        assert not res.budget_exhausted and res.residual_norm <= tol
        assert 3 * res.inner_iterations <= plain_iters
        np.testing.assert_allclose(res.x, x_ref, rtol=0, atol=1e-8)
        assert (res.x == 0).any()       # the L1 prox holds a coordinate at 0

    @pytest.mark.parametrize("prox_part", [m.SCAD(lam=0.3, a=3.7), m.MCP(lam=0.3, a=3.0)])
    def test_weakly_convex_prox_takes_the_plain_loop(self, prox_part):
        base = make_convex_qp(19)
        prob = m.Problem(base.constraint, prox_part, base.smooth)
        gamma = 0.5 / prob.rho_total
        z = np.linspace(-1, 1, prob.n)
        lam = np.array([0.2, 0.1])
        tol = 1e-10
        ctx = EnvelopeContext(prob, m.PenaltyPlan.fixed(10.0, gamma, 1.0),
                              m.InnerProxGradient(tol=tol, max_inner=200000))
        res = solve_subproblem(ctx, z, lam)
        assert not res.budget_exhausted and res.residual_norm <= tol
        # s - grad S(x) is a subgradient of the prox part at x
        sub = res.residual - _smooth_grad(prob, 10.0, gamma, z, lam)(res.x)
        lo, hi = prox_part.subgradient_interval(res.x)
        assert np.all(sub >= lo - 1e-9) and np.all(sub <= hi + 1e-9)
        # momentum 0: the same iteration as the reference loop
        x_ref, plain_iters = _plain_prox_gradient(prob, 10.0, gamma, z, lam, tol)
        assert res.inner_iterations == plain_iters
        np.testing.assert_allclose(res.x, x_ref, rtol=0, atol=1e-12)

    def test_nan_gradient_raises_at_the_state_check(self):
        """h's gradient turns NaN at its fourth call, at the third step's x.
        The third step's state would carry it, so its state check raises;
        `run` ends NonFinite with the second step's state, whose carried
        gradient is finite, as its terminal state."""
        base = m.build_exp1()
        calls = []

        def gradient(x):
            calls.append(1)
            return np.full(2, np.nan) if len(calls) > 3 else base.smooth.gradient(x)

        smooth = m.SmoothFunction(base.smooth.value, gradient, 2.0)
        prob = m.Problem(base.constraint, base.prox_part, smooth)
        cfg = m.SolverConfig("limeal", m.PenaltyPlan.fixed(50.0, 0.2, 1.0))
        init = (np.array([1.0, -1.0]), np.array([1.0, -1.0]), np.zeros(1))
        tr = m.run(prob, cfg, init=init)
        assert tr.status == "NonFinite" and tr.converged_at is None
        assert tr.terminal.k == 2 and len(calls) == 4
        assert list(tr.column("k")) == [0, 1, 2]
        assert len(tr.inner_iterations) == 2
        assert np.isfinite(tr.terminal.grad_h).all()

        # the same steps called directly: the second one's state is the
        # terminal state, and the third raises at its state check
        calls.clear()
        ctx = EnvelopeContext(prob, cfg.plan, cfg.resolve_subproblem())
        state = m.IterateState(*init)
        for _ in range(2):
            state, _ = m.limeal_step(ctx, state)
        for got, want in ((tr.terminal.x, state.x), (tr.terminal.z, state.z),
                          (tr.terminal.lam, state.lam)):
            assert np.isfinite(got).all()
            np.testing.assert_array_equal(got, want)
        with pytest.raises(NonFiniteValue, match="iterate state must be finite"):
            m.limeal_step(ctx, state)
        assert issubclass(NonFiniteValue, ValueError)


@st.composite
def _box_qp_subproblems(draw):
    """A strongly convex box-QP subproblem: n 1-6, some infinite bounds or a
    Zero prox part, an exact or linearized step, an optional warm start."""
    n = draw(st.integers(1, 6))
    mcon = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = rng.uniform(-1, 1, size=(mcon, n))
    G = rng.uniform(-1, 1, size=(n, n))
    smooth = m.QuadraticSmooth(0.5 * (G + G.T), rng.uniform(-1, 1, size=n))
    if draw(st.booleans()):
        prox_part = m.Zero()
    else:
        lower = np.where(rng.random(n) < 0.3, -np.inf, rng.uniform(-1, 0, size=n))
        upper = np.where(rng.random(n) < 0.3, np.inf, rng.uniform(0, 1, size=n))
        prox_part = m.BoxIndicator(lower, upper)
    prob = m.Problem(m.LinearConstraint(A, A @ rng.uniform(0, 1, size=n)),
                     prox_part, smooth)
    gamma = draw(st.floats(0.05, 0.95)) / max(prob.rho_total, 1.0)
    beta = draw(st.floats(0.1, 100.0))
    z, lam = rng.uniform(-2, 2, size=n), rng.uniform(-2, 2, size=mcon)
    at = rng.uniform(-2, 2, size=n) if draw(st.booleans()) else None
    warm = rng.uniform(-2, 2, size=n) if draw(st.booleans()) else None
    return prob, gamma, beta, z, lam, at, warm


class TestFaceSolve:
    @settings(max_examples=200)
    @given(case=_box_qp_subproblems())
    def test_matches_the_active_set_oracle(self, case):
        prob, gamma, beta, z, lam, at, warm = case
        tol = 1e-10
        ctx = EnvelopeContext(prob, m.PenaltyPlan.fixed(beta, gamma, 1.0),
                              m.InnerProxGradient(tol=tol, max_inner=200000))
        res = solve_subproblem(ctx, z, lam,
                               grad_h=None if at is None else prob.smooth_gradient(at),
                               warm_start=warm)
        lo, hi = prob.box_bounds()
        assert np.all(lo <= res.x) and np.all(res.x <= hi)
        assert not res.budget_exhausted and res.residual_norm <= tol
        # the subproblem written out: x'Mx/2 + c'x over the box
        A, b = prob.constraint.A, prob.constraint.b
        Q, r, _ = prob.smooth.quadratic_terms()
        M = beta * A.T @ A + np.eye(prob.n) / gamma
        c = A.T @ lam - beta * A.T @ b - z / gamma + r
        if at is None:
            M = M + Q
        else:
            c = c + Q @ at
        pts, _, _ = active_set_qp_oracle(M, c, None, None, lo, hi)
        assert min(np.abs(res.x - q).max() for q in pts) <= 1e-7

    def test_falls_back_when_the_first_face_is_wrong(self, monkeypatch):
        prob = make_box_qp(2)
        gamma = 0.5 / max(prob.rho_total, 1.0)
        z, lam = np.linspace(-0.5, 1.5, prob.n), np.array([0.4, -0.3])
        tol = 1e-9
        ctx = EnvelopeContext(prob, m.PenaltyPlan.fixed(50.0, gamma, 1.0),
                              m.InnerProxGradient(tol=tol, max_inner=200000))
        monkeypatch.setattr(envelope, "_FACE_STEPS", 1)
        calls = []
        box_prox = m.BoxIndicator.prox
        monkeypatch.setattr(m.BoxIndicator, "prox",
                            lambda g, *a: calls.append(1) or box_prox(g, *a))
        res = solve_subproblem(ctx, z, lam)
        assert not res.budget_exhausted and res.residual_norm <= tol
        # the one face step did not certify, and it is counted with the loop's
        assert res.inner_iterations > 1
        assert res.inner_iterations == len(calls)
        np.testing.assert_allclose(res.x, _plain_prox_gradient(
            prob, 50.0, gamma, z, lam, 1e-12)[0], rtol=0, atol=1e-8)

    @staticmethod
    def _boxqp4_config(algorithm):
        # the criterion-7 box-QP settings
        prob = make_box_qp(4)
        return prob, m.SolverConfig(
            algorithm, m.PenaltyPlan.fixed(50.0, 0.5 / max(prob.rho_total, 1.0), 1.0),
            subproblem=m.InnerProxGradient(tol=1e-9, max_inner=200000),
            stop=m.StopRule(max_iters=4000, stat_tol=1e-8, feas_tol=1e-8))

    def test_face_blocks_are_built_once_per_face(self, monkeypatch):
        # the context keeps the last face's blocks, so a run whose faces
        # hardly move indexes M about twice per face, not twice per step
        prob, cfg = self._boxqp4_config("meal")
        lo, hi = prob.box_bounds()
        ix_calls, faces = [], set()
        real_ix, box_prox = np.ix_, m.BoxIndicator.prox

        def prox(g, *args):
            y = box_prox(g, *args)
            faces.add((y <= lo).tobytes() + (y >= hi).tobytes())
            return y

        monkeypatch.setattr(np, "ix_", lambda *a: ix_calls.append(1) or real_ix(*a))
        monkeypatch.setattr(m.BoxIndicator, "prox", prox)
        tr = m.run(prob, cfg)
        assert tr.status == "Converged" and tr.n_rows - 1 > 1000
        assert 0 < len(ix_calls) <= 2 * len(faces)

    @pytest.mark.parametrize("algorithm", ["meal", "limeal"])
    def test_a_warm_context_steps_as_a_fresh_one(self, algorithm):
        # each step on a fresh context is bitwise the step on the run's
        # context, whose last face came from the step before; and a context
        # warmed on another state's face steps as a fresh one too
        from mealopt.solvers import ALGORITHMS

        prob, cfg = self._boxqp4_config(algorithm)
        step = ALGORITHMS[algorithm].step
        warm = EnvelopeContext(prob, cfg.plan, cfg.resolve_subproblem())
        states = [m.IterateState(np.zeros(prob.n), np.zeros(prob.n), np.zeros(prob.m))]
        for _ in range(30):
            states.append(step(warm, states[-1], cfg)[0])
        far = m.IterateState(np.ones(prob.n), np.ones(prob.n), np.full(prob.m, 5.0))
        for k, state in enumerate(states[:-1]):
            fresh = EnvelopeContext(prob, cfg.plan, cfg.resolve_subproblem())
            got = step(fresh, state, cfg)[0]
            if k % 10 == 0:
                step(warm, far, cfg)
                again = step(warm, state, cfg)[0]
                np.testing.assert_array_equal(again.x, got.x)
            for name in ("x", "z", "lam"):
                np.testing.assert_array_equal(getattr(got, name),
                                              getattr(states[k + 1], name))

    def test_one_context_keeps_one_entry_per_flag(self):
        # meal_step and limeal_step in turn on one context: a plan for the
        # exact and one for the linearized step, each with its own M, and
        # each step bitwise the step on a fresh context
        prob, cfg = self._boxqp4_config("meal")
        ctx = EnvelopeContext(prob, cfg.plan, cfg.resolve_subproblem())
        state = m.IterateState(np.zeros(prob.n), np.zeros(prob.n), np.zeros(prob.m))
        for k in range(20):
            step = m.meal_step if k % 2 == 0 else m.limeal_step
            got = step(ctx, state)[0]
            want = step(EnvelopeContext(prob, cfg.plan, cfg.resolve_subproblem()), state)[0]
            for name in ("x", "z", "lam", "residual"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
            state = got
        exact = plan_system(ctx, "_exact_plan")
        linearized = plan_system(ctx, "_linearized_plan")
        assert exact is not linearized
        assert linearized.M.tobytes() != exact.M.tobytes()

    def test_a_run_plans_its_solves_once(self, monkeypatch):
        # the context keeps InnerProxGradient's plan, so a run reads the
        # problem's quadratic terms a bounded number of times, not once a step
        prob, cfg = self._boxqp4_config("meal")
        calls, terms = [], m.Problem.quadratic_terms
        monkeypatch.setattr(m.Problem, "quadratic_terms",
                            lambda p: calls.append(1) or terms(p))
        tr = m.run(prob, cfg)
        assert tr.status == "Converged" and tr.n_rows - 1 > 1000
        assert 0 < len(calls) <= 4

    def test_exact_and_linearized_solves_keep_their_own_plans(self):
        # solves with and without grad_h in turn on one context, each bitwise
        # the same solve on a fresh context: neither plan serves the other
        prob, cfg = self._boxqp4_config("meal")
        ctx = EnvelopeContext(prob, cfg.plan, cfg.resolve_subproblem())
        rng = np.random.default_rng(4)
        for k in range(12):
            z, lam = rng.uniform(-0.2, 1.2, prob.n), rng.standard_normal(prob.m)
            grad_h = prob.smooth_gradient(rng.uniform(0, 1, prob.n)) if k % 3 else None
            got = solve_subproblem(ctx, z, lam, grad_h=grad_h)
            fresh = EnvelopeContext(prob, cfg.plan, cfg.resolve_subproblem())
            want = solve_subproblem(fresh, z, lam, grad_h=grad_h)
            assert got.x.tobytes() == want.x.tobytes()
            assert got.residual.tobytes() == want.residual.tobytes()
            assert got.inner_iterations == want.inner_iterations
        assert {"_exact_plan", "_linearized_plan"} <= set(vars(ctx))
        assert ctx._exact_plan is not ctx._linearized_plan


@st.composite
def _strongly_convex_box_qps(draw):
    """A strongly convex box-QP (n 1-6, m 1-3, some one-sided or free
    coordinates), a penalty pair and an envelope point (z, lam)."""
    n = draw(st.integers(1, 6))
    mcon = draw(st.integers(1, min(n, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    G = rng.uniform(-1, 1, size=(n, n))
    smooth = m.QuadraticSmooth(G @ G.T / n + 0.1 * np.eye(n), rng.uniform(-1, 1, size=n))
    lower = np.where(rng.random(n) < 0.3, -np.inf, rng.uniform(-1, 0, size=n))
    upper = np.where(rng.random(n) < 0.3, np.inf, rng.uniform(0, 1, size=n))
    A = rng.uniform(-1, 1, size=(mcon, n))
    prob = m.Problem(m.LinearConstraint(A, A @ rng.uniform(0, 1, size=n)),
                     m.BoxIndicator(lower, upper), smooth)
    gamma, beta = draw(st.floats(0.1, 1.0)), draw(st.floats(0.1, 10.0))
    return prob, gamma, beta, rng.uniform(-2, 2, size=n), rng.uniform(-2, 2, size=mcon)


class TestEnvelopeStepIdentity:
    @settings(max_examples=100)
    @given(case=_strongly_convex_box_qps())
    def test_envelope_gradient_is_the_step(self, case):
        """grad_z phi(z) = (z - x(z))/gamma for the envelope phi(z) =
        L_beta(x(z), lam) + ||x(z) - z||^2/(2 gamma) at the subproblem's
        solution x(z), against central differences of phi in z."""
        prob, gamma, beta, z, lam = case
        ctx = EnvelopeContext(prob, m.PenaltyPlan.fixed(beta, gamma, 1.0),
                              m.InnerProxGradient(tol=1e-12, max_inner=200000))

        def phi(w):
            return potential_P(ctx, m.IterateState(solve_subproblem(ctx, w, lam).x, w, lam))

        res = solve_subproblem(ctx, z, lam)
        assert not res.budget_exhausted
        assert finite_diff_check(phi, (z - res.x) / gamma, z, h=1e-6) <= 1e-5


@st.composite
def _no_bound_subproblems(draw):
    """A strongly convex quadratic subproblem with no bound: n 1-6, a random
    symmetric QuadraticSmooth with a Zero prox part (exact or linearized
    step) or a QuadraticForm g with no smooth part, gamma up to 0.9 of 1/rho."""
    n = draw(st.integers(1, 6))
    mcon = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = rng.uniform(-1, 1, size=(mcon, n))
    G = rng.uniform(-1, 1, size=(n, n))
    Q, r = 0.5 * (G + G.T), rng.uniform(-1, 1, size=n)
    constraint = m.LinearConstraint(A, A @ rng.uniform(0, 1, size=n))
    if draw(st.booleans()):
        prob = m.Problem(constraint, m.Zero(), m.QuadraticSmooth(Q, r))
        at = rng.uniform(-2, 2, size=n) if draw(st.booleans()) else None
    else:
        prob, at = m.Problem(constraint, m.QuadraticForm(Q, r)), None
    gamma = draw(st.floats(0.05, 0.9)) / max(prob.rho_total, 1.0)
    beta = draw(st.floats(0.1, 100.0))
    z, lam = rng.uniform(-2, 2, size=n), rng.uniform(-2, 2, size=mcon)
    return prob, gamma, beta, z, lam, at


class TestNoBoundSolve:
    @settings(max_examples=200)
    @given(case=_no_bound_subproblems())
    def test_one_solve_matches_the_dense_reference(self, case):
        prob, gamma, beta, z, lam, at = case
        ctx = EnvelopeContext(prob, m.PenaltyPlan.fixed(beta, gamma, 1.0))
        res = m.InnerProxGradient().solve(
            ctx, z, lam, grad_h=None if at is None else prob.smooth_gradient(at))
        x_ref, M, c = _dense_solution(prob, beta, gamma, z, lam, at)
        scale = max(1.0, np.abs(x_ref).max())
        np.testing.assert_allclose(res.x, x_ref, rtol=0, atol=1e-9 * scale)
        assert res.inner_iterations == 1 and not res.budget_exhausted
        # the true residual M x + c, not a stand-in zero
        s = M @ res.x + c
        roundoff = 1e-13 * prob.n * (np.abs(M).max() * np.abs(res.x).max()
                                     + np.abs(c).max())
        np.testing.assert_allclose(res.residual, s, rtol=0, atol=roundoff)
        assert res.residual_norm == pytest.approx(np.linalg.norm(s), rel=0,
                                                  abs=prob.n * roundoff)
        assert res.residual_norm == math.sqrt(res.residual @ res.residual)

    def test_no_prox_call_and_no_loop_whatever_the_tolerance(self, monkeypatch):
        prob = make_convex_qp(5)
        ctx = EnvelopeContext(prob, m.PenaltyPlan.fixed(20.0, 0.4, 1.0),
                              m.InnerProxGradient(tol=1e-300, max_inner=1))
        monkeypatch.setattr(m.Zero, "prox", lambda *a: pytest.fail("prox called"))
        z, lam = np.linspace(-1, 1, prob.n), np.array([0.3, -0.2])
        res = solve_subproblem(ctx, z, lam, tol=1e-300)
        assert res.inner_iterations == 1 and not res.budget_exhausted
        assert res.residual_norm > 1e-300
        np.testing.assert_array_equal(
            res.x, solve_subproblem(ctx, z, lam, warm_start=np.ones(prob.n)).x)


class TestPenaltyCalculus:
    def test_alpha_from_beta_hand_value(self):
        assert alpha_from_beta(50.0, 0.5, 1.0, 0.5) == pytest.approx(0.0401)

    def test_alpha_eta_limit(self):
        # as eta -> 2 the gamma term vanishes
        got = alpha_from_beta(10.0, 0.7, 2.0 - 1e-12, 0.5)
        assert got == pytest.approx((10.0 + 10.0) / (2 * 0.5 * 100.0), rel=1e-9)

    def test_alpha_roughly_halves_when_beta_doubles(self):
        a1 = alpha_from_beta(100.0, 0.5, 1.0, 0.5)
        a2 = alpha_from_beta(200.0, 0.5, 1.0, 0.5)
        assert a2 < a1

    @pytest.mark.parametrize("beta, c", [(1e300, 0.5), (1.0, 0.0), (1.0, -0.5)])
    def test_alpha_out_of_range(self, beta, c):
        with pytest.raises(PenaltyOutOfRange):
            alpha_from_beta(beta, 0.5, 1.0, c)

    def test_beta_hand_value(self):
        # frozen from direct evaluation: (1 + sqrt(1.01)) / 0.04, +1e-6 margin
        got = beta_for_target_alpha(0.04, 0.5, 1.0, 0.5)
        assert got == pytest.approx(50.12473917749127, rel=1e-12)

    @pytest.mark.parametrize("target", [1e-3, 1e-2, 0.1, 0.5, 1.0])
    def test_round_trip_strictly_below_target(self, target):
        beta = beta_for_target_alpha(target, 0.5, 1.0, 0.5)
        assert alpha_from_beta(beta, 0.5, 1.0, 0.5) < target

    def test_monotone_decreasing_in_c(self):
        b1 = beta_for_target_alpha(0.04, 0.5, 1.0, 0.5)
        b2 = beta_for_target_alpha(0.04, 0.5, 1.0, 1.0)
        assert b2 < b1

    def test_horizon_mode_achieves_target_exactly(self):
        K, alpha_star, gamma, eta, c = 25, 0.05, 0.5, 1.0, 0.5
        beta = beta_for_target_alpha(alpha_star, gamma, eta, c, horizon_K=K)
        assert alpha_from_beta(beta, gamma, eta, c) == pytest.approx(
            alpha_star / K, rel=1e-12)

    def test_nonpositive_alpha(self):
        with pytest.raises(NonPositiveAlpha):
            beta_for_target_alpha(0.0, 0.5, 1.0, 0.5)


class TestAlphaCap:
    def test_meal_a_hand_value(self):
        prob = m.Problem(m.LinearConstraint([[1.0, -1.0]], [0.0]), m.Zero())
        plan = m.PenaltyPlan.fixed(1.0, 0.5, 1.0)
        assert alpha_cap(prob, plan, "meal-a") == pytest.approx(0.25)

    def test_cap_decreases_toward_eta_two(self):
        prob = m.Problem(m.LinearConstraint([[1.0, -1.0]], [0.0]), m.Zero())
        caps = [alpha_cap(prob, m.PenaltyPlan.fixed(1.0, 0.5, eta), "meal-a")
                for eta in (1.5, 1.8, 1.95, 1.99)]
        assert all(a > b for a, b in zip(caps, caps[1:]))

    def test_limeal_gamma_bound_enforced(self, exp1_problem):
        # rho_g + L_h = 2: the admissible bound is below 1/2 for eta=1
        with pytest.raises(GammaTooLarge):
            alpha_cap(exp1_problem, m.PenaltyPlan.fixed(1.0, 0.5, 1.0), "limeal-a")
        cap = alpha_cap(exp1_problem, m.PenaltyPlan.fixed(1.0, 0.18, 1.0), "limeal-a")
        assert cap > 0

    def test_missing_metadata_named(self):
        box = m.BoxIndicator([0.0], [1.0])   # implicit class unknown
        prob = m.Problem(m.LinearConstraint([[1.0]], [0.5]), box,
                         m.QuadraticSmooth([[1.0]]))
        with pytest.raises(MissingMetadata) as exc:
            alpha_cap(prob, m.PenaltyPlan.fixed(1.0, 0.2, 1.0), "limeal-a")
        assert "L_g" in str(exc.value)

    def test_limeal_on_pure_problem_rejected(self):
        prob = m.Problem(m.LinearConstraint([[1.0]], [0.0]), m.QuadraticForm(Q=[[1.0]]))
        with pytest.raises(NotComposite):
            alpha_cap(prob, m.PenaltyPlan.fixed(1.0, 0.2, 1.0), "limeal-b")

    @pytest.mark.parametrize("variant", ["meal-b", "imeal-a", "imeal-b", "limeal-b"])
    def test_other_variants_positive(self, variant, exp1_problem):
        plan = m.PenaltyPlan.fixed(1.0, 0.15, 1.0)
        assert alpha_cap(exp1_problem, plan, variant) > 0

    # the caps of all six variants, in _VARIANTS order, as the six per-variant
    # formulas of the paper compute them; pinned exactly
    PINNED = {
        ("exp1", 0.1, 0.5): [1.0204081632653064, 1.3333333333333333, 0.6802721088435375,
                             1.0, 0.8840090090090089, 0.9435096153846153],
        ("exp1", 0.3, 1.0): [0.06887052341597796, 0.22222222222222227,
                             0.045913682277318645, 0.16666666666666669,
                             0.04185692541856926, 0.06740196078431374],
        ("exp1", 0.2, 1.5): [0.2083333333333333, 0.13888888888888884,
                             0.13888888888888884, 0.10416666666666664,
                             0.13888888888888884, 0.10416666666666664],
        ("qp", 0.1, 0.5): [1.8613238702990598, 1.5005565124591083, 1.240882580199373,
                           1.1254173843443311, 1.4796503262358747, 1.109737744676906],
        ("qp", 0.3, 1.0): [0.34619491821805687, 0.2777777777777778, 0.23079661214537123,
                           0.20833333333333334, 0.2777777777777778, 0.20833333333333334],
    }

    @pytest.mark.parametrize("name, gamma, eta", PINNED)
    def test_caps_pinned(self, name, gamma, eta):
        prob = m.build_exp1() if name == "exp1" else make_convex_qp(0)
        plan = m.PenaltyPlan.fixed(1.0, gamma, eta)
        caps = [alpha_cap(prob, plan, variant) for variant in _VARIANTS]
        assert caps == self.PINNED[name, gamma, eta]


@pytest.mark.parametrize("prob", [m.build_exp1(), make_convex_qp(3), m.build_exp2(3, 2, 6)],
                         ids=["exp1", "convex-qp", "exp2"])
@pytest.mark.parametrize("target", [1e-3, 0.5, 10.0])
def test_a_fixed_target_fixes_the_beta_of_beta_for_target_alpha(prob, target):
    plan = m.PenaltyPlan("fixed", 0.05, 0.7, alpha_target=target)
    want = beta_for_target_alpha(target, 0.05, 0.7, plan.c_gamma_A(prob.constraint))
    ctx = EnvelopeContext(prob, plan)
    assert ctx.beta.hex() == want.hex()
    assert ctx.alpha < target      # the fixed mode's margin keeps alpha below it


@pytest.mark.parametrize("call, error, match", [
    (lambda prob: m.PenaltyPlan("adaptive", 0.1, 1.0, beta=1.0), ValueError,
     "unknown mode 'adaptive'"),
    # a mode refuses the field it does not read, and fixed takes one penalty shape
    (lambda prob: m.PenaltyPlan("fixed", 0.1, 1.0, beta=1.0, K=3), ValueError,
     "fixed mode reads no K, got 3"),
    (lambda prob: m.PenaltyPlan("fixed", 0.1, 1.0, beta=1.0, alpha_target=2.0), ValueError,
     "exactly one of beta and alpha_target"),
    (lambda prob: m.PenaltyPlan("fixed", 0.1, 1.0), ValueError,
     "exactly one of beta and alpha_target"),
    (lambda prob: m.PenaltyPlan("horizon", 0.5, 1.0, beta=50.0, K=3, alpha_target=2.0),
     ValueError, "horizon mode reads no beta, got 50.0"),
    (lambda prob: m.PenaltyPlan("horizon", 0.5, 1.0, K=3), ValueError,
     "horizon mode needs a finite alpha_target > 0, got None"),
    (lambda prob: m.PenaltyPlan("fixed", 0.1, 1.0, alpha_target=-1.0), ValueError,
     "fixed mode needs a finite alpha_target > 0, got -1.0"),
    (lambda prob: alpha_cap(prob, m.PenaltyPlan.fixed(1.0, 0.1, 1.0), "meal-c"),
     ValueError, "variant must be one of"),
    # gamma = 0.5 = 1/rho
    (lambda prob: alpha_cap(prob, m.PenaltyPlan.fixed(1.0, 0.5, 1.0), "meal-b"),
     GammaTooLarge, "1/rho"),
    (lambda prob: alpha_cap(prob, m.PenaltyPlan.fixed(1.0, 0.6, 1.0), "imeal-a"),
     GammaTooLarge, "1/rho"),
    (lambda prob: lyapunov(EnvelopeContext(prob, m.PenaltyPlan.fixed(1.0, 0.1, 1.0)),
                           "meal-s3", None, None), ValueError, "unknown Lyapunov variant"),
    (lambda prob: lyapunov(EnvelopeContext(prob, m.PenaltyPlan.fixed(1.0, 0.1, 1.0)),
                           "limeal-s1", *[m.IterateState([0.0, 0.0], [0.0, 0.0], [0.0])] * 2),
     NotComposite, "composite"),
], ids=["plan-mode", "fixed-with-K", "fixed-with-both", "fixed-with-neither",
        "horizon-with-beta", "horizon-without-target", "fixed-negative-target", "cap-variant", "meal-gamma", "imeal-gamma", "lyapunov-variant",
        "lyapunov-limeal-pure"])
def test_calculus_rejects(call, error, match):
    # g = x^2 - y^2 and no h: a pure problem of modulus 2
    prob = m.Problem(m.LinearConstraint([[1.0, -1.0]], [0.0]),
                     m.QuadraticForm(Q=[[2.0, 0.0], [0.0, -2.0]]))
    with pytest.raises(error, match=match):
        call(prob)


class TestStationarityStream:
    def test_prefix_minimum(self):
        np.testing.assert_allclose(stationarity_stream([3.0, 1.0, 2.0]), [3.0, 1.0, 1.0])

    def test_zero_stays_zero(self):
        np.testing.assert_allclose(stationarity_stream([0.0, 5.0, 1.0]), [0.0, 0.0, 0.0])

    def test_accepts_step_reports(self):
        from mealopt.solvers import StepReport

        reports = [StepReport(v, v) for v in (3.0, 1.0, 2.0)]
        np.testing.assert_allclose(stationarity_stream(reports), [3.0, 1.0, 1.0])


class TestModuleLevelProx:
    def test_delegates_to_kind(self):
        got = m.prox(m.L1(weight=1.0), 1.0, [2.0, -0.5])
        np.testing.assert_allclose(got, [1.0, 0.0])


class TestLyapunov:
    def setup_method(self):
        self.prob = make_convex_qp(13)
        self.plan = m.PenaltyPlan.fixed(30.0, 0.4, 1.0)
        self.ctx = EnvelopeContext(self.prob, self.plan)
        rng = np.random.default_rng(14)
        self.x = rng.normal(size=self.prob.n)
        self.z = rng.normal(size=self.prob.n)
        self.lam = rng.normal(size=self.prob.m)
        self.state = m.IterateState(self.x, self.z, self.lam)

    def prev(self, z_prev):
        """A predecessor state with center z_prev (the meal and imeal
        variants read nothing else of it)."""
        return m.IterateState(self.x, z_prev, self.lam)

    def test_reduces_to_potential_when_stationary(self):
        got = lyapunov(self.ctx, "meal-s1", self.state, self.prev(self.z))
        assert got == pytest.approx(potential_P(self.ctx, self.state))

    def test_s1_s2_differ_by_alpha_term(self):
        z_prev = self.z + 0.3
        alpha = self.ctx.alpha
        e1 = lyapunov(self.ctx, "meal-s1", self.state, self.prev(z_prev))
        e2 = lyapunov(self.ctx, "meal-s2", self.state, self.prev(z_prev))
        gap = alpha * float(np.sum((self.z - z_prev) ** 2))
        assert e2 - e1 == pytest.approx(gap, rel=1e-12)

    def test_coefficients_ladder(self):
        z_prev = self.z + 0.5
        alpha = self.ctx.alpha
        vals = {}
        for variant in ("meal-s1", "meal-s2", "imeal-s1", "imeal-s2"):
            vals[variant] = lyapunov(self.ctx, variant, self.state, self.prev(z_prev))
        assert vals["meal-s2"] == pytest.approx(vals["imeal-s1"], rel=1e-12)
        base = potential_P(self.ctx, self.state)
        gap = alpha * float(np.sum((self.z - z_prev) ** 2))
        for variant, coef in (("meal-s1", 2), ("meal-s2", 3),
                              ("imeal-s1", 3), ("imeal-s2", 4)):
            assert vals[variant] == pytest.approx(base + coef * gap, rel=1e-12)

    def test_limeal_variant_includes_x_term(self, exp1_problem):
        ctx = EnvelopeContext(exp1_problem, m.PenaltyPlan.fixed(50.0, 0.25, 1.0))
        x, z, lam = np.array([0.5, 0.5]), np.array([0.2, 0.1]), np.array([1.0])
        x_prev, z_prev = x + 0.2, z - 0.1
        alpha = ctx.alpha
        got = lyapunov(ctx, "limeal-s1", m.IterateState(x, z, lam),
                       m.IterateState(x_prev, z_prev, lam))
        L_h = exp1_problem.L_h
        expected = potential_P(ctx, m.IterateState(x, z, lam)) + 3 * alpha * (
            float(np.sum((z - z_prev) ** 2))
            + 0.25 ** 2 * L_h ** 2 * float(np.sum((x - x_prev) ** 2)))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_window_too_short(self):
        with pytest.raises(WindowTooShort):
            lyapunov(self.ctx, "meal-s1", self.state, prev=None)


def _kernel_contexts():
    from tests.test_acceptance import MONITORED_QPS, criterion_7_config, monitored_config

    cases = [pytest.param(*criterion_7_config(seed), id=f"boxqp{seed}")
             for seed in range(10)]
    for seed, eta in MONITORED_QPS:
        prob = make_convex_qp(seed)
        cases.append(pytest.param(prob, monitored_config(prob, 0.5, eta), id=f"qp{seed}"))
    return cases


@pytest.mark.parametrize("prob, cfg", _kernel_contexts())
def test_system_solve_gives_cho_solves_bits(prob, cfg):
    """`_System.solve`, LAPACK's potrs on the kept factor, gives
    scipy's `cho_solve(cho_factor(M), v)` bit for bit on the systems of both
    plans of the criterion-7 box-QPs' and the monitored convex QPs' contexts. The face
    steps' all-free face and the no-bound solve rest on it."""
    from scipy.linalg import cho_factor, cho_solve

    ctx = EnvelopeContext(prob, cfg.plan, cfg.resolve_subproblem())
    rng = np.random.default_rng(prob.n)
    V = rng.standard_normal((300, prob.n)) * 10.0 ** rng.uniform(-6, 6, size=(300, 1))
    where = f"on {platform_record()}"
    for name in ("_exact_plan", "_linearized_plan"):
        system = plan_system(ctx, name)
        factor = cho_factor(system.M)
        for v in V:
            assert system.solve(v).tobytes() == cho_solve(factor, v).tobytes(), \
                f"potrs on the kept factor differs from cho_solve, {name} {where}"


def test_system_solve_raises_on_an_illegal_potrs_argument():
    ctx = EnvelopeContext(make_box_qp(0), m.PenaltyPlan.fixed(5.0, 0.1, 1.0))
    system = plan_system(ctx, "_exact_plan")
    system.potrs = lambda *args, **kwargs: (None, -2)
    with pytest.raises(ValueError, match="illegal value in 2th argument"):
        system.solve(np.ones(4))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 20, 33, 800])
def test_block_kernels_match_the_vector_kernels_bit_for_bit(n):
    """`_rowdot` and np.add.reduce(..., axis=-1) on a block of rows, and on
    its row-slice views, give each row's 1-D a @ b and np.add.reduce bit for
    bit, and a stacked product with A gives each row's A @ x. The steps'
    ndarray.dot gives @'s bits (a[i].dot(b[i]), A.dot(x), A.T.dot(lam) on
    the transposed view, (0.5 * x).dot(Q)), and a vector times or over a
    0-d float64 array gives the Python float's bits. The stationarity's
    stacked product with A', np.matmul(A.T, V[..., None])[..., 0], gives
    each row's A.T.dot(v) for m in {1, 2, 5}, on a block, on its row-slice
    and row-mask copies and on one vector, and so do the row norms formed
    from it; the gemm V @ A may not, and no row value uses it. `run` forms
    its energies, stationarity and row norms a block at a time on this; a
    numpy or BLAS whose kernels break it fails here, not as a logic bug in
    the golden traces."""
    rng = np.random.default_rng(n)
    X = rng.standard_normal((65, n)) * rng.uniform(1e-3, 1e3, size=(65, 1))
    Y = rng.standard_normal((65, n))
    A = rng.standard_normal((min(n, 7), n))
    where = f"n={n} on {platform_record()}"
    for a, b in ((X, Y), (X[1:], X[:-1]), (X[:-1], Y[1:]), (X[1:], X[1:])):
        dots, sums = _rowdot(a, b), np.add.reduce(a * b, axis=-1)
        products = np.matmul(A, a[..., None])[..., 0]
        for i in range(len(a)):
            assert dots[i] == a[i] @ b[i], f"_rowdot differs from a @ b, {where}"
            assert sums[i] == np.add.reduce(a[i] * b[i]), \
                f"the row-wise np.add.reduce differs from the 1-D one, {where}"
            assert np.array_equal(products[i], A @ a[i]), \
                f"the stacked product differs from A @ x, {where}"
    assert _rowdot(X[0], Y[0]) == X[0] @ Y[0], f"1-D _rowdot differs, {where}"

    # the steps' kernels: ndarray.dot for @, and 0-d float64 scalar factors
    G = rng.standard_normal((n, n))
    Q, lam = G + G.T, rng.standard_normal(len(A))
    assert A.T.dot(lam).tobytes() == (A.T @ lam).tobytes(), \
        f"A.T.dot(lam) differs from A.T @ lam, {where}"
    for i, (x, y) in enumerate(zip(X, Y)):
        assert x.dot(y) == x @ y, f"a[i].dot(b[i]) differs from a[i] @ b[i], {where}"
        assert A.dot(x).tobytes() == (A @ x).tobytes(), f"A.dot(x) differs from A @ x, {where}"
        assert (0.5 * x).dot(Q).tobytes() == (0.5 * x @ Q).tobytes(), \
            f"(0.5 * x).dot(Q) differs from 0.5 * x @ Q, {where}"
        c = float(abs(X[i - 1, 0]))
        assert (np.array(c) * y).tobytes() == (c * y).tobytes(), \
            f"np.array(c) * v differs from c * v, {where}"
        assert (y / np.array(c)).tobytes() == (y / c).tobytes(), \
            f"v / np.array(c) differs from v / c, {where}"

    # the stationarity's product with A' and its row norms
    mask = rng.uniform(size=64) < 0.5
    for m in (1, 2, 5):
        At = rng.standard_normal((m, n)).T
        V = rng.standard_normal((65, m)) * rng.uniform(1e-3, 1e3, size=(65, 1))
        for block in (V, V[1:], V[:-1][mask]):
            stacked = np.matmul(At, block[..., None])[..., 0]
            G = stacked + X[:len(block)]
            norms = np.sqrt(np.add.reduce(G * G, axis=-1) + np.add.reduce(block * block, axis=-1))
            for i, v in enumerate(block):
                assert stacked[i].tobytes() == At.dot(v).tobytes(), \
                    f"np.matmul(A.T, V[..., None]) differs from A.T.dot(v), m={m}, {where}"
                g = At.dot(v) + X[i]
                assert norms[i] == math.sqrt(np.add.reduce(g * g) + np.add.reduce(v * v)), \
                    f"a block's row norm differs from the 1-D one, m={m}, {where}"
        one = np.matmul(At, V[0][..., None])[..., 0]
        assert one.tobytes() == At.dot(V[0]).tobytes(), \
            f"np.matmul(A.T, v[..., None]) differs from A.T.dot(v), m={m}, {where}"


def _block_face(M, free):
    """`_face_blocks`'s entry for the face of M that fixes the coordinates off
    `free` at their lower bound 0, and a `_System` of M to solve on it."""
    from scipy.linalg import cho_factor, get_lapack_funcs

    factor, lower = cho_factor(M)
    potrs, = get_lapack_funcs(("potrs",), (factor,))
    system = envelope._System(M, M.dot, factor, lower, potrs)
    at_lo, n = ~free, len(M)
    key = at_lo.tobytes() + np.zeros(n, bool).tobytes()
    return system, envelope._face_blocks(M, key, at_lo, np.zeros(n, bool),
                                         np.zeros(n), np.ones(n))


def test_face_solve_gives_cho_solves_bits(monkeypatch):
    """A face step's solve, `potrs` on the Cholesky factor of M_FF that the
    face keeps, gives `scipy.linalg.cho_solve(cho_factor(M_FF), rhs)`'s bits
    on every face block that the criterion-7 box-QPs and exp1's LiMEAL runs
    solve on, and on 1,200 random SPD blocks of n 1-8 with right-hand sides
    scaled 1e-6 to 1e6."""
    from scipy.linalg import cho_factor, cho_solve

    from mealopt.experiments import EXP1_INIT, exp1_configs
    from tests.test_acceptance import criterion_7_config

    where = f"on {platform_record()}"
    met, system_solve = [], envelope._System.solve

    def solve(system, v, factor=None):
        x = system_solve(system, v, factor)
        if factor is not None:
            _, free, _, face_factor, _ = system.face
            assert factor is face_factor
            met.append((system.M[np.ix_(free, free)], v, x))
        return x

    monkeypatch.setattr(envelope._System, "solve", solve)
    runs = [criterion_7_config(seed) + (None,) for seed in range(10)]
    runs += [(m.build_exp1(), cfg, EXP1_INIT) for _, cfg in exp1_configs()
             if cfg.algorithm == "limeal"]
    for prob, cfg, init in runs:
        m.run(prob, cfg, init=init)
    assert len(met) > 1000
    for M_FF, b, x in met:
        assert x.tobytes() == cho_solve(cho_factor(M_FF), b).tobytes(), \
            f"the face solve differs from cho_solve on a face block, {where}"

    rng = np.random.default_rng(24)
    for k in range(1200):
        n = k % 8 + 1
        G = rng.standard_normal((n + 1, n + 1))
        M = G @ G.T + rng.uniform(1e-3, 10.0) * np.eye(n + 1)
        free = np.arange(n + 1) != rng.integers(n + 1)
        system, (_, _, _, factor, _) = _block_face(M, free)
        b = rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 6)
        assert system_solve(system, b, factor).tobytes() == \
            cho_solve(cho_factor(M[np.ix_(free, free)]), b).tobytes(), \
            f"the face solve differs from cho_solve, n={n} {where}"


@pytest.mark.parametrize("block", [[[1.0, 2.0], [2.0, 4.0]], [[1.0, 2.0], [2.0, 1.0]]],
                         ids=["singular", "indefinite"])
def test_a_face_block_not_positive_definite_raises(block):
    # the face's factorization raises LinAlgError, and warns nothing
    import warnings

    M = np.eye(3)
    M[:2, :2] = block
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            _block_face(M, np.array([True, True, False]))


def test_each_face_is_factored_once(monkeypatch):
    # over the criterion-7 box-QPs, each face with free and fixed coordinates
    # is factored once, and its many face steps reuse the factor
    from tests.test_acceptance import criterion_7_config

    faces, factored, face_solves = [], [], []
    face_blocks, cho_factor, system_solve = (envelope._face_blocks, envelope.cho_factor,
                                             envelope._System.solve)

    def blocks(*args):
        entry = face_blocks(*args)
        faces.append(entry[3] is not None)
        return entry

    monkeypatch.setattr(envelope, "_face_blocks", blocks)
    monkeypatch.setattr(envelope, "cho_factor",
                        lambda M, **kw: factored.append(1) or cho_factor(M, **kw))
    monkeypatch.setattr(envelope._System, "solve", lambda system, v, factor=None: (
        face_solves.append(factor is not None) or system_solve(system, v, factor)))
    for seed in range(10):
        m.run(*criterion_7_config(seed))
    plans = 10
    assert len(factored) - plans == sum(faces) > 0
    assert sum(face_solves) > 10 * sum(faces)


def test_a_face_with_no_free_coordinate_is_its_clamped_point():
    # every coordinate of the prox step sits on a bound: the face step
    # returns that vertex of the box, not the clipped unconstrained minimizer
    prob = make_box_qp(3)
    ctx = EnvelopeContext(prob, m.PenaltyPlan.fixed(50.0, 0.05, 1.0))
    _, _, system, bounds, _, _ = ctx._exact_plan
    lo, hi = bounds
    c = -system.matvec((lo + hi) / 2)           # the minimizer is the box's centre
    x, t = lo.copy(), 1e8
    y = prob.prox_part.prox(t, x - t * (system.matvec(x) + c))
    assert np.all((y <= lo) | (y >= hi))
    x_face, _, _, steps = envelope._face_steps(prob.prox_part, system, bounds, t, x, c,
                                               1e-9, 1)
    assert steps == 1
    assert np.array_equal(x_face, np.where(y <= lo, lo, hi))


@st.composite
def _state_blocks(draw):
    """A composite box QP, a penalty plan and a block of 1 to 9 state pairs
    (prev row i, new row i; x, z, lam and residual stacked one state per
    row) with the new states' residuals; some x leave the box, where the
    objective is inf."""
    n = draw(st.integers(1, 8))
    mcon = draw(st.integers(1, n))
    rows = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    prob = make_box_qp(int(rng.integers(2 ** 31)), n=n, mcon=mcon)
    plan = m.PenaltyPlan.fixed(draw(st.sampled_from((1.0, 10.0, 50.0))),
                               draw(st.sampled_from((0.05, 0.25))),
                               draw(st.sampled_from((0.5, 1.0, 1.5))))
    scale = draw(st.sampled_from((1e-3, 1.0, 1e3)))
    X, Z = (rng.uniform(-0.2, 1.2, size=(rows + 1, n)) for _ in range(2))
    Lam = scale * rng.standard_normal((rows + 1, mcon))
    A, b = prob.constraint.A, prob.constraint.b
    resid = np.array([A @ x - b for x in X[1:]])
    prev = SimpleNamespace(x=X[:-1], z=Z[:-1], lam=Lam[:-1], residual=None)
    new = SimpleNamespace(x=X[1:], z=Z[1:], lam=Lam[1:], residual=resid)
    return prob, plan, prev, new


@settings(max_examples=60)
@given(case=_state_blocks(), carried=st.booleans(), with_f=st.booleans())
def test_block_energies_equal_the_per_state_energies(case, carried, with_f):
    """Every energy of a block of states is the array of its per-state values,
    bit for bit: the six Lyapunov variants, potential_P and the augmented
    Lagrangian, with the residual carried or formed again and with the
    objective given or evaluated."""
    prob, plan, prev, new = case
    try:
        ctx = EnvelopeContext(prob, plan)
    except m.MealoptError:
        return
    if not carried:
        new = SimpleNamespace(x=new.x, z=new.z, lam=new.lam, residual=None)
    f_rows = np.array([prob.objective_value(x) for x in new.x]) if with_f else None
    one = [m.IterateState(new.x[i], new.z[i], new.lam[i], i + 1,
                          residual=None if new.residual is None else new.residual[i])
           for i in range(len(new.x))]
    before = [m.IterateState(prev.x[i], prev.z[i], prev.lam[i], i)
              for i in range(len(prev.x))]

    def f(i):
        return None if f_rows is None else f_rows[i]

    energies = {
        "augmented_lagrangian": (
            lambda st, pv, fr: m.augmented_lagrangian(ctx, st, fr)),
        "potential_P": lambda st, pv, fr: potential_P(ctx, st, fr),
    }
    for variant in LYAPUNOV_COEFFICIENTS:
        energies[variant] = lambda st, pv, fr, v=variant: lyapunov(ctx, v, st, pv, fr)
    for name, energy in energies.items():
        block = energy(new, prev, f_rows)
        per_state = [energy(one[i], before[i], f(i)) for i in range(len(one))]
        assert block.shape == (len(one),)
        assert np.array_equal(block, per_state), name
