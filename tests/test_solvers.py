import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mealopt as m
from mealopt.envelope import EnvelopeContext
from mealopt.errors import (
    GammaTooLarge,
    MealoptError,
    NonFiniteValue,
    NotComposite,
    SubproblemNonconvexUnsupported,
)
from mealopt.solvers import (
    ALGORITHMS,
    TRACE_COLUMNS,
    IterateState,
    alm_step,
    imeal_step,
    limeal_step,
    meal_step,
    prox_ialm_step,
)
from tests.conftest import make_box_qp, make_convex_qp


def identity_problem(n=1):
    return m.Problem(m.LinearConstraint(np.eye(n), np.zeros(n)), m.Zero())


class TestMealStep:
    def test_hand_example(self):
        # f = 0, A = I, b = 0, gamma = 0.5, eta = 1, beta = 1, z = 3
        prob = identity_problem()
        ctx = EnvelopeContext(prob, m.PenaltyPlan.fixed(1.0, 0.5, 1.0))
        state = m.IterateState([0.0], [3.0], [0.0])
        new, rep = meal_step(ctx, state)
        assert new.x[0] == pytest.approx(2.0, abs=1e-10)
        assert new.z[0] == pytest.approx(2.0, abs=1e-10)
        assert new.lam[0] == pytest.approx(2.0, abs=1e-10)

    def test_kkt_fixed_point(self):
        prob = make_box_qp(0)
        pts, mults, _ = m.active_set_qp_oracle(
            prob.smooth.Q, prob.smooth.r, prob.constraint.A, prob.constraint.b,
            prob.prox_part.lower, prob.prox_part.upper)
        x_star, lam_star = pts[0], mults[0]
        ctx = EnvelopeContext(prob, m.PenaltyPlan.fixed(50.0, 0.3, 1.0),
                              m.InnerProxGradient(tol=1e-12, max_inner=300000))
        state = m.IterateState(x_star, x_star.copy(), lam_star)
        new, _ = meal_step(ctx, state)
        assert np.linalg.norm(new.x - x_star) <= 1e-8
        assert np.linalg.norm(new.lam - lam_star) <= 1e-8

    def test_eta_one_matches_reference_proximal_alm(self):
        # independent reference: prox center x^k, plain dense solve
        prob = make_convex_qp(21)
        Q, r, _ = prob.smooth.quadratic_terms()
        A, b = prob.constraint.A, prob.constraint.b
        gamma, beta = 0.4, 15.0
        ctx = EnvelopeContext(prob, m.PenaltyPlan.fixed(beta, gamma, 1.0))
        state = m.IterateState(np.zeros(prob.n), np.zeros(prob.n), np.zeros(prob.m))
        x_ref = np.zeros(prob.n)
        lam_ref = np.zeros(prob.m)
        H = Q + beta * A.T @ A + np.eye(prob.n) / gamma
        for _ in range(100):
            state, _ = meal_step(ctx, state)
            x_ref = np.linalg.solve(H, x_ref / gamma - r - A.T @ lam_ref + beta * A.T @ b)
            lam_ref = lam_ref + beta * (A @ x_ref - b)
            assert np.linalg.norm(state.x - x_ref) <= 1e-10
            assert np.linalg.norm(state.lam - lam_ref) <= 1e-10

    def test_report_norm_identity(self):
        prob = make_convex_qp(22)
        ctx = EnvelopeContext(prob, m.PenaltyPlan.fixed(10.0, 0.4, 1.3))
        state = m.IterateState(np.zeros(prob.n), np.ones(prob.n) * 0.3,
                               np.zeros(prob.m))
        new, rep = meal_step(ctx, state)
        lhs = rep.stationarity_norm ** 2
        # the envelope gradient's blocks, recomputed from the two states
        grad_z = (state.z - new.x) / ctx.plan.gamma
        grad_lam = prob.constraint.A @ new.x - prob.constraint.b
        rhs = np.sum(grad_z ** 2) + np.sum(grad_lam ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestImealStep:
    def test_exactness_limit_matches_meal(self, exp1_problem):
        plan = m.PenaltyPlan.fixed(50.0, 0.25, 1.0)
        ctx = EnvelopeContext(exp1_problem, plan,
                              m.InnerProxGradient(tol=1e-13, max_inner=500000))
        s_meal = m.IterateState([1.0, -1.0], [1.0, -1.0], [0.0])
        s_imeal = m.IterateState([1.0, -1.0], [1.0, -1.0], [0.0])
        for _ in range(15):
            s_meal, _ = meal_step(ctx, s_meal)
            s_imeal, rep = imeal_step(ctx, s_imeal, 1e-13)
            assert rep.inexact_residual_norm <= 1e-13
        assert np.linalg.norm(s_meal.x - s_imeal.x) <= 1e-10
        assert np.linalg.norm(s_imeal.lam - s_meal.lam) <= 1e-10

    def test_loose_epsilon_is_certified(self, exp1_problem):
        ctx = EnvelopeContext(exp1_problem, m.PenaltyPlan.fixed(50.0, 0.25, 1.0),
                              m.InnerProxGradient(tol=1e-12))
        state = m.IterateState([1.0, -1.0], [1.0, -1.0], [0.0])
        new, rep = imeal_step(ctx, state, 1e2)
        # one inner pass suffices at this tolerance: barely moved, certified
        assert rep.inexact_residual_norm <= 1e2


class TestLimealStep:
    def test_vanishing_smooth_part_degenerates_to_meal(self):
        # h identically zero: linearization changes nothing
        n = 3
        rng = np.random.default_rng(23)
        A = rng.normal(size=(1, n))
        prob_pure = m.Problem(m.LinearConstraint(A, [0.0]), m.L1(weight=0.5))
        prob_comp = m.Problem(m.LinearConstraint(A, [0.0]), m.L1(weight=0.5),
                              m.QuadraticSmooth(np.zeros((n, n))))
        plan = m.PenaltyPlan.fixed(5.0, 0.5, 1.2)
        ctx_meal = EnvelopeContext(prob_pure, plan,
                                   m.InnerProxGradient(tol=1e-12, max_inner=200000))
        ctx_lim = EnvelopeContext(prob_comp, plan,
                                  m.InnerProxGradient(tol=1e-12, max_inner=200000))
        s1 = m.IterateState(np.ones(n), np.ones(n), [0.0])
        s2 = m.IterateState(np.ones(n), np.ones(n), [0.0])
        for _ in range(10):
            s1, _ = meal_step(ctx_meal, s1)
            s2, _ = limeal_step(ctx_lim, s2)
        assert np.linalg.norm(s1.x - s2.x) <= 1e-9

    def test_one_step_equals_transcribed_fast_path(self):
        prob = m.build_exp2(seed=5, m=2, n=6)
        Q, r, _ = prob.smooth.quadratic_terms()
        A, b = prob.constraint.A, prob.constraint.b
        gamma, beta, eta = 0.08, 12.0, 1.3
        ctx = EnvelopeContext(prob, m.PenaltyPlan.fixed(beta, gamma, eta),
                              m.Paper72FastPath())
        rng = np.random.default_rng(24)
        x = rng.uniform(0, 1, prob.n)
        z = rng.uniform(0, 1, prob.n)
        lam = rng.normal(size=prob.m)
        state = m.IterateState(x, z, lam)
        new, _ = limeal_step(ctx, state)
        M = beta * A.T @ A + np.eye(prob.n) / gamma
        x_tilde = np.linalg.solve(M, z / gamma + beta * A.T @ b - r - Q @ x - A.T @ lam)
        x_next = np.clip(x_tilde, 0.0, 1.0)
        np.testing.assert_allclose(new.x, x_next, atol=1e-10)
        np.testing.assert_allclose(new.z, (1 - eta) * z + eta * x_next, atol=1e-12)
        np.testing.assert_allclose(new.lam, lam + beta * (A @ x_next - b), atol=1e-12)

    def test_prox_form_identity_on_exact_path(self, exp1_problem):
        # x' = prox_g(z - gamma (grad h(x) + A' lam')) after an exact solve
        gamma = 0.5
        ctx = EnvelopeContext(exp1_problem, m.PenaltyPlan.fixed(50.0, gamma, 1.0),
                              m.InnerProxGradient(tol=1e-12, max_inner=500000))
        state = m.IterateState([1.0, -1.0], [1.0, -1.0], [0.0])
        for _ in range(5):
            new, _ = limeal_step(ctx, state)
            inner = state.z - gamma * (exp1_problem.smooth_gradient(state.x)
                                       + exp1_problem.constraint.A.T @ new.lam)
            expected = exp1_problem.prox_part.prox(gamma, inner)
            assert np.linalg.norm(new.x - expected) <= 1e-8
            state = new

    def test_requires_composite(self):
        prob = m.Problem(m.LinearConstraint([[1.0]], [0.0]), m.QuadraticForm(Q=[[1.0]]))
        ctx = EnvelopeContext(prob, m.PenaltyPlan.fixed(1.0, 0.5, 1.0))
        with pytest.raises(NotComposite):
            limeal_step(ctx, m.IterateState([0.0], [0.0], [0.0]))


class TestAlmStep:
    def test_convex_fixed_point(self):
        prob = make_convex_qp(25)
        pts, mults, _ = m.active_set_qp_oracle(
            prob.smooth.Q, prob.smooth.r, prob.constraint.A, prob.constraint.b,
            [-np.inf] * prob.n, [np.inf] * prob.n)
        x_star, lam_star = pts[0], mults[0]
        ctx = EnvelopeContext(prob, m.PenaltyPlan.fixed(10.0, 0.4, 1.0))
        state = m.IterateState(x_star, x_star.copy(), lam_star)
        new, _ = alm_step(ctx, state)
        assert np.linalg.norm(new.x - x_star) <= 1e-8

    def test_exp1_subproblem_hessian_indefinite(self, exp1_problem):
        # the unreduced augmented Lagrangian Hessian has negative determinant,
        # so a plain linear solve would land on a saddle: the step must route
        # through the global enumeration; the context's faces hold H
        ctx = EnvelopeContext(exp1_problem, m.PenaltyPlan.fixed(50.0, 0.25, 1.0))
        H = ctx._alm[0].Q
        assert np.linalg.det(H) < 0

    def test_exp1_lambda_cycle(self, exp1_problem):
        # hand-derived two-cycle: lambda alternates +-50/23, |x - y| = 2/23
        ctx = EnvelopeContext(exp1_problem, m.PenaltyPlan.fixed(50.0, 0.25, 1.0))
        state = m.IterateState(np.zeros(2), np.zeros(2), np.zeros(1))
        lams, feas = [], []
        for _ in range(60):
            state, rep = alm_step(ctx, state)
            lams.append(state.lam[0])
            feas.append(rep.feasibility)
        assert abs(abs(lams[-1]) - 50.0 / 23.0) <= 1e-9
        assert abs(lams[-1] + lams[-2]) <= 1e-9          # alternating signs
        assert feas[-1] == pytest.approx(2.0 / 23.0, abs=1e-9)


class TestProxIALMStep:
    def _setup(self, seed=26):
        prob = m.build_exp2(seed=seed, m=2, n=6)
        qn = float(np.linalg.norm(prob.smooth.Q, 2))
        p_coef = 2.0 * qn
        an2 = float(np.linalg.norm(prob.constraint.A, 2)) ** 2
        s = 1.0 / (2 * (qn + p_coef + 50 * an2))
        plan = m.PenaltyPlan.fixed(50.0, gamma=1.0 / p_coef, eta=1.0)
        return prob, plan, s

    def test_eta_one_alias_is_bitwise(self):
        prob, plan, _ = self._setup()
        ctx = EnvelopeContext(prob, plan)
        rng = np.random.default_rng(27)
        s1 = s2 = m.IterateState(rng.uniform(0, 1, prob.n),
                                 rng.uniform(0, 1, prob.n), np.zeros(prob.m))
        for _ in range(25):
            s1, _ = prox_ialm_step(ctx, s1)
            s2, _ = prox_ialm_step(ctx, s2)
            assert np.array_equal(s1.x, s2.x)
            assert np.array_equal(s1.lam, s2.lam)

    def test_matches_transcribed_update(self):
        prob, plan, s = self._setup(seed=28)
        ctx = EnvelopeContext(prob, plan)
        Q, r, _ = prob.smooth.quadratic_terms()
        A, b = prob.constraint.A, prob.constraint.b
        rng = np.random.default_rng(28)
        x = rng.uniform(0, 1, prob.n)
        z = rng.uniform(0, 1, prob.n)
        lam = rng.normal(size=prob.m)
        new, _ = prox_ialm_step(ctx, m.IterateState(x, z, lam))
        beta, p_coef = 50.0, 1.0 / plan.gamma
        xbar = (beta * A.T @ A + p_coef * np.eye(prob.n)) @ x + Q @ x \
            + A.T @ lam - p_coef * z - (beta * A.T @ b - r)
        x_next = np.clip(x - s * xbar, 0.0, 1.0)
        np.testing.assert_allclose(new.x, x_next, atol=1e-12)


class TestRun:
    def test_trivial_converges_at_zero(self):
        prob = identity_problem(2)
        cfg = m.SolverConfig("meal", m.PenaltyPlan.fixed(1.0, 0.5, 1.0))
        tr = m.run(prob, cfg)
        assert tr.status == "Converged"
        assert tr.converged_at == 0
        assert tr.n_rows == 2
        # started at a first-order point: the measure is zero throughout
        assert np.all(tr.column("stationarity") <= 1e-14)

    def test_update_identities_exact(self):
        prob = make_convex_qp(29)
        eta, beta = 1.3, 12.0
        ctx = EnvelopeContext(prob, m.PenaltyPlan.fixed(beta, 0.4, eta))
        state = m.IterateState(np.zeros(prob.n), np.zeros(prob.n), np.zeros(prob.m))
        A, b = prob.constraint.A, prob.constraint.b
        for _ in range(50):
            new, _ = meal_step(ctx, state)
            assert np.array_equal(new.z, (1.0 - eta) * state.z + eta * new.x)
            assert np.array_equal(new.lam, state.lam + beta * (A @ new.x - b))
            state = new

    def test_stationarity_column_nonincreasing_for_meal(self):
        prob = make_convex_qp(30)
        cfg = m.SolverConfig("meal", m.PenaltyPlan.fixed(20.0, 0.4, 1.0),
                             stop=m.StopRule(max_iters=60, stat_tol=1e-12,
                                             feas_tol=1e-12))
        tr = m.run(prob, cfg)
        col = tr.column("stationarity")
        assert np.all(np.diff(col) <= 1e-15)

    def test_terminal_kkt_within_ten_times_tolerance(self):
        prob = make_convex_qp(31)
        cfg = m.SolverConfig("meal", m.PenaltyPlan.fixed(30.0, 0.4, 1.0),
                             stop=m.StopRule(max_iters=3000, stat_tol=1e-8,
                                             feas_tol=1e-8))
        tr = m.run(prob, cfg)
        assert tr.status == "Converged"
        rep = m.kkt_residual(prob, tr.terminal.x, tr.terminal.lam)
        assert rep.stationarity_residual <= 10 * 1e-8
        assert rep.feasibility <= 10 * 1e-8

    def test_row_count_bounded_by_budget(self):
        prob = make_convex_qp(32)
        cfg = m.SolverConfig("meal", m.PenaltyPlan.fixed(5.0, 0.4, 0.5),
                             stop=m.StopRule(max_iters=7, stat_tol=1e-14,
                                             feas_tol=1e-14))
        tr = m.run(prob, cfg)
        assert tr.status == "MaxIters"
        assert tr.n_rows == 8

    def test_horizon_budget_stops_at_K(self):
        prob = make_convex_qp(33)
        plan = m.PenaltyPlan.horizon(K=5, alpha_target=0.05, gamma=0.4, eta=1.0)
        cfg = m.SolverConfig("meal", plan,
                             stop=m.StopRule(max_iters=100, stat_tol=1e-14,
                                             feas_tol=1e-14))
        tr = m.run(prob, cfg)
        assert tr.n_rows <= 6

    def test_divergence_guard(self):
        # concave objective with a penalty too weak to hold it back: the
        # iterates blow up geometrically once off the stationary origin
        prob = m.Problem(m.LinearConstraint([[1.0]], [0.0]),
                         m.QuadraticForm(Q=[[-0.5]]))
        cfg = m.SolverConfig("meal", m.PenaltyPlan.fixed(0.1, 1.0, 1.0),
                             stop=m.StopRule(max_iters=500, stat_tol=1e-12,
                                             feas_tol=1e-12))
        tr = m.run(prob, cfg, init=(np.ones(1), np.ones(1), np.zeros(1)))
        assert tr.status == "DivergenceDetected"

    def test_gamma_validation_per_algorithm(self, exp1_problem):
        # rho_total = 2: the full-objective path rejects gamma = 0.5, the
        # linearized path accepts it (rho_g = 0)
        plan = m.PenaltyPlan.fixed(50.0, 0.5, 1.0)
        with pytest.raises(GammaTooLarge):
            m.run(exp1_problem, m.SolverConfig("meal", plan))
        cfg = m.SolverConfig("limeal", plan,
                             stop=m.StopRule(max_iters=3, stat_tol=1e-6,
                                             feas_tol=1e-6))
        m.run(exp1_problem, cfg, init=(np.ones(2), np.ones(2), np.zeros(1)))

    def test_imeal_tracks_meal_on_exp1(self, exp1_problem):
        # the first experiment's stationary points form a continuum, so the
        # default schedule's early slack shifts which one the inexact run
        # lands on (the drift is bounded by the summed schedule); both limits
        # are stationary, and the limits coincide once the schedule tightens
        stop = m.StopRule(max_iters=400, stat_tol=1e-8, feas_tol=1e-8)
        plan = m.PenaltyPlan.fixed(50.0, 0.25, 1.0)
        init = (np.array([1.0, -1.0]), np.array([1.0, -1.0]), np.zeros(1))
        sub = m.InnerProxGradient(tol=1e-12, max_inner=300000)
        tr_meal = m.run(exp1_problem, m.SolverConfig("meal", plan, subproblem=sub,
                                                     stop=stop), init=init)
        tr_loose = m.run(exp1_problem, m.SolverConfig(
            "imeal", plan, subproblem=sub,
            epsilon_schedule=m.EpsilonSchedule(1e-2), stop=stop), init=init)
        tr_tight = m.run(exp1_problem, m.SolverConfig(
            "imeal", plan, subproblem=sub,
            epsilon_schedule=m.EpsilonSchedule(1e-9), stop=stop), init=init)
        assert tr_meal.status == tr_loose.status == tr_tight.status == "Converged"
        assert np.linalg.norm(tr_meal.terminal.x - tr_loose.terminal.x) <= 1e-2
        for tr in (tr_loose, tr_tight):
            rep = m.kkt_residual(exp1_problem, tr.terminal.x, tr.terminal.lam)
            assert rep.stationarity_residual <= 1e-6
        assert np.linalg.norm(tr_meal.terminal.x - tr_tight.terminal.x) <= 1e-6

    @staticmethod
    def _limeal_budget_run(problem, max_inner):
        cfg = m.SolverConfig("limeal", m.PenaltyPlan.fixed(50.0, 0.5, 1.0),
                             subproblem=m.InnerProxGradient(tol=1e-14,
                                                            max_inner=max_inner),
                             stop=m.StopRule(max_iters=50, stat_tol=1e-9,
                                             feas_tol=1e-9))
        return m.run(problem, cfg,
                     init=(np.array([1.0, -1.0]), np.array([1.0, -1.0]), np.zeros(1)))

    def test_inner_budget_exhausted_status(self, exp1_problem):
        # an L1 prox part: the accelerated loop alone, no face steps
        prob = m.Problem(exp1_problem.constraint, m.L1(weight=0.1),
                         exp1_problem.smooth)
        tr = self._limeal_budget_run(prob, max_inner=3)
        assert tr.status == "InnerBudgetExhausted"

    def test_face_steps_honour_max_inner(self, exp1_problem):
        tr = self._limeal_budget_run(exp1_problem, max_inner=1)
        assert tr.status == "InnerBudgetExhausted"
        assert tr.inner_iterations == [1, 1]

    def test_alm_unsupported_objective(self):
        prob = m.Problem(m.LinearConstraint([[1.0, 0.0]], [0.0]), m.L1(weight=1.0))
        ctx = EnvelopeContext(prob, m.PenaltyPlan.fixed(5.0, 0.5, 1.0))
        from mealopt.errors import SubproblemNonconvexUnsupported

        with pytest.raises(SubproblemNonconvexUnsupported):
            alm_step(ctx, m.IterateState(np.zeros(2), np.zeros(2), np.zeros(1)))

    @pytest.mark.parametrize("build", [
        lambda: m.Problem(m.LinearConstraint([[1.0, 0.0]], [0.0]), m.L1(weight=1.0)),
        lambda: m.Problem(make_convex_qp(3).constraint, m.SCAD(lam=0.3, a=3.7),
                          make_convex_qp(3).smooth),
        lambda: make_box_qp(0, n=9),
    ], ids=["l1", "scad-quadratic", "box-qp-n9"])
    def test_alm_requirements_checked_by_validate(self, build):
        cfg = m.SolverConfig("alm", m.PenaltyPlan.fixed(5.0, 0.5, 1.0))
        with pytest.raises(SubproblemNonconvexUnsupported):
            cfg.validate(build())

    @pytest.mark.parametrize("plan, bounded", [
        (m.PenaltyPlan.fixed(10.0, 0.5, 1.0), False),
        (m.PenaltyPlan.fixed(50.0, 0.5, 1.0), True),
        (m.PenaltyPlan.horizon(1, 10.0, 0.5, 1.0), False),   # beta about 5.3
        (m.PenaltyPlan.horizon(1, 1.0, 0.5, 1.0), True),     # beta about 53
    ])
    def test_alm_free_curvature_checked_by_validate(self, plan, bounded):
        # Q + beta A'A = -1 + 0.075 beta on the one coordinate without bounds
        prob = m.Problem(m.LinearConstraint([[0.274]], [0.0]), m.Zero(),
                         m.QuadraticSmooth([[-1.0]]))
        cfg = m.SolverConfig("alm", plan, stop=m.StopRule(max_iters=3))
        if bounded:
            assert m.run(prob, cfg).status in STATUSES
        else:
            with pytest.raises(SubproblemNonconvexUnsupported, match="unbounded below"):
                cfg.validate(prob)

    def test_meal_rejects_fast_path(self):
        prob = m.build_exp2(seed=6, m=2, n=4)
        from mealopt.errors import InvalidSubproblemPath

        ctx = EnvelopeContext(prob, m.PenaltyPlan.fixed(5.0, 0.02, 1.0),
                              m.Paper72FastPath())
        with pytest.raises(InvalidSubproblemPath):
            meal_step(ctx, m.IterateState(np.zeros(4), np.zeros(4), np.zeros(2)))

    @pytest.mark.parametrize("bad", ["direct", None, m.Paper72FastPath])
    def test_bad_subproblem_value_rejected(self, bad):
        from mealopt.errors import InvalidSubproblemPath

        cfg = m.SolverConfig("limeal", m.PenaltyPlan.fixed(50.0, 0.5, 1.0),
                             subproblem=bad)
        with pytest.raises(InvalidSubproblemPath) as err:
            cfg.validate(m.build_exp1())
        for name in ('"auto"', "InnerProxGradient", "Paper72FastPath"):
            assert name in str(err.value)

    def test_init_dimension_mismatch_rejected(self):
        prob = identity_problem(2)
        cfg = m.SolverConfig("meal", m.PenaltyPlan.fixed(1.0, 0.5, 1.0))
        with pytest.raises(ValueError, match="dimensions"):
            m.run(prob, cfg, init=(np.zeros(3), np.zeros(3), np.zeros(2)))

    @pytest.mark.parametrize("bad", [0.0, float("nan")])
    def test_positive_fields_reject_zero_and_nan(self, bad):
        for build in (lambda v: m.StopRule(stat_tol=v), lambda v: m.StopRule(feas_tol=v),
                      m.EpsilonSchedule,
                      lambda v: m.PenaltyPlan.fixed(v, gamma=0.5, eta=1.0),
                      lambda v: m.PenaltyPlan.fixed(1.0, gamma=v, eta=1.0),
                      lambda v: m.InnerProxGradient(tol=v)):
            with pytest.raises(ValueError):
                build(bad)

    @pytest.mark.parametrize("build", [
        lambda v: m.PenaltyPlan.fixed(v, gamma=0.5, eta=1.0),
        lambda v: m.PenaltyPlan.fixed(1.0, gamma=v, eta=1.0),
        lambda v: m.PenaltyPlan.horizon(5, v, gamma=0.5, eta=1.0),
        m.EpsilonSchedule,
        lambda v: m.StopRule(stat_tol=v),
        lambda v: m.StopRule(feas_tol=v),
        lambda v: m.InnerProxGradient(tol=v),
    ], ids=["beta", "gamma", "alpha_target", "eps0", "stat_tol", "feas_tol", "inner_tol"])
    def test_positive_fields_reject_infinity(self, build):
        """An infinite penalty or tolerance is rejected where it is set, not
        met later in run (an infinite tolerance would stop any run at once)."""
        with pytest.raises(ValueError, match="finite"):
            build(math.inf)
        build(1e300)

    @pytest.mark.parametrize("build", [
        lambda v: m.InnerProxGradient(max_inner=v),
        lambda v: m.StopRule(max_iters=v),
        lambda v: m.PenaltyPlan.horizon(v, 1.0, gamma=0.5, eta=1.0),
    ], ids=["max_inner", "max_iters", "K"])
    def test_counts_must_be_integers(self, build):
        """A fractional count would pass a `< 1` check and then raise
        TypeError from range() inside run, so it is rejected here."""
        for bad in (2.5, 3.0, "3", None):
            with pytest.raises(ValueError, match="integer"):
                build(bad)
        build(3)
        build(np.int64(3))

    def test_penalty_plan_validation(self):
        with pytest.raises(ValueError):
            m.PenaltyPlan.fixed(50.0, gamma=0.5, eta=2.0)
        with pytest.raises(ValueError):
            m.PenaltyPlan.fixed(-1.0, gamma=0.5, eta=1.0)

    def test_lyapunov_column_nonincreasing_on_compliant_run(self, exp1_problem):
        # beta chosen from the cap calculus: the recorded Lyapunov values
        # must descend from k = 1 on
        from mealopt.envelope import alpha_cap, beta_for_target_alpha

        gamma, eta = 0.25, 1.0
        probe = m.PenaltyPlan.fixed(1.0, gamma, eta)
        cap = alpha_cap(exp1_problem, probe, "meal-a")
        c = EnvelopeContext(exp1_problem, probe).c_gamma_A
        beta = beta_for_target_alpha(cap, gamma, eta, c)
        cfg = m.SolverConfig("meal", m.PenaltyPlan.fixed(beta, gamma, eta),
                             subproblem=m.InnerProxGradient(tol=1e-11,
                                                            max_inner=300000),
                             stop=m.StopRule(max_iters=150, stat_tol=1e-12,
                                             feas_tol=1e-12))
        tr = m.run(exp1_problem, cfg,
                   init=(np.array([1.0, -1.0]), np.array([1.0, -1.0]), np.zeros(1)))
        lyap = tr.column("lyapunov")[1:]
        assert np.all(np.diff(lyap) <= 1e-9)

    @pytest.mark.parametrize("algo", ["meal", "limeal"])
    def test_scad_composite_reaches_certified_stationarity(self, algo):
        rng = np.random.default_rng(77)
        n, mc = 4, 2
        G = rng.uniform(-1, 1, size=(n, n))
        Q = G @ G.T / n + 0.2 * np.eye(n)
        prob = m.Problem(
            m.LinearConstraint(rng_A := rng.uniform(-1, 1, size=(mc, n)),
                               rng_A @ rng.uniform(-1, 1, size=n)),
            m.SCAD(lam=0.3, a=3.7),
            m.QuadraticSmooth(Q, rng.uniform(-1, 1, size=n)))
        gamma = 0.5 / prob.rho_total
        cfg = m.SolverConfig(algo, m.PenaltyPlan.fixed(30.0, gamma=gamma, eta=1.0),
                             subproblem=m.InnerProxGradient(tol=1e-10,
                                                            max_inner=200000),
                             stop=m.StopRule(max_iters=3000, stat_tol=1e-8,
                                             feas_tol=1e-8))
        tr = m.run(prob, cfg)
        assert tr.status == "Converged"
        rep = m.kkt_residual(prob, tr.terminal.x, tr.terminal.lam)
        assert rep.stationarity_residual <= 1e-7
        assert rep.feasibility <= 1e-8

    def test_mcp_composite_reaches_certified_stationarity(self):
        rng = np.random.default_rng(78)
        n, mc = 4, 2
        G = rng.uniform(-1, 1, size=(n, n))
        Q = G @ G.T / n + 0.2 * np.eye(n)
        A = rng.uniform(-1, 1, size=(mc, n))
        prob = m.Problem(m.LinearConstraint(A, A @ rng.uniform(-1, 1, size=n)),
                         m.MCP(lam=0.3, a=3.0),
                         m.QuadraticSmooth(Q, rng.uniform(-1, 1, size=n)))
        gamma = 0.5 / prob.rho_total
        cfg = m.SolverConfig("limeal", m.PenaltyPlan.fixed(30.0, gamma=gamma, eta=1.0),
                             subproblem=m.InnerProxGradient(tol=1e-10,
                                                            max_inner=200000),
                             stop=m.StopRule(max_iters=3000, stat_tol=1e-8,
                                             feas_tol=1e-8))
        tr = m.run(prob, cfg)
        assert tr.status == "Converged"
        rep = m.kkt_residual(prob, tr.terminal.x, tr.terminal.lam)
        assert rep.stationarity_residual <= 1e-7

    def test_imeal_matches_meal_limit_on_unique_minimizer(self):
        # strongly convex instance, unique limit; note the computable
        # stationarity proxy floors at the current inexactness level, so the
        # inexact run's status is not asserted, only its limit
        prob = make_convex_qp(34)
        stop = m.StopRule(max_iters=2000, stat_tol=1e-9, feas_tol=1e-9)
        plan = m.PenaltyPlan.fixed(30.0, 0.4, 1.0)
        tr_meal = m.run(prob, m.SolverConfig("meal", plan, stop=stop))
        tr_imeal = m.run(prob, m.SolverConfig(
            "imeal", plan, subproblem=m.InnerProxGradient(tol=1e-12, max_inner=300000),
            epsilon_schedule=m.EpsilonSchedule(1e-3), stop=stop))
        assert tr_meal.status == "Converged"
        assert np.linalg.norm(tr_meal.terminal.x - tr_imeal.terminal.x) <= 1e-6


class TestAcceptedSubproblemSpecs:
    @pytest.mark.parametrize("algo, spec", [
        ("meal", m.Paper72FastPath()),
        ("imeal", m.Paper72FastPath()),
        ("alm", m.InnerProxGradient()),
        ("prox_ialm", m.Paper72FastPath()),
        ("prox_ialm", m.InnerProxGradient()),
    ])
    def test_validate_rejects_a_spec_the_algorithm_does_not_take(self, algo, spec):
        from mealopt.errors import InvalidSubproblemPath

        cfg = m.SolverConfig(algo, m.PenaltyPlan.fixed(5.0, 0.02, 1.0), subproblem=spec)
        with pytest.raises(InvalidSubproblemPath) as err:
            cfg.validate(m.build_exp2(seed=6, m=2, n=4))
        assert str(err.value).startswith(f"{algo} ")

    @pytest.mark.parametrize("algo, spec", [
        ("meal", m.InnerProxGradient()),
        ("imeal", m.InnerProxGradient()),
        ("limeal", m.InnerProxGradient()),
        ("limeal", m.Paper72FastPath()),
    ])
    def test_validate_accepts_a_spec_the_algorithm_takes(self, algo, spec):
        cfg = m.SolverConfig(algo, m.PenaltyPlan.fixed(5.0, 0.02, 1.0), subproblem=spec)
        cfg.validate(m.build_exp2(seed=6, m=2, n=4))

    @pytest.mark.parametrize("algo, spec, prob", [
        ("limeal", m.Paper72FastPath(),
         m.Problem(m.LinearConstraint([[1.0, 1.0]], [1.0]), m.L1(weight=0.5),
                   m.QuadraticSmooth(np.eye(2)))),
    ], ids=["fast-path-on-l1"])
    def test_validate_checks_the_spec_against_the_problem(self, algo, spec, prob):
        from mealopt.errors import InvalidSubproblemPath

        cfg = m.SolverConfig(algo, m.PenaltyPlan.fixed(5.0, 0.02, 1.0), subproblem=spec)
        with pytest.raises(InvalidSubproblemPath):
            cfg.validate(prob)

    @pytest.mark.parametrize("spec", ["auto", m.InnerProxGradient(), m.Paper72FastPath()],
                             ids=["auto", "inner", "paper72"])
    def test_limeal_factors_only_the_matrix_it_solves_with(self, spec):
        # H = A'A + 2I is positive definite, H + Q is not; the linearized
        # step solves with H alone, so the run diverges instead of raising
        prob = m.Problem(m.LinearConstraint([[1.0, 1.0]], [1.0]), m.Zero(),
                         m.QuadraticSmooth(np.diag([1.0, -30.0])))
        cfg = m.SolverConfig("limeal", m.PenaltyPlan.fixed(1.0, 0.5, 1.0),
                             subproblem=spec)
        cfg.validate(prob)
        assert m.run(prob, cfg).status == "DivergenceDetected"


def _carried_value_cases():
    from mealopt.experiments import EXP1_INIT

    both = m.MonitorFlags(one_step_progress=True, dual_by_primal=True)
    inner = m.InnerProxGradient(tol=1e-11, max_inner=300000)
    return [
        pytest.param(m.build_exp1(), m.SolverConfig(
            "meal", m.PenaltyPlan.fixed(50.0, 0.25, 1.0), subproblem=inner,
            monitors=both), EXP1_INIT, id="meal-exp1"),
        pytest.param(make_convex_qp(1), m.SolverConfig(
            "meal", m.PenaltyPlan.fixed(10.0, 0.5, 1.5), monitors=both),
            (np.zeros(5), np.zeros(5), np.zeros(2)), id="meal-qp"),
        pytest.param(m.build_exp1(), m.SolverConfig(
            "limeal", m.PenaltyPlan.fixed(50.0, 0.5, 1.0), subproblem=inner),
            EXP1_INIT, id="limeal-exp1"),
        pytest.param(m.build_exp1(), m.SolverConfig(
            "alm", m.PenaltyPlan.fixed(50.0, 0.5, 1.0)), EXP1_INIT, id="alm-exp1"),
    ]


L1_PROBLEM = m.Problem(m.LinearConstraint([[1.0, 2.0, -1.0]], [0.5]), m.L1(weight=0.5),
                       m.QuadraticSmooth(np.eye(3)))


@pytest.mark.parametrize("algorithm, step", [
    ("meal", lambda ctx, st, cfg: meal_step(ctx, st)),
    ("imeal", lambda ctx, st, cfg: imeal_step(ctx, st, cfg.epsilon_schedule(st.k))),
    ("limeal", lambda ctx, st, cfg: limeal_step(ctx, st)),
], ids=["meal", "imeal", "limeal"])
def test_chained_steps_are_the_run(algorithm, step):
    # a step reads only its context and state, so direct calls retrace run
    cfg = m.SolverConfig(algorithm, m.PenaltyPlan.fixed(5.0, 0.3, 0.5),
                         stop=m.StopRule(4, 1e-14, 1e-14))
    init = (np.ones(3), np.ones(3), np.zeros(1))
    tr = m.run(L1_PROBLEM, cfg, init=init)
    ctx = EnvelopeContext(L1_PROBLEM, cfg.plan, cfg.resolve_subproblem())
    state = m.IterateState(*init)
    for _ in range(4):
        state, _ = step(ctx, state, cfg)
    assert tr.terminal.k == state.k == 4
    np.testing.assert_array_equal(state.x, tr.terminal.x)
    np.testing.assert_array_equal(state.lam, tr.terminal.lam)


@pytest.mark.parametrize("prob, cfg, match", [
    (m.build_exp1(), m.SolverConfig("alm", m.PenaltyPlan.fixed(50.0, 0.5, 0.5)), "eta"),
    (L1_PROBLEM, m.SolverConfig(
        "meal", m.PenaltyPlan.fixed(5.0, 0.3, 1.0),
        monitors=m.MonitorFlags(one_step_progress=True)), "s1 Lyapunov"),
], ids=["alm-eta-half", "progress-monitor-bounded-class"])
def test_validate_rejects_a_setting_the_run_cannot_honour(prob, cfg, match):
    with pytest.raises(ValueError, match=match):
        cfg.validate(prob)


@pytest.mark.parametrize("algorithm, plan", [
    ("meal", m.PenaltyPlan.fixed(1e300, 0.01, 1.0)),
    ("meal", m.PenaltyPlan.fixed(1.0, 1e-300, 1.0)),
    ("meal", m.PenaltyPlan.horizon(3, 1e-300, 0.01, 1.0)),
    ("limeal", m.PenaltyPlan.fixed(1e300, 0.01, 1.0)),
    ("prox_ialm", m.PenaltyPlan.fixed(1e300, 0.01, 1.0)),
], ids=["meal-beta-overflow", "meal-gamma-underflow", "meal-horizon-target-underflow",
        "limeal-beta-overflow", "prox_ialm-beta-overflow"])
def test_validate_rejects_a_penalty_with_no_finite_alpha(algorithm, plan):
    # validate builds the run's context, which fixes beta and alpha
    from mealopt.errors import PenaltyOutOfRange

    with pytest.raises(PenaltyOutOfRange):
        m.SolverConfig(algorithm, plan).validate(m.build_exp2(seed=3, m=2, n=6))


@pytest.mark.parametrize("algorithm", list(ALGORITHMS))
def test_run_steps_with_the_context_validate_returns(algorithm, monkeypatch):
    from dataclasses import replace

    from mealopt import solvers

    made, used = [], []
    real_validate, real_step = m.SolverConfig.validate, solvers.ALGORITHMS[algorithm].step
    monkeypatch.setattr(m.SolverConfig, "validate",
                        lambda cfg, prob: made.append(real_validate(cfg, prob)) or made[-1])
    monkeypatch.setitem(solvers.ALGORITHMS, algorithm, replace(
        solvers.ALGORITHMS[algorithm],
        step=lambda ctx, st, cfg: used.append(ctx) or real_step(ctx, st, cfg)))
    cfg = m.SolverConfig(algorithm, m.PenaltyPlan.fixed(50.0, 0.25, 1.0),
                         stop=m.StopRule(max_iters=3))
    m.run(m.build_exp1(), cfg)
    assert len(made) == 1 and isinstance(made[0], EnvelopeContext)
    assert used and all(ctx is made[0] for ctx in used)


def test_one_gram_eigendecomposition_per_alm_horizon_run(monkeypatch):
    # validation reads the horizon beta from the constraint's kept spectrum,
    # and the run's context reuses it
    from mealopt.experiments import EXP1_INIT

    prob = m.build_exp1()
    A = prob.constraint.A
    grams = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda M: grams.append(np.array_equal(M, A @ A.T)) or real(M))
    cfg = m.SolverConfig("alm", m.PenaltyPlan.horizon(5, 0.05, 0.5, 1.0))
    tr = m.run(prob, cfg, init=EXP1_INIT)
    assert tr.n_rows - 1 == 5
    assert sum(grams) == 1


def test_alm_prepares_its_faces_once_per_run(monkeypatch):
    # the subproblem's Hessian and box are fixed for the run: a 5-step and a
    # 200-step run make one face preparation and one free-block curvature
    # check, both in validate's context
    from mealopt import envelope
    from mealopt.experiments import EXP1_INIT

    problems = {steps: m.build_exp1() for steps in (5, 200)}
    gram = problems[5].constraint.A @ problems[5].constraint.A.T
    counts = {}
    real_faces, real_eigvalsh = envelope.BoxFaces, np.linalg.eigvalsh

    def faces(*args):
        counts["faces"] += 1
        return real_faces(*args)

    def eigvalsh(M):
        counts["free_blocks"] += not np.array_equal(M, gram)
        return real_eigvalsh(M)

    monkeypatch.setattr(envelope, "BoxFaces", faces)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    for steps, prob in problems.items():
        counts.update(faces=0, free_blocks=0)
        cfg = m.SolverConfig("alm", m.PenaltyPlan.fixed(50.0, 0.5, 1.0),
                             stop=m.StopRule(max_iters=steps))
        assert m.run(prob, cfg, init=EXP1_INIT).n_rows - 1 == steps
        assert counts == {"faces": 1, "free_blocks": 1}


def _recorded_run(prob, cfg, init, monkeypatch):
    """The states of each of run's ALM steps, in order."""
    from mealopt import solvers

    states, real = [], solvers.alm_step

    def recorded(ctx, state):
        new, report = real(ctx, state)
        states.append(new)
        return new, report

    monkeypatch.setattr(solvers, "alm_step", recorded)
    m.run(prob, cfg, init=init)
    return states


def _fresh_context_chain(prob, cfg, init, steps):
    """Chained alm_step calls, each on a new context: no step sees a kept
    minimizer."""
    state, states = m.IterateState(*init), []
    for _ in range(steps):
        ctx = EnvelopeContext(prob, cfg.plan, cfg.resolve_subproblem())
        state, _ = alm_step(ctx, state)
        states.append(state)
    return states


def _assert_same_states(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.k == b.k
        for name in ("x", "z", "lam", "residual"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


@st.composite
def alm_box_qps(draw):
    """A random box-QP that ALM takes: n <= 4, an indefinite quadratic over a
    box with some infinite bounds, m <= n feasible rows, and a beta that
    validate accepts (the free coordinates' curvature is checked)."""
    n = draw(st.integers(1, 4))
    mcon = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    G = rng.uniform(-1, 1, size=(n, n))
    A = rng.uniform(-1, 1, size=(mcon, n))
    x_feasible = rng.uniform(0, 1, size=n)
    lower = np.where(rng.uniform(size=n) < 0.25, -np.inf, 0.0)
    upper = np.where(rng.uniform(size=n) < 0.25, np.inf, 1.0)
    prob = m.Problem(m.LinearConstraint(A, A @ x_feasible), m.BoxIndicator(lower, upper),
                     m.QuadraticSmooth(0.5 * (G + G.T), rng.uniform(-1, 1, size=n)))
    beta = draw(st.floats(0.5, 100.0))
    cfg = m.SolverConfig("alm", m.PenaltyPlan.fixed(beta, 0.5, 1.0),
                         stop=m.StopRule(40, 1e-12, 1e-12))
    try:
        cfg.validate(prob)
    except SubproblemNonconvexUnsupported:
        assume(False)
    return prob, cfg


class TestAlmMinimizerReuse:
    """ALM's x' is a function of its linear term c; a context keeps the
    minimizers of its last two distinct c and reuses them."""

    def test_exp1_enumerates_once_per_distinct_linear_term(self, monkeypatch):
        # steps 0-12 each meet a new c, every later step one of the last two
        from mealopt import solvers
        from mealopt.experiments import EXP1_INIT, exp1_configs

        calls, real = [], solvers.box_qp_global_min
        monkeypatch.setattr(solvers, "box_qp_global_min",
                            lambda faces, c: calls.append(1) or real(faces, c))
        tr = m.run(m.build_exp1(), dict(exp1_configs())["alm_beta50"], init=EXP1_INIT)
        assert tr.n_rows - 1 == 2000 and tr.oscillating
        assert len(calls) == 13

    def test_run_is_the_fresh_context_chain_on_exp1(self, monkeypatch):
        from mealopt.experiments import EXP1_INIT, exp1_configs

        cfg = dict(exp1_configs(m.StopRule(max_iters=200)))["alm_beta50"]
        got = _recorded_run(m.build_exp1(), cfg, EXP1_INIT, monkeypatch)
        _assert_same_states(got, _fresh_context_chain(m.build_exp1(), cfg, EXP1_INIT, 200))

    @settings(max_examples=15)
    @given(case=alm_box_qps())
    def test_run_is_the_fresh_context_chain(self, case):
        prob, cfg = case
        init = (np.zeros(prob.n), np.zeros(prob.n), np.zeros(prob.m))
        with pytest.MonkeyPatch.context() as monkeypatch:
            got = _recorded_run(prob, cfg, init, monkeypatch)
        _assert_same_states(got, _fresh_context_chain(prob, cfg, init, len(got)))

    def test_writing_into_a_returned_state_leaves_later_steps(self, exp1_problem):
        # on the two-cycle, steps k and k + 2 reuse one kept minimizer
        ctx = EnvelopeContext(exp1_problem, m.PenaltyPlan.fixed(50.0, 0.5, 1.0))
        state = m.IterateState(np.zeros(2), np.zeros(2), np.zeros(1))
        for _ in range(30):
            state, _ = alm_step(ctx, state)
        later, _ = alm_step(ctx, alm_step(ctx, state)[0])
        want = later.x.copy()
        state.x[:] = np.nan
        again, _ = alm_step(ctx, alm_step(ctx, state)[0])
        assert again.x.tobytes() == want.tobytes()


class TestOneQProductPerStep:
    """A LiMEAL or Prox-iALM step evaluates h once, its gradient at the new
    x; the next step and the row's objective reuse it."""

    @pytest.mark.parametrize("label, spec", [
        ("limeal_beta50_eta1", None),
        ("limeal_beta50_eta1", m.InnerProxGradient()),
        ("ialm", None),
    ], ids=["limeal-paper72", "limeal-inner-box", "prox_ialm"])
    def test_counted_on_exp2(self, label, spec, monkeypatch):
        from dataclasses import replace

        from mealopt.experiments import exp2_configs

        prob = m.build_exp2(42, 5, 20)
        calls = []
        for name in ("gradient", "value"):
            fn = getattr(prob.smooth, name)
            monkeypatch.setattr(prob.smooth, name,
                                lambda x, fn=fn: calls.append(1) or fn(x))
        stop = m.StopRule(max_iters=50, stat_tol=1e-14, feas_tol=1e-14)
        cfg = dict(exp2_configs(prob, stop))[label]
        if spec is not None:
            cfg = replace(cfg, subproblem=spec)
        tr = m.run(prob, cfg)
        assert tr.n_rows - 1 == 50
        # plus row 0's objective and the first step's gradient at the init
        assert len(calls) == 50 + 2


class TestCarriedRowValues:
    """Every row holds the values of its own state, and every one-step
    progress entry is a difference of two Lyapunov values."""

    STEPS = 8

    @pytest.mark.parametrize("prob, cfg, init", _carried_value_cases())
    def test_rows_and_monitor_hold_the_values_of_their_states(self, prob, cfg, init):
        from dataclasses import replace

        from mealopt.envelope import lyapunov

        def capped(n):
            return replace(cfg, stop=m.StopRule(max_iters=n, stat_tol=1e-14,
                                                feas_tol=1e-14))

        tr = m.run(prob, capped(self.STEPS), init=init)
        # the state of row k is the terminal state of a run capped at k steps
        states = [m.IterateState(*init)] + [
            m.run(prob, capped(k), init=init).terminal
            for k in range(1, self.STEPS + 1)]
        assert tr.status == "MaxIters"
        assert tr.n_rows == len(states)
        for row, st in enumerate(states):
            assert tr.column("objective")[row] == prob.objective_value(st.x)
            assert tr.column("feasibility")[row] == prob.constraint.residual(st.x)
            assert tr.column("lambda_norm")[row] == np.linalg.norm(st.lam)

        if not cfg.monitors.one_step_progress:
            return
        ctx = EnvelopeContext(prob, cfg.plan, cfg.resolve_subproblem())

        def energy(k):
            # without the carried residual, so that the energy is recomputed
            return lyapunov(ctx, "meal-s1", replace(states[k], residual=None),
                            states[k - 1])

        entries = tr.monitors["one_step_progress"]
        assert [entry[0] for entry in entries] == list(range(1, self.STEPS))
        for k, lhs, _, _ in entries:
            assert lhs == energy(k) - energy(k + 1)


@pytest.mark.parametrize("algorithm", list(ALGORITHMS))
def test_steps_carry_the_residual_the_energy_reads(algorithm):
    # every step's state carries A x - b, and the energy that reads it is
    # bitwise the energy that forms it again
    from dataclasses import replace

    from mealopt.experiments import EXP1_INIT

    prob = m.build_exp1()
    cfg = m.SolverConfig(algorithm, m.PenaltyPlan.fixed(50.0, 0.25, 1.0))
    cfg.validate(prob)
    ctx = EnvelopeContext(prob, cfg.plan, cfg.resolve_subproblem())
    algo = ALGORITHMS[algorithm]
    A, b = prob.constraint.A, prob.constraint.b
    state = m.IterateState(*EXP1_INIT)
    assert state.residual is None
    for _ in range(3):
        new, _ = algo.step(ctx, state, cfg)
        np.testing.assert_array_equal(new.residual, A @ new.x - b)
        assert algo.energy(ctx, state, new, None) == algo.energy(
            ctx, state, replace(new, residual=None), None)
        state = new


class TestStepBuiltState:
    """A step builds its state without converting the step's float vectors,
    and checks them as the public constructor does."""

    def test_fields_match_the_public_constructor(self):
        rng = np.random.default_rng(3)
        x, z, grad_h = (rng.uniform(-1, 1, size=4) for _ in range(3))
        lam, resid = rng.uniform(-1, 1, size=2), rng.uniform(-1, 1, size=2)
        built = IterateState._of_step(x, z, lam, 3, grad_h, resid)
        public = m.IterateState(x, z, lam, 3, grad_h, resid)
        assert type(built) is m.IterateState and built.k == public.k == 3
        for name in ("x", "z", "lam", "grad_h", "residual"):
            got, want = getattr(built, name), getattr(public, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["x", "z", "lam", "grad_h", "residual"])
    def test_non_finite_raises_as_the_public_constructor(self, name, bad):
        arrays = {"x": np.zeros(3), "z": np.zeros(3), "lam": np.zeros(2),
                  "grad_h": np.zeros(3), "residual": np.zeros(2)}
        arrays[name][1] = bad
        for build in (IterateState._of_step, m.IterateState):
            with pytest.raises(ValueError, match="^iterate state must be finite$"):
                build(arrays["x"], arrays["z"], arrays["lam"], 1,
                      arrays["grad_h"], arrays["residual"])


class TestInnerIterationsInTrace:
    """Trace.inner_iterations holds each step's subproblem inner iterations."""

    @pytest.mark.parametrize("prob, cfg, init", _carried_value_cases() + [
        pytest.param(make_box_qp(4), m.SolverConfig(
            "meal", m.PenaltyPlan.fixed(50.0, 0.1, 1.0),
            subproblem=m.InnerProxGradient(tol=1e-9, max_inner=200000),
            stop=m.StopRule(max_iters=40)), None, id="meal-boxqp4"),
        pytest.param(make_box_qp(3), m.SolverConfig(
            "imeal", m.PenaltyPlan.fixed(50.0, 0.1, 1.0),
            stop=m.StopRule(max_iters=40)), None, id="imeal-boxqp3"),
        pytest.param(make_box_qp(5), m.SolverConfig(
            "limeal", m.PenaltyPlan.fixed(50.0, 0.1, 1.0),
            subproblem=m.InnerProxGradient(tol=1e-9, max_inner=200000),
            stop=m.StopRule(max_iters=40)), None, id="limeal-boxqp5"),
    ])
    def test_sum_equals_the_subproblem_results(self, prob, cfg, init, monkeypatch):
        # the benchmark counts inner iterations by wrapping this module
        # global, so the steps must solve through it
        from mealopt import solvers

        seen = []
        original = solvers.solve_subproblem

        def recording(*args, **kwargs):
            res = original(*args, **kwargs)
            seen.append(res.inner_iterations)
            return res

        monkeypatch.setattr(solvers, "solve_subproblem", recording)
        tr = m.run(prob, cfg, init=init)
        assert len(tr.inner_iterations) == tr.n_rows - 1
        assert sum(tr.inner_iterations) == sum(seen)
        # one subproblem solve per step, none for the algorithms without one
        assert tr.inner_iterations == (seen or [0] * len(tr.inner_iterations))
        if isinstance(cfg.subproblem, m.InnerProxGradient):
            assert min(seen) > 0


STATUSES = ("Converged", "MaxIters", "InnerBudgetExhausted", "DivergenceDetected")


@st.composite
def small_problems(draw):
    """A random feasible problem with n <= 9 and a box, Zero or L1 prox part,
    with or without a quadratic smooth part. The quadratic is a symmetrized
    uniform draw, indefinite in general, so with a Zero or L1 prox part the
    objective may be unbounded below on the feasible set."""
    n = draw(st.integers(1, 9))
    mcon = draw(st.integers(1, n))
    kind = draw(st.sampled_from(("box", "zero", "l1")))
    composite = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = rng.uniform(-1, 1, size=(mcon, n))
    b = A @ rng.uniform(0, 1, size=n)
    prox_part = {"box": lambda: m.BoxIndicator(np.zeros(n), np.ones(n)),
                 "zero": m.Zero, "l1": lambda: m.L1(weight=0.5)}[kind]()
    smooth = None
    if composite:
        G = rng.uniform(-1, 1, size=(n, n))
        Q = 0.5 * (G + G.T)
        smooth = m.QuadraticSmooth(Q, rng.uniform(-1, 1, size=n))
    return m.Problem(m.LinearConstraint(A, b), prox_part, smooth)


def _algorithm_specs():
    for name, algo in ALGORITHMS.items():
        for spec in ("auto",) + tuple(cls() for cls in algo.accepts):
            label = spec if spec == "auto" else type(spec).__name__
            yield pytest.param(name, spec, id=f"{name}-{label}")


@pytest.mark.parametrize("algorithm, spec", list(_algorithm_specs()))
@settings(max_examples=50)
@given(prob=small_problems(), frac=st.floats(0.1, 0.95), horizon=st.booleans())
def test_validated_run_ends_in_a_status(algorithm, spec, prob, frac, horizon):
    """Whatever validate accepts, run finishes with a status and a trace: for
    each spec an algorithm takes and "auto", at gamma up to 0.95 of its
    bound, under both penalty plans."""
    gamma = frac / max(ALGORITHMS[algorithm].modulus(prob), 1.0)
    plan = (m.PenaltyPlan.horizon(5, 100.0, gamma, 1.0) if horizon
            else m.PenaltyPlan.fixed(10.0, gamma, 1.0))
    cfg = m.SolverConfig(algorithm, plan, subproblem=spec, stop=m.StopRule(max_iters=5))
    try:
        cfg.validate(prob)
    except (MealoptError, ValueError):
        return
    tr = m.run(prob, cfg)
    assert tr.status in STATUSES
    assert tr.n_rows >= 2
    # one row per state, whatever the status
    assert all(len(tr.column(name)) == tr.n_rows for name in TRACE_COLUMNS)
    np.testing.assert_array_equal(tr.column("k"), np.arange(tr.n_rows))
    assert len(tr.inner_iterations) == tr.n_rows - 1
    assert tr.terminal.k == tr.n_rows - 1


def _wrapper_free_cases():
    from mealopt.experiments import EXP1_INIT, exp1_configs, exp2_configs

    stop = m.StopRule(max_iters=50, stat_tol=1e-300, feas_tol=1e-300)
    exp1, exp2 = m.build_exp1(), m.build_exp2(42, 5, 20)
    paper = dict(exp2_configs(exp2, stop))
    plan = m.PenaltyPlan.fixed(50.0, 0.5 / exp2.rho_total, 1.0)
    monitored = m.SolverConfig(
        "meal", m.PenaltyPlan.fixed(50.0, 0.2, 1.0), stop=stop,
        monitors=m.MonitorFlags(one_step_progress=True, dual_by_primal=True))
    return [
        pytest.param("meal_step", exp2, m.SolverConfig("meal", plan, stop=stop), None,
                     id="meal"),
        pytest.param("imeal_step", exp2, m.SolverConfig("imeal", plan, stop=stop), None,
                     id="imeal"),
        pytest.param("limeal_step", exp2, paper["limeal_beta50_eta1"], None,
                     id="limeal"),
        pytest.param("alm_step", exp1, dict(exp1_configs(stop))["alm_beta50"], EXP1_INIT,
                     id="alm"),
        pytest.param("prox_ialm_step", exp2, paper["ialm"], None, id="prox_ialm"),
        pytest.param("meal_step", exp1, monitored, EXP1_INIT, id="meal-monitored-exp1"),
    ]


@pytest.mark.parametrize("step, prob, cfg, init", _wrapper_free_cases())
def test_the_step_loop_calls_no_numpy_python_wrapper(step, prob, cfg, init, monkeypatch):
    """After a run's first step, which prepares the run's constants, no call
    lands in numpy's fromnumeric.py, the Python wrappers of np.sum, np.clip,
    np.all and the like, or in its _methods.py, those of ndarray.all(),
    .sum() and the like: the steps, energies, monitors and row bookkeeping
    call numpy's kernels. The call events are counted, not timed."""
    import os
    import sys

    from mealopt import solvers

    stepped = []
    original = getattr(solvers, step)

    def counted(*args, **kwargs):
        out = original(*args, **kwargs)
        stepped.append(1)
        return out

    monkeypatch.setattr(solvers, step, counted)
    later, landed = [], []

    def profile(frame, event, arg):
        if event == "call" and stepped:
            later.append(1)
            if os.path.basename(frame.f_code.co_filename) in ("fromnumeric.py",
                                                              "_methods.py"):
                landed.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        tr = m.run(prob, cfg, init=init)
    finally:
        sys.setprofile(None)
    assert tr.n_rows - 1 == len(stepped) == 50
    assert len(later) > 50 and landed == []


def _per_step_functions():
    from mealopt import envelope, problem, solvers

    return [
        solvers.IterateState._of_step, solvers._advance, solvers.meal_step,
        solvers.limeal_step, solvers.alm_step, solvers.prox_ialm_step, solvers.run,
        envelope.InnerProxGradient.solve, envelope._face_steps,
        envelope.Paper72FastPath.solve, envelope.EnvelopeContext.H_matvec,
        envelope.EnvelopeContext.H_solve, problem.QuadraticForm.gradient,
        problem.QuadraticForm.value,
    ]


@pytest.mark.parametrize("fn", _per_step_functions(), ids=lambda fn: fn.__qualname__)
def test_per_step_products_go_through_ndarray_dot(fn):
    """The functions a step runs make their products with ndarray.dot, not
    @: the same BLAS call (gemv or ddot) at half numpy's dispatch cost on
    the paper's small vectors. The stacked block kernels (np.matmul) and the
    set-up products are outside these functions. Read from the source, so
    the check is the same on every platform."""
    import ast
    import inspect
    import textwrap

    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, (ast.BinOp, ast.AugAssign))
             and isinstance(node.op, ast.MatMult)]
    assert lines == [], (f"{fn.__qualname__} multiplies with @ at line(s) {lines} "
                         "of its source; use ndarray.dot")


def _face_solvers():
    from mealopt import envelope

    return [envelope._face_steps, envelope.InnerProxGradient.solve]


@pytest.mark.parametrize("fn", _face_solvers(), ids=lambda fn: fn.__qualname__)
def test_face_solves_skip_the_np_linalg_solve_wrapper(fn):
    """The box-QP face steps solve through `envelope._face_solve`, the
    gufunc under np.linalg.solve, not through its Python wrapper, which
    costs more than the solve at the face blocks' sizes. Read from the
    source, so the check is the same on every platform."""
    import ast
    import inspect
    import textwrap

    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and "linalg" in ast.unparse(node.func)]
    assert lines == [], (f"{fn.__qualname__} calls numpy.linalg at line(s) {lines} "
                         "of its source; use envelope._face_solve")


@st.composite
def _gradient_turns(draw):
    """A convex composite problem (n <= 6, a box, Zero or L1 prox part) whose
    h is a general SmoothFunction, so its gradient is a black box to every
    step; the gradient call from which h's gradient is `bad`, and `bad`."""
    n = draw(st.integers(1, 6))
    mcon = draw(st.integers(1, n))
    kind = draw(st.sampled_from(("box", "zero", "l1")))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = rng.uniform(-1, 1, size=(mcon, n))
    b = A @ rng.uniform(0, 1, size=n)
    G = rng.uniform(-1, 1, size=(n, n))
    quad = m.QuadraticSmooth(G @ G.T / n + 0.1 * np.eye(n), rng.uniform(-1, 1, size=n))
    prox_part = {"box": lambda: m.BoxIndicator(np.zeros(n), np.ones(n)),
                 "zero": m.Zero, "l1": lambda: m.L1(weight=0.5)}[kind]()
    turn = draw(st.integers(1, 30))
    bad = draw(st.sampled_from((np.nan, np.inf, -np.inf)))
    return m.LinearConstraint(A, b), prox_part, quad, turn, bad


@pytest.mark.parametrize("algorithm", ("meal", "imeal", "limeal"))
@settings(max_examples=25)
@given(case=_gradient_turns())
def test_a_non_finite_gradient_ends_the_run_non_finite(algorithm, case):
    """When h's gradient turns NaN or inf at a drawn call, and stays so, the
    run ends NonFinite instead of raising. Its terminal state is the last
    finite state, the one that direct step calls reach before the next step
    raises NonFiniteValue, and the trace has a row for every state up to it.
    Each step evaluates the gradient at least once, so a 40-step budget
    always meets the turn."""
    constraint, prox_part, quad, turn, bad = case
    calls = []

    def gradient(x):
        calls.append(1)
        g = quad.gradient(x)
        return np.full_like(g, bad) if len(calls) >= turn else g

    prob = m.Problem(constraint, prox_part,
                     m.SmoothFunction(quad.value, gradient, quad.lipschitz_grad_constant))
    gamma = 0.5 / max(ALGORITHMS[algorithm].modulus(prob), 1.0)
    cfg = m.SolverConfig(algorithm, m.PenaltyPlan.fixed(10.0, gamma, 1.0),
                         stop=m.StopRule(max_iters=40, stat_tol=1e-300, feas_tol=1e-300))
    tr = m.run(prob, cfg)
    assert len(calls) >= turn
    assert tr.status == "NonFinite" and tr.converged_at is None
    K = tr.terminal.k
    assert list(tr.column("k")) == list(range(K + 1))
    assert len(tr.inner_iterations) == K

    calls.clear()
    ctx = EnvelopeContext(prob, cfg.plan, cfg.resolve_subproblem())
    state = m.IterateState(np.zeros(prob.n), np.zeros(prob.n), np.zeros(prob.m))
    step = ALGORITHMS[algorithm].step
    for _ in range(K):
        state, _ = step(ctx, state, cfg)
    for got, want in ((tr.terminal.x, state.x), (tr.terminal.z, state.z),
                      (tr.terminal.lam, state.lam)):
        assert np.isfinite(got).all()
        np.testing.assert_array_equal(got, want)
    with pytest.raises(NonFiniteValue):
        step(ctx, state, cfg)


@pytest.mark.parametrize("bad", (np.inf, -np.inf, np.nan))
@pytest.mark.parametrize("label", ("ialm", "prox_ialm_eta0.5", "limeal_beta50_eta1"))
def test_a_carried_non_finite_gradient_ends_the_run_non_finite(label, bad, monkeypatch):
    """On a quadratic h, whose row objective `run` forms from the state's
    carried gradient, a gradient that turns non-finite at its sixth call ends
    the run NonFinite, not DivergenceDetected: the state that would carry it
    fails its check, so the last row's objective and the terminal state's
    gradient are finite, and no RuntimeWarning is raised on the way."""
    import warnings

    from mealopt.experiments import exp2_configs

    prob = m.build_exp2(42, 5, 20)
    calls, real = [], prob.smooth.gradient

    def gradient(x):
        calls.append(1)
        g = real(x)
        return np.full_like(g, bad) if len(calls) >= 6 else g

    monkeypatch.setattr(prob.smooth, "gradient", gradient)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        tr = m.run(prob, dict(exp2_configs(prob))[label])
    assert tr.status == "NonFinite" and tr.terminal.k == 4
    assert math.isfinite(tr.column("objective")[-1])
    assert np.isfinite(tr.terminal.grad_h).all()


@pytest.mark.parametrize("form", ("list", "tuple", "float32"))
def test_limeal_takes_h_gradient_as_any_float_sequence(form):
    """LiMEAL on exp2's problem, with h a SmoothFunction whose gradient
    returns a list, a tuple or a float32 array, ends in the status and every
    trace column but wall_time of the run whose gradient returns the same
    values as a float64 vector: h's gradient is converted once, where it is
    evaluated."""
    from mealopt.experiments import exp2_configs
    from mealopt.solvers import TRACE_COLUMNS

    base = m.build_exp2(42, 5, 20)
    quad = base.smooth
    convert = {"list": lambda g: g.tolist(), "tuple": lambda g: tuple(g.tolist()),
               "float32": lambda g: g.astype(np.float32)}[form]
    plan = dict(exp2_configs(base))["limeal_beta50_eta1"].plan
    cfg = m.SolverConfig("limeal", plan, subproblem=m.InnerProxGradient(),
                         stop=m.StopRule(max_iters=30))

    def run_with(gradient):
        smooth = m.SmoothFunction(quad.value, gradient, quad.lipschitz_grad_constant)
        return m.run(m.Problem(base.constraint, base.prox_part, smooth), cfg)

    got = run_with(lambda x: convert(quad.gradient(x)))
    want = run_with(lambda x: np.asarray(convert(quad.gradient(x)), dtype=float))
    assert got.status == want.status == "MaxIters"
    for name in TRACE_COLUMNS:
        if name != "wall_time":
            np.testing.assert_array_equal(got.column(name), want.column(name))
    assert got.inner_iterations == want.inner_iterations


@pytest.mark.parametrize("spec", [None, m.InnerProxGradient()], ids=["paper72", "inner-box"])
def test_a_limeal_run_on_a_quadratic_h_skips_problem_smooth_gradient(spec, monkeypatch):
    """The context binds a QuadraticSmooth's own gradient, whose result is
    already a float vector: a LiMEAL run on exp2 evaluates h's gradient at
    every step and never through Problem.smooth_gradient's frame."""
    from dataclasses import replace

    from mealopt.experiments import exp2_configs

    prob = m.build_exp2(42, 5, 20)
    wrapped, grads, real = [], [], m.Problem.smooth_gradient
    monkeypatch.setattr(m.Problem, "smooth_gradient",
                        lambda self, x: wrapped.append(1) or real(self, x))
    gradient = prob.smooth.gradient
    monkeypatch.setattr(prob.smooth, "gradient", lambda x: grads.append(1) or gradient(x))
    cfg = dict(exp2_configs(prob, m.StopRule(max_iters=30)))["limeal_beta50_eta1"]
    tr = m.run(prob, cfg if spec is None else replace(cfg, subproblem=spec))
    assert tr.n_rows - 1 == 30
    assert len(grads) == 30 + 1 and wrapped == []


def _context_attribute_cases():
    from dataclasses import replace

    from mealopt.experiments import EXP1_INIT, exp1_configs, exp2_configs
    from tests.test_acceptance import criterion_7_config

    boxqp, meal = criterion_7_config(4)
    exp2 = m.build_exp2(42, 5, 20)
    paper = dict(exp2_configs(exp2, m.StopRule(max_iters=20)))
    exp1 = m.build_exp1()
    alm = dict(exp1_configs(m.StopRule(max_iters=20)))["alm_beta50"]
    limeal = paper["limeal_beta50_eta1"]
    return [
        pytest.param(boxqp, meal, None, id="meal"),
        pytest.param(boxqp, replace(meal, algorithm="imeal"), None, id="imeal"),
        pytest.param(exp2, limeal, None, id="limeal-paper72"),
        pytest.param(exp2, replace(limeal, subproblem=m.InnerProxGradient()), None,
                     id="limeal-inner"),
        pytest.param(exp1, alm, EXP1_INIT, id="alm"),
        pytest.param(exp2, paper["ialm"], None, id="prox_ialm"),
    ]


@pytest.mark.parametrize("prob, cfg, init", _context_attribute_cases())
def test_every_attribute_of_a_context_is_declared(prob, cfg, init, monkeypatch):
    """After a run, and after direct step calls, every attribute of the
    context is a dataclass field, one that __post_init__ sets, or a
    cached_property of EnvelopeContext: no step stashes state on it."""
    from dataclasses import fields
    from functools import cached_property

    from mealopt import solvers

    cached = {name for name, value in vars(EnvelopeContext).items()
              if isinstance(value, cached_property)}
    built = EnvelopeContext(prob, cfg.plan, cfg.resolve_subproblem())
    declared = {f.name for f in fields(EnvelopeContext)} | set(vars(built)) | cached

    made = []
    monkeypatch.setattr(solvers, "EnvelopeContext",
                        lambda *a: made.append(EnvelopeContext(*a)) or made[-1])
    tr = m.run(prob, cfg, init=init)
    assert tr.n_rows > 2 and len(made) == 1
    state = m.IterateState(*init) if init is not None else m.IterateState(
        np.zeros(prob.n), np.zeros(prob.n), np.zeros(prob.m))
    for _ in range(3):
        state, _ = ALGORITHMS[cfg.algorithm].step(built, state, cfg)
    for ctx in (made[0], built):
        assert set(vars(ctx)) - declared == set()
        assert set(vars(ctx)) & cached      # a step read a cached entry


def _scored_one_state_at_a_time(prob, cfg, init, f_column):
    """The lyapunov and xz_gap columns, the oscillation flag and the monitor
    entries of chained step calls, each value formed from its own states
    one step at a time, with the objective of each state as the run's
    `f_column` holds it. The chain stops at max_iters steps or at the first
    step that raises NonFiniteValue."""
    ctx = EnvelopeContext(prob, cfg.plan, cfg.resolve_subproblem())
    algo = ALGORITHMS[cfg.algorithm]
    states, raws = [m.IterateState(*init)], []
    for _ in range(cfg.stop.max_iters):
        try:
            new, report = algo.step(ctx, states[-1], cfg)
        except NonFiniteValue:
            break
        states.append(new)
        raws.append(report.stationarity_norm)
    energies = [np.nan] + [float(algo.energy(ctx, prev, new, f_column[k + 1]))
                           for k, (prev, new) in enumerate(zip(states, states[1:]))]
    gaps = [math.sqrt((new.x - prev.z) @ (new.x - prev.z))
            for prev, new in zip(states, states[1:])] + [np.nan]

    gamma, eta = ctx.plan.gamma, ctx.plan.eta
    L_f = prob.implicit_lipschitz_constant() if cfg.monitors.dual_by_primal else None
    streak, oscillating = 0, False
    monitors = {"one_step_progress": [], "dual_by_primal": []}
    for k in range(1, len(states) - 1):
        before, prev, new = states[k - 1], states[k], states[k + 1]
        back2, back1 = new.lam - before.lam, new.lam - prev.lam
        d2, d1 = math.sqrt(back2 @ back2), math.sqrt(back1 @ back1)
        streak = streak + 1 if (d2 <= 1e-6 and d1 >= 1e-3) else 0
        oscillating = oscillating or streak >= 20
        if cfg.monitors.one_step_progress:
            lhs = energies[k] - energies[k + 1]
            rhs = (gamma * eta * (2.0 - eta) / 4.0) * raws[k] ** 2
            monitors["one_step_progress"].append((k, lhs, rhs, lhs >= rhs - 1e-9))
        if cfg.monitors.dual_by_primal:
            dlam, dx, dz = new.lam - prev.lam, new.x - prev.x, prev.z - before.z
            dl = float(np.add.reduce(dlam * dlam))
            bound = (2.0 / ctx.c_gamma_A) * (
                (gamma * L_f + 1.0) ** 2 * float(np.add.reduce(dx * dx))
                + float(np.add.reduce(dz * dz)))
            monitors["dual_by_primal"].append((k, dl, bound, dl <= bound + 1e-9))
    return energies, gaps, oscillating, monitors


def _block_boundary_cases():
    from mealopt.experiments import EXP1_INIT, exp1_configs, exp2_configs

    stop = m.StopRule(max_iters=1, stat_tol=1e-300, feas_tol=1e-300)
    exp1, exp2 = m.build_exp1(), m.build_exp2(42, 5, 20)
    paper = dict(exp2_configs(exp2, stop))
    zeros = (np.zeros(exp2.n), np.zeros(exp2.n), np.zeros(exp2.m))
    monitored = m.SolverConfig(
        "meal", m.PenaltyPlan.fixed(50.0, 0.2, 1.0), stop=stop,
        monitors=m.MonitorFlags(one_step_progress=True, dual_by_primal=True))
    return [
        pytest.param(exp1, monitored, EXP1_INIT, id="meal-monitored"),
        pytest.param(exp1, dict(exp1_configs(stop))["alm_beta50"], EXP1_INIT,
                     id="alm-oscillating"),
        pytest.param(exp2, paper["limeal_beta50_eta1"], zeros, id="limeal"),
        pytest.param(exp2, paper["ialm"], zeros, id="prox_ialm"),
    ]


@pytest.mark.parametrize("steps", [1, 63, 64, 65, 129])
@pytest.mark.parametrize("prob, cfg, init", _block_boundary_cases())
def test_block_rows_equal_the_rows_of_one_step_at_a_time(prob, cfg, init, steps):
    """Runs that end on either side of a block boundary (ROW_BLOCK = 64
    steps) give the lyapunov and xz_gap columns, the oscillation flag and the
    monitor entries of their states scored one step at a time, bit for bit."""
    from dataclasses import replace

    from mealopt.solvers import ROW_BLOCK

    assert ROW_BLOCK == 64
    cfg = replace(cfg, stop=replace(cfg.stop, max_iters=steps))
    tr = m.run(prob, cfg, init=init)
    assert tr.status == "MaxIters" and tr.n_rows == steps + 1
    energies, gaps, oscillating, monitors = _scored_one_state_at_a_time(
        prob, cfg, init, tr.column("objective"))
    np.testing.assert_array_equal(tr.column("lyapunov"), energies)
    np.testing.assert_array_equal(tr.column("xz_gap"), gaps)
    assert tr.oscillating == oscillating
    assert tr.monitors == monitors
    if cfg.algorithm == "alm" and steps > 64:
        assert tr.oscillating
    if cfg.monitors.one_step_progress:
        assert len(tr.monitors["one_step_progress"]) == steps - 1


@pytest.mark.parametrize("turn", [1, 7000])
def test_a_non_finite_run_keeps_the_rows_of_its_finite_states(turn):
    """A monitored MEAL run whose gradient turns NaN at the `turn`-th call
    ends NonFinite, at its first step (turn 1) or past a block boundary,
    with the rows and monitor entries of the states before it as one step
    at a time scores them."""
    prob0 = make_convex_qp(5)
    calls = []

    def gradient(x):
        calls.append(1)
        g = prob0.smooth.gradient(x)
        return np.full_like(g, np.nan) if len(calls) >= turn else g

    prob = m.Problem(prob0.constraint, m.Zero(),
                     m.SmoothFunction(prob0.smooth.value, gradient, prob0.L_h))
    cfg = m.SolverConfig(
        "meal", m.PenaltyPlan.fixed(10.0, 0.2, 1.0),
        stop=m.StopRule(max_iters=400, stat_tol=1e-300, feas_tol=1e-300),
        monitors=m.MonitorFlags(one_step_progress=True, dual_by_primal=True))
    init = (np.zeros(prob.n), np.zeros(prob.n), np.zeros(prob.m))
    tr = m.run(prob, cfg, init=init)
    assert tr.status == "NonFinite"
    assert tr.n_rows == 1 if turn == 1 else 65 < tr.n_rows < 400
    calls.clear()
    energies, gaps, oscillating, monitors = _scored_one_state_at_a_time(
        prob, cfg, init, tr.column("objective"))
    np.testing.assert_array_equal(tr.column("lyapunov"), energies)
    np.testing.assert_array_equal(tr.column("xz_gap"), gaps)
    assert tr.oscillating == oscillating
    assert tr.monitors == monitors


@pytest.mark.parametrize("steps, hits", [(25, 19), (26, 20)])
def test_a_multiplier_two_cycle_is_flagged_at_its_twentieth_hit(steps, hits):
    """exp1's ALM enters its multiplier two-cycle at step 6. A run of 25
    steps has 19 consecutive hits, lam^{k+1} back within 1e-6 of lam^{k-1}
    and at least 1e-3 from lam^k, and is not flagged; one more step makes
    the 20th hit and flags it."""
    from mealopt.experiments import EXP1_INIT, exp1_configs

    prob = m.build_exp1()
    cfg = dict(exp1_configs(m.StopRule(max_iters=steps)))["alm_beta50"]
    tr = m.run(prob, cfg, init=EXP1_INIT)
    assert tr.status == "MaxIters" and tr.n_rows == steps + 1

    ctx = EnvelopeContext(prob, cfg.plan, cfg.resolve_subproblem())
    states = [m.IterateState(*EXP1_INIT)]
    for _ in range(steps):
        states.append(alm_step(ctx, states[-1])[0])
    lams = [state.lam for state in states]
    streak = 0
    for before, prev, new in zip(lams, lams[1:], lams[2:]):
        hit = np.linalg.norm(new - before) <= 1e-6 and np.linalg.norm(new - prev) >= 1e-3
        streak = streak + 1 if hit else 0
    assert streak == hits
    assert tr.oscillating == (hits == 20)


def test_wall_time_starts_within_the_run_and_never_falls():
    """The wall_time column holds seconds since the run's start: its first
    value is at least 0 and below the time the whole call took, and it
    never decreases."""
    import time

    from mealopt.experiments import EXP1_INIT, exp1_configs

    cfg = dict(exp1_configs(m.StopRule(max_iters=300)))["alm_beta50"]
    start = time.perf_counter()
    tr = m.run(m.build_exp1(), cfg, init=EXP1_INIT)
    elapsed = time.perf_counter() - start
    wall = tr.column("wall_time")
    assert len(wall) == 301
    assert 0.0 <= wall[0] < elapsed
    assert wall[-1] < elapsed
    assert np.all(np.diff(wall) >= 0.0)


def test_an_unknown_algorithm_is_rejected():
    prob = m.Problem(m.LinearConstraint([[1.0]], [0.0]), m.Zero())
    cfg = m.SolverConfig("sgd", m.PenaltyPlan.fixed(1.0, 0.5, 1.0))
    with pytest.raises(ValueError, match="algorithm must be one of .*'meal'"):
        cfg.validate(prob)
