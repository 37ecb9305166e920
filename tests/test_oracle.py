import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mealopt as m
from mealopt.errors import InsufficientData, RangeTooSmall, SubproblemNonconvexUnsupported
from mealopt.oracle import _ACTIVE_TOL, box_qp_faces, box_qp_global_min
from tests.conftest import OpaqueProx


def box_residual_by_coordinate(box, x, grad):
    """kkt_residual's box rule as a loop over coordinates: the stationarity
    residual and the complementarity dict."""
    res, complementarity = np.empty_like(x), {}
    scale = max(1.0, float(np.abs(x).max()))
    for i in range(x.shape[0]):
        at_lo = np.isfinite(box.lower[i]) and x[i] <= box.lower[i] + _ACTIVE_TOL * scale
        at_hi = np.isfinite(box.upper[i]) and x[i] >= box.upper[i] - _ACTIVE_TOL * scale
        if at_lo and at_hi:
            res[i], side = 0.0, "fixed"
        elif at_lo:
            res[i], side = max(0.0, -grad[i]), "lower"
        elif at_hi:
            res[i], side = max(0.0, grad[i]), "upper"
        else:
            res[i] = abs(grad[i])
            continue
        complementarity[i] = (side, float(grad[i]))
    return float(np.linalg.norm(res)), complementarity


@st.composite
def box_points(draw):
    """(lower, upper, x, grad): bounds infinite, finite or equal; x on a
    bound, within a few _ACTIVE_TOL of one, or away; grad finite up to 1e150
    in size (np.linalg.norm overflows, with a RuntimeWarning, once a square
    passes the float range), zero of either sign, or infinite."""
    lower, upper, x, grad = [], [], [], []
    for _ in range(draw(st.integers(1, 5))):
        lo = draw(st.one_of(st.just(-math.inf), st.floats(-100.0, 100.0)))
        hi = draw(st.one_of(st.just(math.inf), st.floats(max(lo, -100.0), 100.0),
                            st.just(lo if lo > -math.inf else 0.0)))
        anchor = draw(st.sampled_from([b for b in (lo, hi, 0.0) if math.isfinite(b)]))
        offset = draw(st.sampled_from([0.0, 1e-12, -1e-12, 7e-10, -7e-10, 1e-9, -1e-9,
                                       1.5e-9, -1.5e-9, 0.5, -0.5]))
        lower.append(lo)
        upper.append(hi)
        x.append(anchor + offset * max(1.0, abs(anchor)))
        grad.append(draw(st.one_of(st.floats(-1e150, 1e150), st.sampled_from(
            [math.inf, -math.inf, 0.0, -0.0, 1e-300, -1e100]))))
    return lower, upper, np.array(x), np.array(grad)


class TestGridProxOracle:
    def test_abs_soft_threshold(self):
        got = m.grid_prox_oracle(abs, 1.0, 2.0)
        assert got == pytest.approx(1.0, abs=1e-6)

    def test_zero_returns_input(self):
        assert m.grid_prox_oracle(lambda t: 0.0, 0.7, 1.23) == pytest.approx(1.23, abs=1e-6)

    def test_scad_golden_value(self):
        # frozen as the SCAD golden value used by the closed-form tests
        scad = m.SCAD(lam=1.0, a=3.7)
        got = m.grid_prox_oracle(lambda t: scad.value([t]), 0.5, 1.4)
        assert got == pytest.approx(0.9, abs=1e-4)

    def test_an_array_of_v_is_the_scalar_calls(self):
        # one grid evaluation for all v, and every output bitwise the scalar call's
        scad = m.SCAD(lam=1.0, a=3.7)
        g = lambda t: scad.value([t])
        vs = np.random.default_rng(0).uniform(-6.0, 6.0, size=12)
        got = m.grid_prox_oracle(g, 0.5, vs, half_range=8.0, step=1e-2)
        want = [m.grid_prox_oracle(g, 0.5, v, half_range=8.0, step=1e-2) for v in vs]
        assert isinstance(want[0], float) and got.shape == vs.shape
        assert got.tobytes() == np.array(want).tobytes()

    def test_boundary_argmin_raises(self):
        with pytest.raises(RangeTooSmall):
            m.grid_prox_oracle(lambda t: -4.0 * t, 1.0, 0.0, half_range=2.0, step=0.1)


class TestActiveSetOracle:
    def test_norm_min_with_one_equality(self):
        pts, mults, skipped = m.active_set_qp_oracle(
            np.eye(3), np.zeros(3), np.array([[1.0, 0.0, 0.0]]), np.array([1.0]),
            [-np.inf] * 3, [np.inf] * 3)
        assert len(pts) == 1
        np.testing.assert_allclose(pts[0], [1.0, 0.0, 0.0], atol=1e-10)
        np.testing.assert_allclose(mults[0], [-1.0], atol=1e-10)

    def test_exp1_as_qp_enumerates_boundary_points(self):
        # on x^2 - y^2 over [-1,1] x R with x = y, the interior stationary
        # set is a whole segment (singular KKT pattern, skipped and counted);
        # the enumerable stationary points are the two box corners
        Q = np.diag([2.0, -2.0])
        pts, _, skipped = m.active_set_qp_oracle(
            Q, np.zeros(2), np.array([[1.0, -1.0]]), np.array([0.0]),
            [-1.0, -np.inf], [1.0, np.inf])
        stacked = np.array(sorted(map(tuple, np.round(pts, 9))))
        np.testing.assert_allclose(stacked, [[-1.0, -1.0], [1.0, 1.0]], atol=1e-8)
        assert skipped >= 1

    def test_limeal_terminal_matches_enumerated_point(self, exp1_problem):
        import mealopt as m2

        Q = np.diag([2.0, -2.0])
        pts, _, _ = m.active_set_qp_oracle(
            Q, np.zeros(2), np.array([[1.0, -1.0]]), np.array([0.0]),
            [-1.0, -np.inf], [1.0, np.inf])
        cfg = m2.SolverConfig(
            "limeal", m2.PenaltyPlan.fixed(50.0, gamma=0.5, eta=1.0),
            subproblem=m2.InnerProxGradient(tol=1e-12, max_inner=300000),
            stop=m2.StopRule(max_iters=500, stat_tol=1e-10, feas_tol=1e-10))
        x0 = np.array([2.0, 1.0])
        tr = m2.run(exp1_problem, cfg, init=(x0, x0.copy(), np.array([-2.0])))
        assert tr.status == "Converged"
        dmin = min(np.linalg.norm(tr.terminal.x - q) for q in pts)
        assert dmin <= 1e-5

    def test_infeasible_constraint_yields_empty(self):
        pts, _, _ = m.active_set_qp_oracle(
            np.eye(2), np.zeros(2), np.array([[0.0, 0.0]]), np.array([1.0]),
            [0.0, 0.0], [1.0, 1.0])
        assert pts == []

    def test_all_points_pass_kkt(self, exp1_problem):
        Q = np.diag([2.0, -2.0])
        pts, mults, _ = m.active_set_qp_oracle(
            Q, np.zeros(2), np.array([[1.0, -1.0]]), np.array([0.0]),
            [-1.0, -np.inf], [1.0, np.inf])
        for x, mu in zip(pts, mults):
            rep = m.kkt_residual(exp1_problem, x, mu)
            assert rep.stationarity_residual <= 1e-6
            assert rep.feasibility <= 1e-8

    def test_size_cap(self):
        n = 9
        with pytest.raises(ValueError):
            m.active_set_qp_oracle(np.eye(n), np.zeros(n), None, None,
                                   np.zeros(n), np.ones(n))


class TestBoxQPGlobalMin:
    def test_convex_interior(self):
        x, val = box_qp_global_min(box_qp_faces(np.eye(2), [-2.0, -2.0], [2.0, 2.0]),
                                   np.array([-1.0, 0.5]))
        np.testing.assert_allclose(x, [1.0, -0.5], atol=1e-10)

    def test_indefinite_picks_face_minimum(self):
        # exp1's augmented Lagrangian Hessian at beta=50 with lam=0:
        # concave in the reduced x variable, so minima sit on x = +-1
        beta = 50.0
        H = np.array([[2.0 + beta, -beta], [-beta, beta - 2.0]])
        x, val = box_qp_global_min(box_qp_faces(H, [-1.0, -np.inf], [1.0, np.inf]),
                                   np.zeros(2))
        assert abs(x[0]) == pytest.approx(1.0)
        assert x[1] == pytest.approx(beta * x[0] / (beta - 2.0), rel=1e-9)

    def test_unbounded_direction_raises(self):
        with pytest.raises(SubproblemNonconvexUnsupported):
            box_qp_faces(np.diag([1.0, -1.0]), [-1.0, -np.inf], [1.0, np.inf])

    def test_prepared_faces_serve_many_linear_terms(self):
        # one preparation answers 20 linear terms bit for bit as a fresh one
        # does; the answers are compared after all 20 solves, so a solve
        # that wrote into the prepared clamped points would show
        rng = np.random.default_rng(7)
        G = rng.uniform(-1.0, 1.0, size=(4, 4))
        H = 0.5 * (G + G.T) + np.diag([0.0, 0.0, 0.0, 3.0])
        lower, upper = [-1.0, -2.0, 0.0, -np.inf], [1.0, 0.5, 2.0, np.inf]
        faces = box_qp_faces(H, lower, upper)
        cs = rng.uniform(-2.0, 2.0, size=(20, 4))
        shared = [(faces.solve(c)[0], box_qp_global_min(faces, c)) for c in cs]
        for c, (points, (x, val)) in zip(cs, shared):
            fresh = box_qp_faces(H, lower, upper)
            want_x, want_val = box_qp_global_min(fresh, c)
            assert x.tobytes() == want_x.tobytes() and val == want_val
            assert [p.tobytes() for p in points] == [p.tobytes() for p in fresh.solve(c)[0]]

    @settings(max_examples=200)
    @given(data=st.data(), n=st.integers(1, 3))
    def test_no_grid_point_is_lower(self, data, n):
        """The returned point lies in the box, and no point of a 41-per-axis
        grid over the box has a lower value: a check by plain sampling,
        independent of the face enumeration."""
        entry = st.floats(-3.0, 3.0)
        G = np.array(data.draw(st.lists(entry, min_size=n * n, max_size=n * n)))
        H = 0.5 * (G.reshape(n, n) + G.reshape(n, n).T)
        c = np.array(data.draw(st.lists(entry, min_size=n, max_size=n)))
        lower = np.array(data.draw(st.lists(entry, min_size=n, max_size=n)))
        width = data.draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n))
        upper = lower + np.array(width)

        x, val = box_qp_global_min(box_qp_faces(H, lower, upper), c)
        assert np.all(lower <= x) and np.all(x <= upper)
        axes = [np.linspace(lo, hi, 41) for lo, hi in zip(lower, upper)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, n)
        grid_min = float(np.min(0.5 * np.einsum("ki,ij,kj->k", grid, H, grid)
                                + grid @ c))
        assert val <= grid_min + 1e-12 * max(1.0, abs(grid_min))


class TestKKTResidual:
    def test_unconstrained_smooth_optimum(self):
        prob = m.Problem(m.LinearConstraint([[1.0, 0.0]], [0.0]), m.Zero(),
                         m.QuadraticSmooth(np.eye(2)))
        rep = m.kkt_residual(prob, [0.0, 0.0], [0.0])
        assert rep.stationarity_residual == 0.0
        assert rep.feasibility == 0.0

    def test_interior_box_point_sees_full_gradient(self):
        prob = m.Problem(
            m.LinearConstraint([[1.0, 0.0]], [0.0]),
            m.BoxIndicator([-1.0, -1.0], [1.0, 1.0]),
            m.QuadraticSmooth(np.zeros((2, 2)), [1.0, 0.0]),
        )
        rep = m.kkt_residual(prob, [0.0, 0.0], [0.0])
        assert rep.stationarity_residual == pytest.approx(1.0)

    def test_active_bound_absorbs_inward_gradient(self):
        # at the upper bound, a negative gradient coordinate is optimal
        prob = m.Problem(
            m.LinearConstraint([[1.0]], [1.0]),
            m.BoxIndicator([0.0], [1.0]),
            m.QuadraticSmooth(np.zeros((1, 1)), [-2.0]),
        )
        rep = m.kkt_residual(prob, [1.0], [0.0])
        assert rep.stationarity_residual == 0.0
        assert rep.complementarity[0][0] == "upper"

    def test_l1_interval(self):
        prob = m.Problem(m.LinearConstraint([[1.0]], [0.0]), m.L1(weight=1.0))
        # at x=0 the subdifferential is [-1, 1]: a multiplier of 0.5 is covered
        rep = m.kkt_residual(prob, [0.0], [0.5])
        assert rep.stationarity_residual == 0.0
        rep = m.kkt_residual(prob, [0.0], [2.0])
        assert rep.stationarity_residual == pytest.approx(1.0)

    @pytest.mark.parametrize("prox", [m.Zero(), m.BoxIndicator([-1.0, -np.inf],
                                                               [1.0, np.inf])],
                             ids=["interval", "box"])
    def test_a_large_finite_residual_has_a_finite_norm(self, prox):
        # 1e200 squared overflows a float: the norm is of the rescaled residual
        prob = m.Problem(m.LinearConstraint([[1.0, 0.0]], [0.0]), prox,
                         m.QuadraticSmooth(np.eye(2), [0.0, 1e200]))
        assert m.kkt_residual(prob, [0.0, 0.0], [0.0]).stationarity_residual == 1e200

    @settings(max_examples=400)
    @given(point=box_points())
    def test_box_rule_is_the_per_coordinate_rule(self, point):
        """The same residual bits and the same complementarity entries, in the
        same order, as the loop over coordinates, with no RuntimeWarning."""
        lower, upper, x, grad = point
        box = m.BoxIndicator(lower, upper)
        smooth = m.SmoothFunction(lambda _: 0.0, lambda _: grad, 1.0)
        prob = m.Problem(m.LinearConstraint(np.zeros((1, x.shape[0])), [0.0]), box, smooth)
        rep = m.kkt_residual(prob, x, [0.0])
        # kkt_residual adds A'lam, here a zero vector, to h's gradient
        want, complementarity = box_residual_by_coordinate(box, x, grad + 0.0)
        assert repr(rep.stationarity_residual) == repr(want)
        assert list(rep.complementarity.items()) == list(complementarity.items())
        assert all(type(i) is int and type(side) is str
                   for i, (side, _) in rep.complementarity.items())

    def test_pointwise_min_crossing_flags(self):
        pieces = (
            (m.QuadraticForm(Q=[[0.2]]), None),
            (m.QuadraticForm(Q=[[0.2]]), None),
        )
        prob = m.Problem(m.LinearConstraint([[1.0]], [0.0]),
                         m.PointwiseMin(pieces=pieces))
        rep = m.kkt_residual(prob, [0.0], [0.0])
        assert rep.nonsmooth_flag


@pytest.mark.parametrize("call, error, match", [
    (lambda: box_qp_faces(np.eye(9), np.zeros(9), np.ones(9)),
     SubproblemNonconvexUnsupported, "capped at n=8"),
    # an infinite linear term on an unbounded coordinate: no face has a finite point
    (lambda: box_qp_global_min(box_qp_faces([[1.0]], [-np.inf], [np.inf]), [np.inf]),
     SubproblemNonconvexUnsupported, "no feasible stationary point"),
    (lambda: m.kkt_residual(m.Problem(m.LinearConstraint([[1.0]], [0.0]), OpaqueProx()),
                            [0.0], [0.0]), NotImplementedError, "OpaqueProx"),
], ids=["faces-above-cap", "no-feasible-point", "no-interval"])
def test_oracles_reject(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_kkt_residual_of_a_quadratic_form_objective():
    # no h: g = x'Qx/2 + r'x is the objective, and its subgradient interval
    # is the single point Qx + r
    Q, r = np.array([[2.0, 0.5], [0.5, -1.0]]), np.array([0.3, -0.2])
    A, x, lam = np.array([[1.0, 2.0]]), np.array([0.4, -0.7]), np.array([0.25])
    prob = m.Problem(m.LinearConstraint(A, A @ x), m.QuadraticForm(Q=Q, r=r))
    rep = m.kkt_residual(prob, x, lam)
    assert rep.stationarity_residual == pytest.approx(
        np.linalg.norm(Q @ x + r + A.T @ lam), rel=1e-14)
    assert rep.feasibility == 0.0 and not rep.nonsmooth_flag


class TestFiniteDiffCheck:
    def test_linear_field(self):
        f = lambda x: float(3.0 * x[0] - 2.0 * x[1])
        assert m.finite_diff_check(f, lambda x: np.array([3.0, -2.0]),
                                   [0.3, 0.7]) <= 1e-10

    def test_quadratic_field(self):
        Q = np.array([[2.0, 0.5], [0.5, 1.0]])
        f = lambda x: float(0.5 * np.asarray(x) @ Q @ np.asarray(x))
        g = lambda x: Q @ np.asarray(x)
        assert m.finite_diff_check(f, g, [1.0, -2.0]) <= 1e-8


class TestRateFit:
    def test_recovers_geometric(self):
        fit = m.rate_fit([2.0 * 0.9 ** k for k in range(80)])
        assert fit.kind == "linear"
        assert fit.rate == pytest.approx(0.9, abs=0.01)
        assert fit.r2 >= 0.999

    def test_recovers_power_law(self):
        fit = m.rate_fit([1.0] + [k ** -0.5 for k in range(1, 80)], burn_in=1)
        assert fit.kind == "sublinear"
        assert fit.rate == pytest.approx(-0.5, abs=0.05)
        assert fit.r2 >= 0.999

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            m.rate_fit([1.0, 0.5, 0.25], burn_in=0)
