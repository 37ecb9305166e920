import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mealopt as m
from mealopt.errors import AllZeroMatrix, GammaTooLarge, MissingMetadata
from mealopt.oracle import finite_diff_check, grid_prox_oracle
from mealopt.problem import _vec, moreau_value_grad
from mealopt.rng import SplitMix64
from tests.conftest import new_memory_peak


def piecewise_mcp():
    """MCP(lam=1, a=3) written as a pointwise min of quadratic+box pieces."""
    return m.PointwiseMin(pieces=(
        (m.QuadraticForm(Q=[[-1.0 / 3.0]], r=[1.0]),
         m.BoxIndicator(lower=[0.0], upper=[3.0])),
        (m.QuadraticForm(Q=[[-1.0 / 3.0]], r=[-1.0]),
         m.BoxIndicator(lower=[-3.0], upper=[0.0])),
        (m.QuadraticForm(Q=[[0.0]], c=1.5),
         m.BoxIndicator(lower=[3.0], upper=[np.inf])),
        (m.QuadraticForm(Q=[[0.0]], c=1.5),
         m.BoxIndicator(lower=[-np.inf], upper=[-3.0])),
    ))


def scalar_kinds():
    return [
        ("zero", m.Zero(), 0.9),
        ("half_square", m.QuadraticForm(Q=[[1.0]]), 1.0),
        ("box", m.BoxIndicator(lower=[-1.0], upper=[1.0]), 0.5),
        ("l1", m.L1(weight=1.0), 1.0),
        ("scad", m.SCAD(lam=1.0, a=3.7), 0.5),
        ("mcp", m.MCP(lam=1.0, a=3.0), 0.5),
        ("pwmin", piecewise_mcp(), 0.5),
    ]


class TestLinearConstraint:
    def test_dimensions_checked(self):
        with pytest.raises(ValueError):
            m.LinearConstraint([[1.0, 2.0]], [1.0, 2.0])

    def test_feasibility_probe(self):
        ok, res = m.LinearConstraint([[1.0, -1.0]], [0.0]).feasibility_probe()
        assert ok and res <= 1e-12

    def test_infeasible_rejected_by_problem(self):
        cons = m.LinearConstraint([[0.0, 0.0], [1.0, 0.0]], [1.0, 0.0])
        with pytest.raises(ValueError, match="infeasible"):
            m.Problem(cons, m.Zero())


class TestProxExamples:
    def test_box_clips(self):
        box = m.BoxIndicator(lower=[-1.0], upper=[1.0])
        assert box.prox(0.5, [2.0])[0] == 1.0

    def test_half_square_analytic(self):
        g = m.QuadraticForm(Q=[[1.0]])
        assert g.prox(1.0, [2.0])[0] == pytest.approx(1.0, abs=1e-12)

    def test_scad_matches_grid_oracle_value(self):
        # frozen from the grid oracle (step 1e-4, ternary refinement): 0.9
        g = m.SCAD(lam=1.0, a=3.7)
        assert g.prox(0.5, [1.4])[0] == pytest.approx(0.9, abs=1e-3)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("g", [m.L1(weight=1.0), m.SCAD(lam=1.0, a=3.7)], ids=["l1", "scad"])
    def test_gamma_not_positive_rejected(self, g, gamma):
        with pytest.raises(GammaTooLarge, match="gamma must be positive"):
            g.prox(gamma, [1.0])

    def test_gamma_at_limit_rejected(self):
        g = m.SCAD(lam=1.0, a=3.7)   # rho = 1/2.7
        with pytest.raises(GammaTooLarge):
            g.prox(2.7, [1.0])
        g.prox(2.6999, [1.0])  # just below is fine

    def test_l1_soft_threshold(self):
        g = m.L1(weight=1.0)
        np.testing.assert_allclose(g.prox(1.0, [2.0, -0.5, 0.0]), [1.0, 0.0, 0.0])

    def test_mcp_identity_beyond_knee(self):
        g = m.MCP(lam=1.0, a=3.0)
        assert g.prox(0.5, [5.0])[0] == pytest.approx(5.0)

    def test_pointwise_min_tie_breaks_to_first_piece(self):
        # pieces tie in value everywhere; piece 0's prox must be returned
        q0 = m.QuadraticForm(Q=[[0.4]])
        g = m.PointwiseMin(pieces=((q0, None), (m.QuadraticForm(Q=[[0.4]]), None)))
        assert g.prox(0.5, [1.0])[0] == pytest.approx(q0.prox(0.5, [1.0])[0])

    def test_pointwise_min_reproduces_mcp(self):
        pw = piecewise_mcp()
        mcp = m.MCP(lam=1.0, a=3.0)
        for v in np.linspace(-5, 5, 41):
            assert pw.value([v]) == pytest.approx(mcp.value([v]), abs=1e-12)
            assert pw.prox(0.5, [v])[0] == pytest.approx(mcp.prox(0.5, [v])[0],
                                                         abs=1e-8)


class TestSeparableSubgradientInterval:
    """[lo, hi] = sign(x) * slope(|x|) off 0 and [-r, r] at 0, against hand
    values at 0, +-lam, +-a*lam and beyond (L1's knees are at +-weight)."""

    @pytest.mark.parametrize("g, x, slope, r", [
        (m.L1(weight=0.5), [0.5, -0.5, 3.0, -3.0], [0.5, -0.5, 0.5, -0.5], 0.5),
        # SCAD(1, 3): lam on t <= 1, (3 - t)/2 up to 3, 0 beyond
        (m.SCAD(lam=1.0, a=3.0), [1.0, -1.0, 2.0, 3.0, -3.0, 4.0],
         [1.0, -1.0, 0.5, 0.0, 0.0, 0.0], 1.0),
        # MCP(1, 2): 1 - t/2 up to 2, 0 beyond
        (m.MCP(lam=1.0, a=2.0), [1.0, -1.0, 2.0, -2.0, 5.0],
         [0.5, -0.5, 0.0, 0.0, 0.0], 1.0),
    ], ids=["l1", "scad", "mcp"])
    def test_interval_matches_hand_values(self, g, x, slope, r):
        lo, hi = g.subgradient_interval([0.0] + x + [-0.0])
        np.testing.assert_array_equal(lo, [-r] + slope + [-r])
        np.testing.assert_array_equal(hi, [r] + slope + [r])
        assert lo.dtype == hi.dtype == np.float64


class TestConstructionRejectsNonFinite:
    """Each kind's numbers must be finite (a box's bounds may be infinite,
    but not NaN), so a bad value fails where it is given, not in a run."""

    @pytest.mark.parametrize("build", [
        lambda: m.L1(weight=np.nan),
        lambda: m.L1(weight=np.inf),
        lambda: m.SCAD(lam=np.nan),
        lambda: m.SCAD(a=np.inf),
        lambda: m.MCP(lam=np.inf),
        lambda: m.MCP(a=np.nan),
        lambda: m.ImplicitClass.lipschitz(np.nan),
        lambda: m.ImplicitClass.bounded(np.inf),
        lambda: m.SmoothFunction(lambda x: 0.0, lambda x: x, np.nan),
        lambda: m.BoxIndicator([np.nan, -np.inf], [1.0, np.inf]),
        lambda: m.BoxIndicator([0.0], [np.nan]),
        lambda: m.QuadraticForm(Q=[[np.inf]]),
        lambda: m.QuadraticForm(Q=[[1e308, 1e308], [1e308, 1e308]]),
        lambda: m.QuadraticForm(Q=[[1.0]], r=[np.nan]),
        lambda: m.QuadraticForm(Q=[[1.0]], c=np.inf),
        lambda: m.QuadraticSmooth([[np.nan, 0.0], [0.0, 1.0]]),
        lambda: m.LinearConstraint([[np.inf]], [0.0]),
        lambda: m.LinearConstraint([[1.0]], [np.nan]),
    ], ids=["l1-weight-nan", "l1-weight-inf", "scad-lam", "scad-a", "mcp-lam",
            "mcp-a", "lipschitz", "bounded", "smooth-L", "box-lower", "box-upper",
            "quad-Q", "quad-eigenvalue", "quad-r", "quad-c", "smooth-Q", "constraint-A",
            "constraint-b"])
    def test_rejected(self, build):
        with pytest.raises(ValueError, match="finite|NaN"):
            build()


class TestConstructionChecks:
    """Each constructor check raises where the bad value is given."""

    @pytest.mark.parametrize("build, match", [
        (lambda: m.LinearConstraint(np.zeros((0, 2)), []), "at least 1x1"),
        (lambda: m.ImplicitClass("smooth", 1.0), "unknown implicit class kind 'smooth'"),
        (lambda: m.BoxIndicator([0.0, 0.0], [1.0]), "bound shapes differ"),
        (lambda: m.BoxIndicator([0.0, 2.0], [1.0, 1.0]), "lower > upper"),
        (lambda: m.PointwiseMin(pieces=()), "at least one piece"),
        (lambda: m.PointwiseMin(pieces=((m.Zero(), None),)), "QuadraticForm part"),
        (lambda: m.PointwiseMin(pieces=((m.QuadraticForm(Q=[[1.0]]), m.Zero()),)),
         "BoxIndicator"),
        # 2 ||Q|| overflows: the modulus of the pointwise minimum is inf
        (lambda: m.Problem(m.LinearConstraint([[1.0]], [0.0]), m.PointwiseMin(
            pieces=((m.QuadraticForm(Q=[[-1e308]]), None),))), "modulus must be finite"),
        (lambda: m.smallest_positive_eigenvalue([[1.0, 2.0], [0.0, 1.0]]), "symmetric"),
    ], ids=["empty-A", "implicit-kind", "box-shapes", "box-empty",
            "min-no-piece", "min-not-quadratic", "min-not-box", "infinite-modulus",
            "asymmetric-eigen"])
    def test_rejected(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()

    def test_implicit_lipschitz_constant_needs_the_lipschitz_class(self):
        prob = m.Problem(m.LinearConstraint([[1.0]], [0.5]), m.BoxIndicator([0.0], [1.0]))
        with pytest.raises(MissingMetadata, match="L_f"):
            prob.implicit_lipschitz_constant()


class TestBoxProxIsClip:
    """The box prox is np.minimum(np.maximum(v, lower), upper), which must
    give np.clip(v, lower, upper) byte for byte: signed zeros, infinite
    values and bounds, NaN, and the vector lengths that end SIMD loops in a
    scalar tail. Each length lays the values out in every rotation, so each
    value meets each bound pair in every lane."""

    SIGNED = (0.0, -0.0, 1.0, -1.0)
    BOUNDS = SIGNED + (np.inf, -np.inf)

    @staticmethod
    def _rotations(values, n):
        base = np.resize(np.array(values), n)
        return [np.roll(base, shift) for shift in range(len(values))]

    @pytest.mark.parametrize("n", (1, 3, 4, 8, 17, 33))
    def test_prox_is_np_clip_byte_for_byte(self, n):
        pairs = [(lo, hi) for lo in self.BOUNDS for hi in self.BOUNDS if not lo > hi]
        boxes = [m.BoxIndicator(np.full(n, lo), np.full(n, hi)) for lo, hi in pairs]
        # every bound pair at once, one per coordinate
        lo, hi = (self._rotations([pair[i] for pair in pairs], n)[0] for i in (0, 1))
        boxes.append(m.BoxIndicator(lo, hi))
        for box in boxes:
            for v in self._rotations(self.SIGNED, n):
                got = box.prox(0.5, v)
                assert got.tobytes() == np.clip(v, box.lower, box.upper).tobytes()
            # the prox rejects non-finite input; its clip still matches there
            for v in self._rotations(self.BOUNDS + (np.nan,), n):
                got = box._prox(0.5, v)
                assert got.tobytes() == np.clip(v, box.lower, box.upper).tobytes()


@pytest.mark.parametrize("cls", [m.Zero, m.BoxIndicator, m.L1])
def test_convex_kinds_take_no_modulus(cls):
    with pytest.raises(TypeError):
        cls(weak_convexity_modulus=2.0)
    assert cls.weak_convexity_modulus == 0.0


class TestMoreauExamples:
    def test_zero_envelope(self):
        val, grad, p = moreau_value_grad(m.Zero(), 0.7, [3.0, -2.0])
        assert val == 0.0
        np.testing.assert_allclose(grad, [0.0, 0.0])
        np.testing.assert_allclose(p, [3.0, -2.0])

    def test_half_square_analytic(self):
        val, grad, p = moreau_value_grad(m.QuadraticForm(Q=[[1.0]]), 1.0, [2.0])
        assert val == pytest.approx(1.0)
        assert grad[0] == pytest.approx(1.0)
        assert p[0] == pytest.approx(1.0)

    def test_scad_gradient_matches_finite_differences(self):
        g = m.SCAD(lam=1.0, a=3.7)
        v = np.array([1.4])
        _, grad, _ = moreau_value_grad(g, 0.5, v)
        err = finite_diff_check(lambda w: moreau_value_grad(g, 0.5, w)[0],
                                lambda _: grad, v)
        assert err <= 1e-4


class TestProxInvariants:
    """Sampled property checks for the full catalog."""

    @pytest.mark.parametrize("name,g,gamma", scalar_kinds())
    def test_against_grid_oracle(self, name, g, gamma):
        # coarse grid + ternary refinement keeps the 1000-draw sweep fast;
        # the 1e-4 grid is exercised on the frozen SCAD value above
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        vs = rng.uniform(-6.0, 6.0, size=150)
        wants = grid_prox_oracle(lambda t: g.value([t]), gamma, vs,
                                 half_range=8.0, step=1e-2)
        worst = 0.0
        for v, want in zip(vs, wants):
            got = g.prox(gamma, [v])[0]
            worst = max(worst, abs(got - want))
        assert worst <= 1e-3

    @pytest.mark.parametrize("name,g,gamma", [
        k for k in scalar_kinds() if k[1].weak_convexity_modulus == 0.0
    ])
    def test_nonexpansive_for_convex_kinds(self, name, g, gamma):
        rng = np.random.default_rng(1)
        for _ in range(200):
            v1, v2 = rng.uniform(-8, 8, size=2)
            p1 = g.prox(gamma, [v1])[0]
            p2 = g.prox(gamma, [v2])[0]
            assert abs(p1 - p2) <= abs(v1 - v2) + 1e-12

    @pytest.mark.parametrize("name,g,gamma", scalar_kinds())
    def test_envelope_lower_approximation(self, name, g, gamma):
        # envelope evaluated at the prox point stays below the function at v
        rng = np.random.default_rng(2)
        for _ in range(100):
            v = np.array([rng.uniform(-4, 4)])
            if not np.isfinite(g.value(v)):
                continue
            val, _, _ = moreau_value_grad(g, gamma, g.prox(gamma, v))
            assert val <= g.value(v) + 1e-10

    @pytest.mark.parametrize("name,g,gamma", scalar_kinds())
    def test_step_identity(self, name, g, gamma):
        rng = np.random.default_rng(3)
        for _ in range(100):
            v = np.array([rng.uniform(-6, 6)])
            _, grad, p = moreau_value_grad(g, gamma, v)
            lhs = np.linalg.norm(p - v)
            rhs = gamma * np.linalg.norm(grad)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)

    @pytest.mark.parametrize("name,g,gamma", scalar_kinds())
    def test_prox_monotone_in_v(self, name, g, gamma):
        # the scalar prox map is nondecreasing for valid gamma
        rng = np.random.default_rng(10)
        for _ in range(150):
            v1, v2 = sorted(rng.uniform(-6, 6, size=2))
            p1 = g.prox(gamma, [v1])[0]
            p2 = g.prox(gamma, [v2])[0]
            assert p1 <= p2 + 1e-10

    @pytest.mark.parametrize("name,g,gamma", [
        ("box", m.BoxIndicator([-1.0, 0.0, -np.inf], [1.0, 2.0, np.inf]), 0.5),
        ("l1", m.L1(weight=0.8), 0.7),
        ("scad", m.SCAD(lam=0.5, a=3.7), 0.5),
        ("mcp", m.MCP(lam=0.5, a=3.0), 0.5),
    ])
    def test_separable_kinds_apply_coordinatewise(self, name, g, gamma):
        rng = np.random.default_rng(11)
        v = rng.uniform(-3, 3, size=3)
        full = g.prox(gamma, v)
        if name == "box":
            for i in range(3):
                assert full[i] == np.clip(v[i], g.lower[i], g.upper[i])
        else:
            for i in range(3):
                assert full[i] == pytest.approx(g.prox(gamma, [v[i]])[0], abs=1e-12)

    def test_differentiable_bound_on_subgradient(self):
        g = m.QuadraticForm(Q=[[2.0, 0.3], [0.3, 1.0]], r=[0.1, -0.2])
        rng = np.random.default_rng(4)
        for _ in range(100):
            v = rng.uniform(-5, 5, size=2)
            _, grad, p = moreau_value_grad(g, 0.3, v)
            assert np.linalg.norm(g.gradient(p)) <= np.linalg.norm(grad) + 1e-10

    @pytest.mark.parametrize("name,g,gamma", scalar_kinds())
    def test_envelope_gradient_finite_differences(self, name, g, gamma):
        rng = np.random.default_rng(5)
        for _ in range(100):
            v = np.array([rng.uniform(-5, 5)])
            _, grad, _ = moreau_value_grad(g, gamma, v)
            err = finite_diff_check(lambda w: moreau_value_grad(g, gamma, w)[0],
                                    lambda _: grad, v)
            assert err <= 1e-4


def _vectors(n, bound=8.0):
    return st.lists(st.floats(-bound, bound), min_size=n, max_size=n).map(np.array)


# convex kinds on R^3: a box with infinite bounds, and a singular PSD quadratic
CONVEX_KINDS = {
    "zero": m.Zero(),
    "box": m.BoxIndicator([-1.0, 0.0, -np.inf], [1.0, np.inf, np.inf]),
    "l1": m.L1(weight=0.8),
    "psd_quadratic": m.QuadraticForm(Q=[[2.0, 0.5, 0.0], [0.5, 1.0, 0.0],
                                        [0.0, 0.0, 0.0]], r=[0.3, -0.2, 0.1]),
}


@pytest.mark.parametrize("name", list(CONVEX_KINDS))
@settings(max_examples=75)
@given(u=_vectors(3), v=_vectors(3), gamma=st.floats(0.01, 5.0))
def test_prox_firmly_nonexpansive_for_convex_kinds(name, u, v, gamma):
    """||Pu - Pv||^2 <= <Pu - Pv, u - v> for the prox P of a convex g."""
    g = CONVEX_KINDS[name]
    d = g.prox(gamma, u) - g.prox(gamma, v)
    slack = 1e-12 * max(1.0, float((u - v) @ (u - v)))
    assert d @ d <= d @ (u - v) + slack


# separable kinds; the 1-D box is applied to each coordinate in turn
SEPARABLE_KINDS = {
    "l1": m.L1(weight=0.8),
    "scad": m.SCAD(lam=1.0, a=3.7),
    "mcp": m.MCP(lam=1.0, a=3.0),
    "box": m.BoxIndicator([-1.0], [1.0]),
}


@pytest.mark.parametrize("name", list(SEPARABLE_KINDS))
@settings(max_examples=75)
@given(a=_vectors(3), step=st.lists(st.floats(0.0, 4.0), min_size=3, max_size=3),
       frac=st.floats(0.01, 1.0))
def test_prox_coordinatewise_monotone(name, a, step, frac):
    """prox(gamma, a) <= prox(gamma, b) whenever a <= b, for gamma up to
    0.99/rho (up to 5 for the convex kinds)."""
    g = SEPARABLE_KINDS[name]
    rho = g.weak_convexity_modulus
    gamma = frac * (0.99 / rho if rho > 0 else 5.0)
    b = a + np.array(step)
    if name == "box":
        pa = np.array([g.prox(gamma, [t])[0] for t in a])
        pb = np.array([g.prox(gamma, [t])[0] for t in b])
    else:
        pa, pb = g.prox(gamma, a), g.prox(gamma, b)
    assert np.all(pa <= pb)


class TestGoldenFiles:
    """Closed forms against the committed oracle-output fixtures."""

    @pytest.mark.parametrize("name,g", [
        ("scad_lam1_a3.7", m.SCAD(lam=1.0, a=3.7)),
        ("mcp_lam1_a3", m.MCP(lam=1.0, a=3.0)),
        ("l1_w0.7", m.L1(weight=0.7)),
    ])
    def test_matches_golden(self, name, g):
        from pathlib import Path

        path = Path(__file__).parent / "golden" / f"{name}.txt"
        for line in path.read_text().splitlines():
            if line.startswith("#"):
                continue
            gamma, v, want = map(float, line.split())
            assert g.prox(gamma, [v])[0] == pytest.approx(want, abs=1e-3)


class TestObjectiveValue:
    def test_exp1_feasible_point(self, exp1_problem):
        assert exp1_problem.objective_value([1.0, 1.0]) == 0.0

    def test_zero_objective(self):
        prob = m.Problem(m.LinearConstraint([[1.0]], [0.0]), m.Zero())
        assert prob.objective_value([3.0]) == 0.0

    def test_qp_at_origin(self):
        prob = m.build_exp2(seed=1, m=2, n=4)
        Q, r, c = prob.smooth.quadratic_terms()
        assert prob.objective_value(np.zeros(4)) == pytest.approx(c)

    def test_outside_domain_is_inf(self, exp1_problem):
        assert exp1_problem.objective_value([2.0, 2.0]) == np.inf


@pytest.mark.parametrize("call, arg", [
    (_vec, 2.5),
    (m.QuadraticForm(Q=[[2.0, 0.5], [0.5, 1.0]], r=[1.0, 0.0]).gradient, [1.0, 3.0]),
    (m.build_exp1().smooth_gradient, [1.0, 3.0]),
    (lambda x: m.objective_value(m.build_exp1(), x), [0.5, -0.25]),
], ids=["vec-of-a-scalar", "quadratic-form-gradient", "smooth-gradient",
        "module-objective-value"])
def test_a_list_or_scalar_reads_as_its_float_vector(call, arg):
    got, want = call(arg), call(np.atleast_1d(np.asarray(arg, dtype=float)))
    assert np.shape(got) == np.shape(want) and np.asarray(got).dtype == float
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestSmallestPositiveEigenvalue:
    def test_identity(self):
        assert m.smallest_positive_eigenvalue(np.eye(2)) == pytest.approx(1.0)

    def test_rank_deficient_ata(self):
        A = np.array([[1.0, -1.0]])
        assert m.smallest_positive_eigenvalue(A.T @ A) == pytest.approx(2.0)

    def test_diagonal(self):
        assert m.smallest_positive_eigenvalue(np.diag([0.0, 3.0, 5.0])) == pytest.approx(3.0)

    def test_all_zero(self):
        with pytest.raises(AllZeroMatrix):
            m.smallest_positive_eigenvalue(np.zeros((3, 3)))


class TestSmoothFunction:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        Q = np.array([[2.0, -0.5], [-0.5, 1.5]])
        h = m.QuadraticSmooth(Q, [0.3, -0.7], 1.2)
        for _ in range(20):
            x = rng.uniform(-3, 3, size=2)
            assert finite_diff_check(h.value, h.gradient, x) <= 1e-4

    def test_lipschitz_constant_on_sampled_pairs(self):
        rng = np.random.default_rng(7)
        Q = np.array([[2.0, -0.5], [-0.5, 1.5]])
        h = m.QuadraticSmooth(Q)
        for _ in range(50):
            x, y = rng.uniform(-3, 3, size=(2, 2))
            lhs = np.linalg.norm(h.gradient(x) - h.gradient(y))
            assert lhs <= h.lipschitz_grad_constant * np.linalg.norm(x - y) + 1e-12


class TestOneQuadratic:
    def test_one_eigendecomposition_per_quadratic(self, monkeypatch):
        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: calls.append(M) or real(M))
        q = m.QuadraticForm(Q=[[1.0, 0.5], [0.5, -2.0]])
        h = m.QuadraticSmooth([[3.0, 0.0], [0.0, -1.0]])
        assert len(calls) == 2
        g = m.PointwiseMin(pieces=((q, None), (q, m.BoxIndicator([0, 0], [1, 1]))))
        assert len(calls) == 2
        norm = float(np.abs(real(q.Q)).max())
        assert q.spectral_norm == norm and q.implicit_class.constant == norm
        assert g.weak_convexity_modulus == 2.0 * norm
        assert h.lipschitz_grad_constant == 3.0

    def test_boxed_piece_prox_makes_no_eigendecomposition(self, monkeypatch):
        g = m.PointwiseMin(pieces=((m.QuadraticForm(Q=[[1.0, 0.5], [0.5, -0.2]]),
                                    m.BoxIndicator([0.0, 0.0], [1.0, 1.0])),))
        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: calls.append(M) or real(M))
        x = g.prox(0.3, [2.0, -1.0])
        assert calls == []
        assert np.all((0.0 <= x) & (x <= 1.0))

    @pytest.mark.parametrize("Q, r, message", [
        ([[1.0, 2.0, 3.0]], None, "square"),
        (np.eye(2), [1.0, 2.0, 3.0], "r dimension"),
        ([[1.0, 2.0], [0.0, 1.0]], None, "symmetric"),
    ])
    def test_quadratic_smooth_checks_q_and_r(self, Q, r, message):
        with pytest.raises(ValueError, match=message):
            m.QuadraticSmooth(Q, r)


def _asymmetric(kind, amount):
    """A symmetric 600 x 600 Q from SplitMix64 with Q[599, 0] moved off
    Q[0, 599]. "neg" scales Q to (-100, 0], so its largest magnitude is a
    negative entry above 1, and moves the entry by `amount` times it; "diag"
    puts -1e6 on the diagonal of a Q in [0, 2) and moves the entry by
    `amount`; "nan" sets both entries to NaN."""
    G = SplitMix64(5).uniform_array(600, 600)
    Q = G + G.T
    if kind == "neg":
        Q *= -50.0
        amount = amount * np.abs(Q).max()
    elif kind == "diag":
        np.fill_diagonal(Q, -1e6)
    else:
        Q[0, 599] = np.nan
    Q[599, 0] = Q[0, 599] + amount
    return Q


class TestSymmetryCheck:
    @pytest.mark.parametrize("kind, amount", [("neg", 1e-13), ("diag", 1e-7)])
    def test_asymmetry_within_the_scaled_tolerance_accepted(self, kind, amount):
        m.QuadraticForm(Q=_asymmetric(kind, amount))

    @pytest.mark.parametrize("kind, amount", [("neg", 1e-11), ("diag", 1e-5)])
    def test_asymmetry_beyond_the_scaled_tolerance_rejected(self, kind, amount):
        with pytest.raises(ValueError, match="symmetric"):
            m.QuadraticForm(Q=_asymmetric(kind, amount))

    @pytest.mark.parametrize("n", [2, 600])
    def test_nan_pair_rejected_before_the_symmetry_check(self, n):
        """NaN compares false, so a NaN pair would pass the symmetry check:
        at n = 600 eigvalsh then fails to converge, and at n = 2 it returns
        NaN eigenvalues. The finiteness check ahead of it rejects Q."""
        Q = _asymmetric("nan", 0.0) if n == 600 else [[1.0, np.nan], [np.nan, 1.0]]
        with pytest.raises(ValueError, match="^Q must be finite$"):
            m.QuadraticForm(Q=Q)

    def test_check_holds_one_scratch_array(self):
        """New memory while Q is checked and decomposed: the symmetry check's
        one n x n scratch array (`tracemalloc` sees numpy's buffers, not
        `eigvalsh`'s LAPACK copy of Q; see `new_memory_peak`)."""
        Q = _asymmetric("neg", 0.0)
        assert new_memory_peak(lambda: m.QuadraticForm(Q=Q)) <= 1.1 * 8 * 600 * 600


def _symmetric(n, seed=3):
    """A symmetric n x n Q in [-1, 1) and r, x in [-1, 1), from SplitMix64."""
    rng = SplitMix64(seed)
    G = rng.uniform_array(n, n)
    return G + G.T - 1.0, 2.0 * rng.uniform_array(n) - 1.0, 2.0 * rng.uniform_array(n) - 1.0


def _product_bound(Q, r, x):
    """n eps (|Q||x| + |r|), elementwise: the round-off any order of a
    length-n dot product can make."""
    return Q.shape[0] * np.finfo(float).eps * (np.abs(Q) @ np.abs(x) + np.abs(r))


class TestSymmetricGradient:
    """The gradient is BLAS dsymv on one triangle of the stored Q."""

    @pytest.mark.parametrize("n", [2, 20, 800])
    def test_gradient_is_q_x_plus_r_within_round_off(self, n):
        Q, r, x = _symmetric(n)
        got = m.QuadraticForm(Q=Q, r=r).gradient(x)
        assert np.all(np.abs(got - (Q @ x + r)) <= _product_bound(Q, r, x))

    def test_diagonal_q_gives_the_bits_of_q_x_plus_r(self):
        h = m.build_exp1().smooth
        for x in SplitMix64(4).uniform_array(50, 2) * 20.0 - 10.0:
            assert h.gradient(x).tobytes() == (h.Q @ x + h.r).tobytes()

    def test_r_is_read_not_written(self):
        Q, r, x = _symmetric(20)
        f = m.QuadraticForm(Q=Q, r=r)
        r_bits = r.tobytes()
        g = f.gradient(x)
        first = g.tobytes()
        assert f.r.tobytes() == r_bits and not np.shares_memory(g, f.r)
        g[:] = 7.0
        assert f.r.tobytes() == r_bits and f.gradient(x).tobytes() == first

    @pytest.mark.parametrize("n", [19, 21])
    def test_x_of_another_length_rejected(self, n):
        Q, r, _ = _symmetric(20)
        with pytest.raises(ValueError, match="shape"):
            m.QuadraticForm(Q=Q, r=r).gradient(np.ones(n))

    @pytest.mark.parametrize("layout", ["fortran", "transposed-view"])
    def test_q_stored_c_contiguous(self, layout):
        Q, _, _ = _symmetric(20)
        given = np.asfortranarray(Q) if layout == "fortran" else Q.copy().T
        assert not given.flags.c_contiguous
        stored = m.QuadraticForm(Q=given).Q
        assert stored.flags.c_contiguous and np.array_equal(stored, Q)

    def test_asymmetry_within_the_tolerance_stored_symmetrized(self):
        Q0 = _asymmetric("neg", 1e-13)
        r, x = 2.0 * SplitMix64(4).uniform_array(2, 600) - 1.0
        f = m.QuadraticForm(Q=Q0, r=r)
        assert f.Q.tobytes() == f.Q.T.copy().tobytes()
        S = 0.5 * (Q0 + Q0.T)
        assert np.all(np.abs(f.gradient(x) - (S @ x + r)) <= _product_bound(S, r, x))

    def test_exact_symmetry_keeps_q(self):
        Q0 = _asymmetric("neg", 0.0)
        bits = Q0.tobytes()
        assert m.QuadraticForm(Q=Q0).Q is Q0 and Q0.tobytes() == bits


class TestProblemSizes:
    CONS = m.LinearConstraint([[1.0, 1.0]], [3.0])     # x + y = 3, n = 2

    @pytest.mark.parametrize("prox_part, smooth", [
        (m.BoxIndicator([0.0], [1.0]), m.QuadraticSmooth(np.eye(2), [-2.0, -2.0])),
        (m.Zero(), m.QuadraticSmooth(np.eye(3))),
        (m.QuadraticForm(Q=np.eye(3)), None),
        (m.PointwiseMin(pieces=((m.QuadraticForm(Q=np.eye(1)), None),)), None),
        (m.PointwiseMin(pieces=((m.QuadraticForm(Q=np.eye(2)),
                                 m.BoxIndicator([0.0] * 3, [1.0] * 3)),)), None),
    ], ids=["box", "smooth-q", "quadratic-form", "pwmin-q", "pwmin-box"])
    def test_parts_of_the_wrong_size_rejected(self, prox_part, smooth):
        with pytest.raises(ValueError, match="n=2"):
            m.Problem(self.CONS, prox_part, smooth)

    def test_parts_of_the_right_size_accepted(self):
        box = m.BoxIndicator([0.0, 0.0], [1.0, 2.0])
        prob = m.Problem(self.CONS, box, m.QuadraticSmooth(np.eye(2), [-2.0, -2.0]))
        assert prob.n == 2


class TestImplicitClassProbe:
    def test_quadratic_probe_matches_declared(self):
        g = m.QuadraticForm(Q=[[2.0]])
        est = m.probe_implicit_class(g, gamma=0.3, n_samples=100)
        assert est["lipschitz_estimate"] <= 2.0 + 1e-6

    def test_l1_probe_bounded(self):
        est = m.probe_implicit_class(m.L1(weight=0.7), gamma=1.0, n_samples=100)
        assert est["bounded_estimate"] <= 0.7 + 1e-9

    @pytest.mark.parametrize("g, gamma", [
        (m.L1(weight=0.7), 1.0), (m.SCAD(), 0.3), (m.MCP(), 0.5),
        (m.BoxIndicator([-1.0], [2.0]), 0.9), (m.Zero(), 1.0),
    ], ids=["l1", "scad", "mcp", "box", "zero"])
    def test_probe_matches_a_per_sample_loop_bit_for_bit(self, g, gamma):
        # the reference: each sample's ratios against every sample, one row at a time
        ws = np.random.default_rng(0).uniform(-10.0, 10.0, size=(200, 1))
        _, grads, us = map(np.array, zip(*[moreau_value_grad(g, gamma, w) for w in ws]))
        best = 0.0
        for i in range(len(ws)):
            du = np.linalg.norm(us - us[i], axis=1)
            dg = np.linalg.norm(grads - grads[i], axis=1)
            mask = du > 1e-9
            if mask.any():
                best = max(best, float((dg[mask] / du[mask]).max()))
        assert m.probe_implicit_class(g, gamma) == {
            "bounded_estimate": float(np.linalg.norm(grads, axis=1).max()),
            "lipschitz_estimate": best}
