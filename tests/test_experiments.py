import hashlib

import numpy as np
import pytest

import mealopt as m
from mealopt.experiments import (
    EXP2_STOP,
    ExperimentSpec,
    exp2_configs,
    run_experiment,
)
from mealopt.fileio import load_trace_columns
from mealopt.rng import SplitMix64
from tests.conftest import new_memory_peak

# the memory bounds are in units of n x n doubles at n = 600
_N_MEM = 600
_NN_BYTES = 8 * _N_MEM * _N_MEM


def _sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


class TestSplitMix64:
    def test_golden_outputs_seed_zero(self):
        # frozen from an independent transcription of the published algorithm
        g = SplitMix64(0)
        assert [g.next_u64() for _ in range(3)] == [
            16294208416658607535, 7960286522194355700, 487617019471545679]

    def test_golden_outputs_seed_42(self):
        g = SplitMix64(42)
        assert g.next_u64() == 13679457532755275413
        assert g.uniform() == pytest.approx(0.1599103928769201, abs=0.0)

    def test_uniform_range(self):
        g = SplitMix64(7)
        xs = [g.uniform() for _ in range(2000)]
        assert min(xs) >= 0.0 and max(xs) < 1.0
        assert abs(np.mean(xs) - 0.5) < 0.05

    @pytest.mark.parametrize("seed", [0, 42, 2 ** 64 - 1, 12345678901234567])
    @pytest.mark.parametrize("shape", [(40, 30), (800,), (5, 80), (3,), (0,)])
    def test_uniform_array_is_uniform_in_a_loop(self, seed, shape):
        """The vectorized draw gives the values, and leaves the state, of
        uniform() called once per element in row-major order."""
        vec, loop = SplitMix64(seed), SplitMix64(seed)
        got = vec.uniform_array(*shape)
        want = np.array([loop.uniform() for _ in range(int(np.prod(shape)))])
        assert got.shape == shape and got.dtype == np.float64
        np.testing.assert_array_equal(got.ravel(), want)
        assert vec._state == loop._state
        assert vec.next_u64() == loop.next_u64()

    def test_uniform_array_holds_two_arrays_at_most(self):
        """The draw mixes in place with one scratch array (`tracemalloc`
        sees numpy's buffers; see `new_memory_peak`)."""
        peak = new_memory_peak(lambda: SplitMix64(3).uniform_array(_N_MEM, _N_MEM))
        assert peak <= 2.1 * _NN_BYTES


class TestBuilders:
    def test_exp1_structure(self):
        p = m.build_exp1()
        assert p.composite and p.L_h == pytest.approx(2.0)
        np.testing.assert_array_equal(p.constraint.A, [[1.0, -1.0]])
        assert p.objective_value([0.5, 0.5]) == 0.0
        # optimal value over the feasible set is 0 at every feasible point
        for t in np.linspace(-1, 1, 11):
            assert p.objective_value([t, t]) == pytest.approx(0.0, abs=1e-15)

    def test_exp1_c_gamma_A(self):
        p = m.build_exp1()
        ctx = m.EnvelopeContext(p, m.PenaltyPlan.fixed(50.0, 0.5, 1.0))
        assert ctx.sigma_min_pos == pytest.approx(2.0)
        assert ctx.c_gamma_A == pytest.approx(0.5)

    def test_exp2_feasible_by_construction(self):
        p = m.build_exp2(seed=42)
        ok, res = p.constraint.feasibility_probe()
        assert ok
        assert p.n == 20 and p.m == 5

    def test_exp2_requires_m_less_than_n(self):
        with pytest.raises(ValueError):
            m.build_exp2(seed=1, m=5, n=5)

    def test_exp2_spec_resolves_and_checks_sizes(self):
        spec = ExperimentSpec("exp2")
        assert (spec.m, spec.n) == (5, 20)
        assert (ExperimentSpec("exp2", m=2).m, ExperimentSpec("exp2", n=8).n) == (2, 8)
        for mm, nn in ((0, 20), (5, 5), (3, 2)):
            with pytest.raises(ValueError, match="m < n"):
                ExperimentSpec("exp2", m=mm, n=nn)

    def test_exp2_same_seed_identical_bytes(self):
        a = m.build_exp2(seed=11, m=3, n=6)
        b = m.build_exp2(seed=11, m=3, n=6)
        assert a.smooth.Q.tobytes() == b.smooth.Q.tobytes()
        assert a.constraint.A.tobytes() == b.constraint.A.tobytes()
        assert a.constraint.b.tobytes() == b.constraint.b.tobytes()
        c = m.build_exp2(seed=12, m=3, n=6)
        assert a.smooth.Q.tobytes() != c.smooth.Q.tobytes()

    @pytest.mark.parametrize("n, digests", [
        (20, {"Q": "f99da4a00318c673202dad4af87d289d90cc5f270f9b509d330b12b33c8761c6",
              "r": "a5bf41a5351f6d0f54d98b5b88d111f1183920bb5c4f54926a0b81e2edfc9041",
              "A": "4bb27bd5072be7f4efe39eee6dd11123f5fbc779c4c31c9df38bdf49626138dd"}),
        (800, {"Q": "36928a1ab5b2e95748717918ff0f8a18a6edf72ab50bcb560822116abae696b1",
               "r": "73ee55d44707265306850f6d940612b6c206d82d0691c923827f48c219f3f555",
               "A": "ff9111d24b8e8cd8e9b2b31005613d745ef72f6e4cb474298622ead41104c714"}),
    ])
    def test_exp2_bits_pinned(self, n, digests):
        """Q, r and A come from SplitMix64 and IEEE adds and multiplies only,
        so their bytes are the same on every platform. b goes through BLAS,
        so it is checked against A x_tilde with x_tilde drawn again from the
        same stream."""
        p = m.build_exp2(42, 5, n)
        Q, r, _ = p.smooth.quadratic_terms()
        A, b = p.constraint.A, p.constraint.b
        assert {"Q": _sha256(Q), "r": _sha256(r), "A": _sha256(A)} == digests
        rng = SplitMix64(42)
        for shape in ((n, n), (n,), (5, n)):
            rng.uniform_array(*shape)
        np.testing.assert_array_equal(b, A.dot(rng.uniform_array(n)))

    def test_exp2_holds_two_n_by_n_arrays_at_most(self):
        """G and Q while Q is formed, Q and one scratch while Q is checked;
        `eigvalsh`'s own copy of Q is LAPACK's and not seen here."""
        peak = new_memory_peak(lambda: m.build_exp2(42, 5, _N_MEM))
        assert peak <= 2.1 * _NN_BYTES

    def test_exp2_parameter_derivation(self):
        p = m.build_exp2(seed=42)
        Q, _, _ = p.smooth.quadratic_terms()
        q_norm = float(np.linalg.norm(Q, 2))
        labels = dict(exp2_configs(p))
        lim = labels["limeal_beta50_eta1"]
        assert lim.plan.gamma == pytest.approx(1.0 / (2.0 * q_norm))
        pia = labels["ialm"]
        assert 1.0 / pia.plan.gamma == pytest.approx(2.0 * q_norm)
        # the budget `mealopt exp2` and ExperimentSpec("exp2") run with
        assert {cfg.stop for cfg in labels.values()} == {EXP2_STOP}


class TestBundles:
    def test_exp1_bundle_split(self):
        bundle = run_experiment(ExperimentSpec("exp1"))
        assert not bundle.errors
        assert bundle.traces["alm_beta50"].oscillating
        assert bundle.traces["alm_beta50"].status == "MaxIters"
        for eta in ("0.5", "1", "1.5"):
            tr = bundle.traces[f"limeal_beta50_gamma0.5_eta{eta}"]
            assert tr.status == "Converged"

    def test_exp1_limeal_terminal_quality(self):
        bundle = run_experiment(ExperimentSpec("exp1"))
        for eta in ("0.5", "1", "1.5"):
            tr = bundle.traces[f"limeal_beta50_gamma0.5_eta{eta}"]
            assert abs(tr.column("objective")[-1]) <= 1e-6
            assert tr.column("feasibility")[-1] <= 1e-6

    def test_empty_custom_grid(self):
        bundle = run_experiment(ExperimentSpec("custom", grid=()))
        assert bundle.traces == {} and bundle.summary == []

    def test_solver_errors_recorded_not_raised(self):
        p = m.build_exp1()
        bad = m.SolverConfig("meal", m.PenaltyPlan.fixed(50.0, 0.9, 1.0))  # gamma too big
        bundle = run_experiment(ExperimentSpec("custom", grid=(("bad", p, bad),)))
        assert "bad" in bundle.errors
        assert "GammaTooLarge" in bundle.errors["bad"]

    def test_exp2_terminal_feasibility_when_converged(self):
        bundle = run_experiment(ExperimentSpec("exp2", seed=42))
        for row in bundle.summary:
            if row["status"] == "Converged":
                assert row["terminal_feasibility"] <= 1e-5

    def test_csv_outputs_and_rerun_determinism(self, tmp_path):
        spec = ExperimentSpec("exp2", seed=42, m=3, n=8)
        run_experiment(spec, out_dir=tmp_path / "a")
        run_experiment(spec, out_dir=tmp_path / "b")
        a_files = sorted((tmp_path / "a" / "exp2").glob("*.csv"))
        b_files = sorted((tmp_path / "b" / "exp2").glob("*.csv"))
        assert [f.name for f in a_files] == [f.name for f in b_files]
        assert len(a_files) == 6  # five runs + summary
        for fa, fb in zip(a_files, b_files):
            if fa.name == "summary.csv":
                continue
            ca = load_trace_columns(fa)
            cb = load_trace_columns(fb)
            for name in ca:
                if name == "wall_time":
                    continue
                np.testing.assert_array_equal(ca[name], cb[name], err_msg=fa.name)


def test_an_unknown_experiment_id_is_rejected():
    with pytest.raises(ValueError, match="exp1, exp2 or custom"):
        m.ExperimentSpec("exp3")


def test_iterations_to_tol_of_an_unknown_label():
    bundle = m.ExperimentBundle(m.ExperimentSpec("exp1"),
                                summary=[{"run": "meal", "iterations_to_tol": 7}])
    assert bundle.iterations_to_tol("meal") == 7
    with pytest.raises(KeyError, match="limeal"):
        bundle.iterations_to_tol("limeal")
