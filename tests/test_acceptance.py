"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the assertions.
"""

import time
import zlib

import numpy as np
import pytest

import mealopt as m
from mealopt.envelope import EnvelopeContext, alpha_cap, beta_for_target_alpha
from mealopt.experiments import EXP1_INIT, ExperimentSpec, run_experiment
from mealopt.fileio import load_trace_columns
from tests.conftest import make_box_qp, make_convex_qp
from tests.test_problem import scalar_kinds


def _report(num, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[acceptance {num}] {tag} {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# shared runs
# ---------------------------------------------------------------------------


def monitored_config(problem, gamma, eta):
    """MEAL with beta from the cap calculus and both monitors enabled."""
    probe = m.PenaltyPlan.fixed(1.0, gamma=gamma, eta=eta)
    cap = alpha_cap(problem, probe, "meal-a")
    c = EnvelopeContext(problem, probe).c_gamma_A
    beta = beta_for_target_alpha(cap, gamma, eta, c)
    plan = m.PenaltyPlan.fixed(beta, gamma=gamma, eta=eta)
    return m.SolverConfig(
        "meal", plan,
        subproblem=m.InnerProxGradient(tol=1e-11, max_inner=300000),
        monitors=m.MonitorFlags(one_step_progress=True, dual_by_primal=True),
        stop=m.StopRule(max_iters=200, stat_tol=1e-13, feas_tol=1e-13))


MONITORED_QPS = ((1, 0.5), (2, 1.0), (3, 1.5))   # make_convex_qp seed, eta


@pytest.fixture(scope="module")
def monitored_runs():
    exp1 = m.build_exp1()
    runs = [("exp1", m.run(exp1, monitored_config(exp1, 0.25, 1.0), init=EXP1_INIT))]
    for seed, eta in MONITORED_QPS:
        problem = make_convex_qp(seed)
        runs.append((f"qp{seed}", m.run(problem, monitored_config(problem, 0.5, eta))))
    return runs


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_exp1_divergence_convergence_split():
    problem = m.build_exp1()
    t0 = time.perf_counter()

    alm_cfg = m.SolverConfig("alm", m.PenaltyPlan.fixed(50.0, gamma=0.5, eta=1.0),
                             stop=m.StopRule(max_iters=520, stat_tol=1e-6,
                                             feas_tol=1e-6))
    alm = m.run(problem, alm_cfg, init=EXP1_INIT)

    lim_hits = {}
    for eta in (0.5, 1.0, 1.5):
        cfg = m.SolverConfig(
            "limeal", m.PenaltyPlan.fixed(50.0, gamma=0.5, eta=eta),
            subproblem=m.InnerProxGradient(tol=1e-9, max_inner=200000),
            stop=m.StopRule(max_iters=55, stat_tol=1e-7, feas_tol=1e-7))
        tr = m.run(problem, cfg, init=EXP1_INIT)
        obj = np.abs(tr.column("objective"))
        feas = tr.column("feasibility")
        hit = np.where((obj <= 1e-6) & (feas <= 1e-6))[0]
        lim_hits[eta] = int(hit[0]) if hit.size else None
    elapsed = time.perf_counter() - t0

    # period-2 multiplier cycle with feasibility bounded away from zero
    lam_at = lambda k: alm.column("lambda_norm")[k]
    ok = (alm.oscillating
          and alm.column("feasibility")[500] >= 1e-3
          and abs(lam_at(510) - 50.0 / 23.0) <= 1e-6
          and all(h is not None and h <= 50 for h in lim_hits.values())
          and elapsed < 1.0)
    _report(1, ok, f"alm oscillating, |lam|->50/23, feas(500)="
                   f"{alm.column('feasibility')[500]:.4f}, limeal hits {lim_hits}, "
                   f"{elapsed:.2f}s")


def test_criterion_2_exp1_linear_rate():
    problem = m.build_exp1()
    fits = {}
    for eta in (0.5, 1.5):
        cfg = m.SolverConfig(
            "limeal", m.PenaltyPlan.fixed(50.0, gamma=0.5, eta=eta),
            subproblem=m.InnerProxGradient(tol=1e-12, max_inner=300000),
            stop=m.StopRule(max_iters=400, stat_tol=1e-11, feas_tol=1e-11))
        tr = m.run(problem, cfg, init=EXP1_INIT)
        fits[eta] = m.rate_fit(tr.column("stationarity"), burn_in=5)
    # eta = 1 contracts to the float floor in under ten steps: too few
    # positive points for the fit's own precondition, so it is not asserted
    ok = all(f.kind == "linear" and f.r2 >= 0.95 for f in fits.values())
    detail = ", ".join(f"eta={e}: tau={f.rate:.3f} r2={f.r2:.4f}"
                       for e, f in fits.items())
    _report(2, ok, detail)


def test_criterion_3_exp2_comparative_speed(exp2_bundle):
    bundle, _, elapsed = exp2_bundle
    INF = float("inf")

    def iters(label):
        v = bundle.iterations_to_tol(label)
        return INF if v is None else v

    pairs = [("limeal_beta50_eta0.5", "prox_ialm_eta0.5"),
             ("limeal_beta50_eta1", "ialm")]
    comparisons = {f"{a} vs {b}": (iters(a), iters(b)) for a, b in pairs}
    ok = all(a < b for a, b in comparisons.values()) and elapsed < 5.0
    _report(3, ok, f"{comparisons}, bundle {elapsed:.2f}s")


def test_criterion_4_one_step_progress(monitored_runs):
    total_checked = 0
    violations = []
    for name, tr in monitored_runs:
        entries = tr.monitors["one_step_progress"]
        total_checked += len(entries)
        violations += [(name, e) for e in entries if not e[-1]]
    ok = total_checked >= 200 and not violations
    _report(4, ok, f"{total_checked} monitored steps, {len(violations)} violations")


def test_criterion_5_dual_by_primal(monitored_runs):
    total_checked = 0
    violations = []
    for name, tr in monitored_runs:
        entries = tr.monitors["dual_by_primal"]
        total_checked += len(entries)
        violations += [(name, e) for e in entries if not e[-1]]
    ok = total_checked >= 200 and not violations
    _report(5, ok, f"{total_checked} monitored steps, {len(violations)} violations")


def test_criterion_6_moreau_machinery():
    worst_fd, worst_step = 0.0, 0.0
    for name, g, gamma in scalar_kinds():
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        for _ in range(100):
            v = np.array([rng.uniform(-5.0, 5.0)])
            _, grad, p = m.moreau_value_grad(g, gamma, v)
            err = m.finite_diff_check(
                lambda w: m.moreau_value_grad(g, gamma, w)[0], lambda _: grad, v)
            worst_fd = max(worst_fd, err)
            step_gap = abs(np.linalg.norm(p - v) - gamma * np.linalg.norm(grad))
            worst_step = max(worst_step, step_gap)
    ok = worst_fd <= 1e-4 and worst_step <= 1e-10
    _report(6, ok, f"max FD rel err {worst_fd:.2e}, max step-identity gap "
                   f"{worst_step:.2e} over 100 pts x {len(scalar_kinds())} kinds")


def criterion_7_config(seed):
    """Box-QP `seed` of criterion 7 and its config: MEAL on even seeds,
    LiMEAL on odd ones."""
    problem = make_box_qp(seed)
    gamma = 0.5 / max(problem.rho_total, 1.0)
    algo = "meal" if seed % 2 == 0 else "limeal"
    return problem, m.SolverConfig(
        algo, m.PenaltyPlan.fixed(50.0, gamma=gamma, eta=1.0),
        subproblem=m.InnerProxGradient(tol=1e-9, max_inner=200000),
        stop=m.StopRule(max_iters=4000, stat_tol=1e-8, feas_tol=1e-8))


# each run's total inner iterations (face steps plus accelerated-loop
# iterations): a change to the face-step certificate moves only these
CRITERION_7_INNER = [74, 103, 38, 33, 2734, 118, 179, 30, 42, 129]


def test_criterion_7_oracle_equivalence():
    worst_dist, worst_kkt = 0.0, 0.0
    statuses, inner = [], []
    for seed in range(10):
        problem, cfg = criterion_7_config(seed)
        tr = m.run(problem, cfg)
        statuses.append(tr.status)
        inner.append(sum(tr.inner_iterations))
        pts, _, _ = m.active_set_qp_oracle(
            problem.smooth.Q, problem.smooth.r, problem.constraint.A,
            problem.constraint.b, problem.prox_part.lower, problem.prox_part.upper)
        dist = min(np.linalg.norm(tr.terminal.x - q) for q in pts)
        rep = m.kkt_residual(problem, tr.terminal.x, tr.terminal.lam)
        worst_dist = max(worst_dist, dist)
        worst_kkt = max(worst_kkt, rep.stationarity_residual)
    ok = (all(s == "Converged" for s in statuses)
          and worst_dist <= 1e-5 and worst_kkt <= 1e-5
          and inner == CRITERION_7_INNER)
    _report(7, ok, f"10 box-QPs: worst dist {worst_dist:.2e}, "
                   f"worst KKT {worst_kkt:.2e}, inner iterations {inner}")


def test_criterion_8_complexity_trend(monitored_runs):
    details = []
    ok = True
    for name, tr in monitored_runs:
        xi = tr.column("stationarity")
        converged = tr.status == "Converged" or xi[-1] <= 1e-6
        if not converged:
            continue
        ks = np.arange(len(xi), dtype=float)
        u = ks * xi ** 2
        half = len(u) // 2
        coef = np.polyfit(ks[half:], u[half:], 1)
        pred = np.polyval(coef, ks[half:])
        ss_tot = float(np.sum((u[half:] - u[half:].mean()) ** 2))
        r2 = 1.0 - float(np.sum((u[half:] - pred) ** 2)) / ss_tot if ss_tot > 0 else 1.0
        details.append(f"{name}: slope={coef[0]:.2e} r2={r2:.3f}")
        ok = ok and coef[0] <= 1e-12
    ok = ok and len(details) >= 3
    _report(8, ok, "; ".join(details))


def test_criterion_9_fixed_point_invariance():
    worst = 0.0
    for seed in (0, 3):
        problem = make_box_qp(seed)
        pts, mults, _ = m.active_set_qp_oracle(
            problem.smooth.Q, problem.smooth.r, problem.constraint.A,
            problem.constraint.b, problem.prox_part.lower, problem.prox_part.upper)
        idx = int(np.argmin([m.kkt_residual(problem, p, mu).stationarity_residual
                             for p, mu in zip(pts, mults)]))
        x_star, lam_star = pts[idx], mults[idx]
        state = m.IterateState(x_star, x_star.copy(), lam_star)
        gamma = 0.5 / max(problem.rho_total, 1.0)
        p_coef = 2.0 * float(np.linalg.norm(problem.smooth.Q, 2))
        inner = m.InnerProxGradient(tol=1e-12, max_inner=400000)
        plan = m.PenaltyPlan.fixed(50.0, gamma=gamma, eta=1.0)
        ctx = EnvelopeContext(problem, plan, inner)
        steps = {
            "meal": lambda: m.meal_step(ctx, state),
            "imeal": lambda: m.imeal_step(ctx, state, 1e-12),
            "limeal": lambda: m.limeal_step(ctx, state),
            "alm": lambda: m.alm_step(ctx, state),
            "prox_ialm": lambda: m.prox_ialm_step(
                EnvelopeContext(problem, m.PenaltyPlan.fixed(50.0, 1.0 / p_coef, 1.0)),
                state),
        }
        for algo, step in steps.items():
            new, _ = step()
            worst = max(worst, float(np.linalg.norm(new.x - x_star)))
    ok = worst <= 1e-8
    _report(9, ok, f"max per-step movement {worst:.2e} across 5 algorithms x 2 QPs")


def test_criterion_10_determinism(exp2_bundle, tmp_path):
    _, out_a, _ = exp2_bundle
    run_experiment(ExperimentSpec("exp2", seed=42), out_dir=tmp_path)
    names_a = sorted(p.name for p in (out_a / "exp2").glob("*.csv"))
    names_b = sorted(p.name for p in (tmp_path / "exp2").glob("*.csv"))
    ok = names_a == names_b
    compared = 0
    for name in names_a:
        if name == "summary.csv":
            continue
        ca = load_trace_columns(out_a / "exp2" / name)
        cb = load_trace_columns(tmp_path / "exp2" / name)
        for col in ca:
            if col == "wall_time":
                continue
            ok = ok and np.array_equal(ca[col], cb[col], equal_nan=True)
        compared += 1
    ok = ok and compared == 5
    _report(10, ok, f"{compared} traces byte-stable modulo wall_time")
