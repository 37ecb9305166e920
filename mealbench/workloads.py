"""Benchmark workloads: instances, solver configurations and correctness checks.

Every workload is a list of jobs (one solver run each) built from the
benchmark seed. Seed 0 gives the acceptance-suite instances bit for bit.
Any other seed permutes the coordinates and constraint rows of those same
instances with a SplitMix64-driven Fisher-Yates shuffle. A permuted problem
is the same problem, so the work a run does barely moves with the seed.
Drawing fresh instances would not do: on the criterion-7 box-QPs one draw
(seed 4) takes 80% of the time, so solve_s would swing by multiples.
Terminal iterates are mapped back to the original coordinates before they
are recorded, so outcomes of different seeds compare directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import mealopt as m
from mealopt.envelope import EnvelopeContext, alpha_cap, beta_for_target_alpha
from mealopt.experiments import (
    DEFAULT_STOP,
    EXP1_INIT,
    EXP2_STOP,
    exp1_configs,
    exp2_configs,
)

WORKLOADS = ("paper_bundles", "boxqp_oracle", "monitored_meal", "exp2_n800")
STATUSES = ("Converged", "MaxIters", "InnerBudgetExhausted", "DivergenceDetected")
ALM_CYCLE = 50.0 / 23.0


# ---------------------------------------------------------------------------
# instance generators
# ---------------------------------------------------------------------------


def make_convex_qp(seed, n=5, mcon=2):
    """Equality-constrained convex QP (the acceptance suite's generator)."""
    rng = np.random.default_rng(seed)
    G = rng.uniform(-1, 1, size=(n, n))
    Q = G @ G.T / n + 0.1 * np.eye(n)
    r = rng.uniform(-1, 1, size=n)
    A = rng.uniform(-1, 1, size=(mcon, n))
    b = A @ rng.uniform(-1, 1, size=n)
    return m.Problem(m.LinearConstraint(A, b), m.Zero(), m.QuadraticSmooth(Q, r))


def make_box_qp(seed, n=4, mcon=2):
    """Indefinite QP over [0,1]^n with feasible Ax=b (acceptance generator)."""
    rng = np.random.default_rng(seed)
    G = rng.uniform(0, 1, size=(n, n))
    Q = 0.5 * (G + G.T)
    r = rng.uniform(0, 1, size=n)
    A = rng.uniform(0, 1, size=(mcon, n))
    b = A @ rng.uniform(0, 1, size=n)
    box = m.BoxIndicator(np.zeros(n), np.ones(n))
    return m.Problem(m.LinearConstraint(A, b), box, m.QuadraticSmooth(Q, r))


class Shuffler:
    """Seeded permutations; seed 0 yields identities."""

    def __init__(self, seed: int):
        self.rng = None if seed == 0 else m.SplitMix64(seed)

    def perm(self, n: int) -> np.ndarray:
        p = np.arange(n)
        if self.rng is None:
            return p
        for i in range(n - 1, 0, -1):
            j = self.rng.next_u64() % (i + 1)
            p[i], p[j] = p[j], p[i]
        return p


def permute_problem(problem, cols, rows):
    """The same problem with coordinates `cols` and constraint rows `rows`.

    Coordinate i of the result is coordinate cols[i] of the input. Identity
    permutations return the input object unchanged.
    """
    if np.array_equal(cols, np.arange(cols.size)) and \
            np.array_equal(rows, np.arange(rows.size)):
        return problem
    con = problem.constraint
    constraint = m.LinearConstraint(con.A[np.ix_(rows, cols)], con.b[rows])
    g = problem.prox_part
    if isinstance(g, m.BoxIndicator):
        g = m.BoxIndicator(g.lower[cols], g.upper[cols],
                           implicit_class=g.implicit_class)
    elif not isinstance(g, m.Zero):
        raise TypeError(f"cannot permute a {type(g).__name__} prox part")
    Q, r, c = problem.smooth.quadratic_terms()
    smooth = m.QuadraticSmooth(Q[np.ix_(cols, cols)], r[cols], c)
    return m.Problem(constraint, g, smooth)


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------


@dataclass
class Job:
    """One solver run of a workload, on a permuted instance."""

    label: str
    problem: object
    config: object
    init: Optional[tuple]
    cols: np.ndarray
    rows: np.ndarray
    expect_status: Optional[str] = None
    check: Optional[Callable] = None     # (job, trace) -> list of failure reasons

    def to_original(self, x, lam):
        """Terminal x and lam in the unpermuted coordinates."""
        xo = np.empty_like(x)
        xo[self.cols] = x
        lo = np.empty_like(lam)
        lo[self.rows] = lam
        return xo, lo


def _instance(shuffle, problem, init=None):
    """Permute `problem` (and `init`); returns the fields a Job needs."""
    cols, rows = shuffle.perm(problem.n), shuffle.perm(problem.m)
    if init is not None:
        x0, z0, lam0 = init
        init = (x0[cols], z0[cols], lam0[rows])
    return permute_problem(problem, cols, rows), init, cols, rows


def _exp2_jobs(shuffle, problem, stop, prefix="", expect=None, check=None):
    p, _, cols, rows = _instance(shuffle, problem)
    return [Job(prefix + label, p, cfg, None, cols, rows,
                expect_status=(expect or {}).get(prefix + label), check=check)
            for label, cfg in exp2_configs(p, stop)]


# Statuses of the acceptance instances; a different one is a failure.
PAPER_STATUSES = {
    "exp1/alm_beta50": "MaxIters",
    "exp1/limeal_beta50_gamma0.5_eta0.5": "Converged",
    "exp1/limeal_beta50_gamma0.5_eta1": "Converged",
    "exp1/limeal_beta50_gamma0.5_eta1.5": "Converged",
    "exp2/limeal_beta50_eta0.5": "Converged",
    "exp2/limeal_beta50_eta1": "Converged",
    "exp2/limeal_beta50_eta1.5": "MaxIters",
    "exp2/prox_ialm_eta0.5": "MaxIters",
    "exp2/ialm": "MaxIters",
}
N800_STEPS = 300


def paper_bundles(seed):
    shuffle = Shuffler(seed)
    p, init, cols, rows = _instance(shuffle, m.build_exp1(), EXP1_INIT)
    jobs = [Job(f"exp1/{label}", p, cfg, init, cols, rows,
                expect_status=PAPER_STATUSES[f"exp1/{label}"],
                check=_check_alm_cycle if cfg.algorithm == "alm" else None)
            for label, cfg in exp1_configs(DEFAULT_STOP)]
    return jobs + _exp2_jobs(shuffle, m.build_exp2(42, 5, 20), EXP2_STOP,
                             "exp2/", PAPER_STATUSES)


def boxqp_oracle(seed):
    shuffle = Shuffler(seed)

    def config(i, p):
        gamma = 0.5 / max(p.rho_total, 1.0)
        return m.SolverConfig(
            "meal" if i % 2 == 0 else "limeal",
            m.PenaltyPlan.fixed(50.0, gamma=gamma, eta=1.0),
            subproblem=m.InnerProxGradient(tol=1e-9, max_inner=200000),
            stop=m.StopRule(max_iters=4000, stat_tol=1e-8, feas_tol=1e-8))

    jobs = []
    for i in range(10):
        p, _, cols, rows = _instance(shuffle, make_box_qp(i))
        jobs.append(Job(f"boxqp{i}", p, config(i, p), None, cols, rows,
                        expect_status="Converged", check=_check_oracle))
    return jobs


def _monitored_config(p, gamma, eta):
    """MEAL with beta from the cap calculus and both monitors enabled."""
    probe = m.PenaltyPlan.fixed(1.0, gamma=gamma, eta=eta)
    cap = alpha_cap(p, probe, "meal-a")
    beta = beta_for_target_alpha(cap, gamma, eta,
                                 EnvelopeContext(p, probe).c_gamma_A)
    return m.SolverConfig(
        "meal", m.PenaltyPlan.fixed(beta, gamma=gamma, eta=eta),
        subproblem=m.InnerProxGradient(tol=1e-11, max_inner=300000),
        monitors=m.MonitorFlags(one_step_progress=True, dual_by_primal=True),
        stop=m.StopRule(max_iters=200, stat_tol=1e-13, feas_tol=1e-13))


def monitored_meal(seed):
    shuffle = Shuffler(seed)
    runs = [("exp1", m.build_exp1(), EXP1_INIT, 0.25, 1.0, "Converged")]
    runs += [(f"qp{qp}", make_convex_qp(qp), None, 0.5, eta, "MaxIters")
             for qp, eta in ((1, 0.5), (2, 1.0), (3, 1.5))]
    jobs = []
    for label, problem, init, gamma, eta, status in runs:
        p, init, cols, rows = _instance(shuffle, problem, init)
        jobs.append(Job(label, p, _monitored_config(p, gamma, eta), init, cols,
                        rows, expect_status=status, check=_check_monitors))
    return jobs


def exp2_n800(seed):
    stop = m.StopRule(max_iters=N800_STEPS, stat_tol=1e-6, feas_tol=1e-6)
    return _exp2_jobs(Shuffler(seed), m.build_exp2(42, 5, 800), stop,
                      check=_check_finite_descent)


BUILDERS = {
    "paper_bundles": paper_bundles,
    "boxqp_oracle": boxqp_oracle,
    "monitored_meal": monitored_meal,
    "exp2_n800": exp2_n800,
}


# ---------------------------------------------------------------------------
# correctness checks
# ---------------------------------------------------------------------------


def _check_alm_cycle(job, trace):
    lam = trace.column("lambda_norm")[-1]
    out = []
    if not trace.oscillating:
        out.append("alm multiplier is not oscillating")
    if abs(lam - ALM_CYCLE) > 1e-6:
        out.append(f"alm |lam| = {lam!r}, expected 50/23 +- 1e-6")
    return out


def _check_oracle(job, trace):
    p = job.problem
    pts, _, _ = m.active_set_qp_oracle(
        p.smooth.Q, p.smooth.r, p.constraint.A, p.constraint.b,
        p.prox_part.lower, p.prox_part.upper)
    x = trace.terminal.x
    dist = min((np.linalg.norm(x - q) for q in pts), default=np.inf)
    kkt = m.kkt_residual(p, x, trace.terminal.lam).stationarity_residual
    out = []
    if not dist <= 1e-5:
        out.append(f"oracle distance {dist:.3e} > 1e-5")
    if not kkt <= 1e-5:
        out.append(f"KKT residual {kkt:.3e} > 1e-5")
    return out


def _check_monitors(job, trace):
    out = []
    for name in ("one_step_progress", "dual_by_primal"):
        bad = trace.monitor_violations(name)
        if bad:
            out.append(f"{len(bad)} {name} violations")
    return out


def _check_finite_descent(job, trace):
    out = []
    for name in ("objective", "feasibility", "stationarity", "lambda_norm"):
        if not np.isfinite(trace.column(name)).all():
            out.append(f"non-finite {name} column")
    feas = trace.column("feasibility")
    if not feas[-1] < feas[0]:
        out.append(f"terminal feasibility {feas[-1]:.3e} not below initial {feas[0]:.3e}")
    return out


def check_run(job, trace) -> list:
    """Failure reasons of one run (empty when it passes)."""
    out = []
    if trace.status not in STATUSES:
        out.append(f"unknown status {trace.status!r}")
    if job.expect_status is not None and trace.status != job.expect_status:
        out.append(f"status {trace.status}, expected {job.expect_status}")
    if job.check is not None:
        out += job.check(job, trace)
    return out


def check_workload(name, jobs, traces) -> dict:
    """Cross-run checks; maps a job label to extra failure reasons."""
    out: dict = {}
    if name == "paper_bundles":
        iters = {j.label: traces[j.label].iterations_to(j.config.stop.stat_tol,
                                                        j.config.stop.feas_tol)
                 for j in jobs if j.label in traces}
        for fast, slow in (("exp2/limeal_beta50_eta0.5", "exp2/prox_ialm_eta0.5"),
                           ("exp2/limeal_beta50_eta1", "exp2/ialm")):
            a, b = iters.get(fast), iters.get(slow)
            a = np.inf if a is None else a
            b = np.inf if b is None else b
            if not a < b:
                for label in (fast, slow):
                    out.setdefault(label, []).append(
                        f"criterion-3 ordering broken: {fast} {a} vs {slow} {b}")
    elif name == "monitored_meal":
        for monitor in ("one_step_progress", "dual_by_primal"):
            total = sum(len(t.monitors[monitor]) for t in traces.values())
            if total < 200:
                for j in jobs:
                    out.setdefault(j.label, []).append(
                        f"only {total} {monitor} monitored steps (< 200)")
    return out
