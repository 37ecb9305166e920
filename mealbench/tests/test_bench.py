import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import mealopt as m
from mealopt import solvers
from mealbench import clock, compare, workloads as W
from mealbench.tracer import Tracer, instrument
from tests.conftest import make_box_qp, make_convex_qp


def _arrays(p):
    Q, r, c = p.smooth.quadratic_terms()
    out = [Q, r, np.array([c]), p.constraint.A, p.constraint.b]
    if isinstance(p.prox_part, m.BoxIndicator):
        out += [p.prox_part.lower, p.prox_part.upper]
    return out


def _same(p, q):
    a, b = _arrays(p), _arrays(q)
    return len(a) == len(b) and all(
        x.shape == y.shape and np.array_equal(x, y) for x, y in zip(a, b))


def _by_label(jobs):
    return {j.label: j for j in jobs}


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_seed0_box_and_convex_qps_are_the_acceptance_instances():
    box = _by_label(W.boxqp_oracle(0))
    for i in range(10):
        assert _same(box[f"boxqp{i}"].problem, make_box_qp(i))
    mon = _by_label(W.monitored_meal(0))
    for i in (1, 2, 3):
        assert _same(mon[f"qp{i}"].problem, make_convex_qp(i))
    assert _same(mon["exp1"].problem, m.build_exp1())


def test_seed0_exp2_instances_are_build_exp2():
    paper = _by_label(W.paper_bundles(0))
    assert _same(paper["exp2/ialm"].problem, m.build_exp2(42, 5, 20))
    assert _same(paper["exp1/alm_beta50"].problem, m.build_exp1())
    n800 = W.exp2_n800(0)
    assert _same(n800[0].problem, m.build_exp2(42, 5, 800))


def test_other_seeds_permute_the_same_problem():
    job = next(j for j in W.boxqp_oracle(7)
               if not np.array_equal(j.cols, np.arange(4)))
    base = make_box_qp(int(job.label[len("boxqp"):]))
    x = np.array([0.1, 0.7, 0.3, 0.9])
    xp = x[job.cols]
    p = job.problem
    assert p.objective_value(xp) == pytest.approx(base.objective_value(x), abs=1e-12)
    assert np.allclose(p.constraint.A @ xp - p.constraint.b,
                       (base.constraint.A @ x - base.constraint.b)[job.rows])
    back, _ = job.to_original(xp, np.zeros(p.m))
    assert np.array_equal(back, x)
    assert all(np.array_equal(a.cols, b.cols)
               for a, b in zip(W.boxqp_oracle(7), W.boxqp_oracle(7)))


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


def test_span_self_times_partition_their_parents():
    job = _by_label(W.paper_bundles(0))["exp1/limeal_beta50_gamma0.5_eta1"]
    tracer = Tracer(keep=10 ** 6)
    original = solvers.run
    with instrument(tracer):
        trace = solvers.run(job.problem, job.config, init=job.init)
    assert solvers.run is original
    assert trace.status == "Converged"
    spans = tracer.spans
    assert len(spans) == sum(agg[0] for agg in tracer.stats.values())

    dur = {sid: end - start for sid, _, _, start, end in spans}
    children: dict = {}
    for sid, parent, _, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append(sid)
    self_t = {sid: dur[sid] - sum(dur[c] for c in children.get(sid, ()))
              for sid in dur}
    roots = [span for span in spans if span[1] is None]
    assert [span[2] for span in roots] == ["solvers.run"]

    def subtree(sid):
        return self_t[sid] + sum(subtree(c) for c in children.get(sid, ()))

    for sid in dur:                         # every parent is partitioned
        assert subtree(sid) == pytest.approx(dur[sid], abs=1e-9)
        assert self_t[sid] >= -1e-9
    total_self = sum(agg[2] for agg in tracer.stats.values())
    assert total_self == pytest.approx(dur[roots[0][0]], abs=1e-9)
    assert tracer.calls("problem.prox.box") == tracer.counts["inner_iters"] > 0


# ---------------------------------------------------------------------------
# correctness checks
# ---------------------------------------------------------------------------


def _solve(job):
    return m.run(job.problem, job.config, init=job.init)


def _with_column(trace, name, index, value):
    cols = {k: v.copy() for k, v in trace.columns.items()}
    cols[name][index] = value
    return dataclasses.replace(trace, columns=cols)


def test_oracle_check_fails_on_perturbed_iterate_or_status():
    job = _by_label(W.boxqp_oracle(0))["boxqp7"]
    tr = _solve(job)
    assert W.check_run(job, tr) == []
    t = tr.terminal
    moved = dataclasses.replace(tr, terminal=m.IterateState(t.x + 1e-3, t.z, t.lam))
    assert any("oracle distance" in r for r in W.check_run(job, moved))
    assert W.check_run(job, dataclasses.replace(tr, status="MaxIters"))


def test_alm_cycle_check_fails_off_the_cycle():
    job = _by_label(W.paper_bundles(0))["exp1/alm_beta50"]
    tr = _solve(job)
    assert W.check_run(job, tr) == []
    lam = tr.column("lambda_norm")[-1]
    assert W.check_run(job, _with_column(tr, "lambda_norm", -1, lam + 2e-6))
    assert W.check_run(job, dataclasses.replace(tr, oscillating=False))
    assert W.check_run(job, dataclasses.replace(tr, status="Converged"))


def test_monitor_check_fails_on_a_violation():
    job = _by_label(W.monitored_meal(0))["exp1"]
    tr = _solve(job)
    assert W.check_run(job, tr) == []
    monitors = {k: list(v) for k, v in tr.monitors.items()}
    monitors["dual_by_primal"].append((99, 1.0, 0.5, False))
    assert W.check_run(job, dataclasses.replace(tr, monitors=monitors))


def test_finite_descent_check_fails_on_bad_terminal_rows():
    job = _by_label(W.boxqp_oracle(0))["boxqp7"]
    tr = _solve(job)
    assert W._check_finite_descent(job, tr) == []
    feas0 = tr.column("feasibility")[0]
    assert W._check_finite_descent(job, _with_column(tr, "feasibility", -1, feas0))
    assert W._check_finite_descent(job, _with_column(tr, "objective", 3, np.nan))


def test_workload_checks_fail_on_order_and_monitor_count():
    jobs = W.paper_bundles(0)
    iters = {"exp2/limeal_beta50_eta0.5": 10, "exp2/prox_ialm_eta0.5": None,
             "exp2/limeal_beta50_eta1": 20, "exp2/ialm": None}
    traces = {k: SimpleNamespace(iterations_to=lambda *_, v=v: v)
              for k, v in iters.items()}
    assert W.check_workload("paper_bundles", jobs, traces) == {}
    traces["exp2/ialm"] = SimpleNamespace(iterations_to=lambda *_: 15)
    bad = W.check_workload("paper_bundles", jobs, traces)
    assert set(bad) == {"exp2/limeal_beta50_eta1", "exp2/ialm"}

    mon = W.monitored_meal(0)
    entry = (1, 1.0, 0.0, True)
    full = {j.label: SimpleNamespace(monitors={"one_step_progress": [entry] * 60,
                                               "dual_by_primal": [entry] * 60})
            for j in mon}
    assert W.check_workload("monitored_meal", mon, full) == {}
    full["qp3"] = SimpleNamespace(monitors={"one_step_progress": [],
                                            "dual_by_primal": [entry] * 60})
    assert len(W.check_workload("monitored_meal", mon, full)) == len(mon)


# ---------------------------------------------------------------------------
# compare and the entry point
# ---------------------------------------------------------------------------


def _record(**changes):
    run = {"label": "a", "status": "Converged", "converged_at": 5,
           "outer_steps": 6, "inner_iters": 40, "x": [0.5, 1.0], "lam": [2.0],
           "solve_s": 0.1}
    return {"runs": [{**run, **changes}]}


def test_compare_reports_count_and_iterate_changes():
    assert compare.compare(_record(), _record(solve_s=9.0)) == ([], 0.0)
    lines, _ = compare.compare(_record(), _record(inner_iters=41))
    assert lines == ["a: inner_iters 40 -> 41"]
    lines, worst = compare.compare(_record(), _record(x=[0.5, 1.0 + 1e-6]))
    assert lines == [] and worst == pytest.approx(1e-6)
    assert compare.compare(_record(), {"runs": []})[0] == ["a: missing from the new output"]


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(Path(__file__).resolve().parents[1], tmp_path / "mealbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "mealbench/run.py", "--workload", "paper_bundles",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_host_clock_scales_wall_time_by_probe_speed(monkeypatch):
    """On a host at half the reference speed, 1 s of wall time reads 0.5 s,
    and the probes' own time is left out."""
    fake = {"t": 100.0}
    monkeypatch.setattr(clock.time, "perf_counter", lambda: fake["t"])

    def slow_probe(inputs):
        fake["t"] += 2 * clock.PROBE_REF_S
    monkeypatch.setattr(clock, "probe_kernel", slow_probe)
    monkeypatch.setattr(clock, "PROBE_EVERY_S", 600.0)   # no alarm fires
    with clock.HostClock() as c:
        r0 = c.now()
        fake["t"] += 1.0
        r1 = c.now()
    assert r1 - r0 == pytest.approx(0.5)
    assert c.probes == [pytest.approx(2 * clock.PROBE_REF_S)] * 2
