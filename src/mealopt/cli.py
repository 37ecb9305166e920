"""Command-line front end.

Subcommands: solve (run one algorithm on a problem file), exp1/exp2 (the two
scripted benchmarks), check (self-certification suite), prox-table (dump prox
values over a grid, e.g. for golden-file regeneration).

Exit codes: 0 success, 2 usage, schema or unwritable-output error, 3 solver
non-convergence (traces are still written). Default output directory comes
from the MEALOPT_OUT_DIR environment variable, falling back to ./runs.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .envelope import (
    _VARIANTS,
    InnerProxGradient,
    Paper72FastPath,
    PenaltyPlan,
    alpha_cap,
    beta_for_target_alpha,
)
from .errors import MealoptError
from .experiments import (DEFAULT_SEED, DEFAULT_STOP, EXP2_STOP, ExperimentSpec,
                          run_experiment)
from .fileio import _PROX_KINDS, _prox_in, load_problem, save_trace
from .problem import MCP, SCAD, BoxIndicator, L1, Zero
from .solvers import ALGORITHMS, EpsilonSchedule, SolverConfig, StopRule, run

_SUBPROBLEMS = {
    "inner": InnerProxGradient,
    "paper72": Paper72FastPath,
}
PROX_TABLE_MAX_POINTS = 10 ** 6   # prox-table's largest grid


def _positive(flag: str, kind=float):
    def parse(text: str):
        val = kind(text)
        if not val > 0:
            raise argparse.ArgumentTypeError(f"{flag} must be positive, got {text}")
        return val
    return parse


def _eta(text: str) -> float:
    val = float(text)
    if not (0.0 < val < 2.0):
        raise argparse.ArgumentTypeError(f"--eta must lie in (0, 2), got {text}")
    return val


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mealopt",
                                     description="Envelope-smoothed augmented "
                                                 "Lagrangian solvers")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser(
        "solve", help="run one solver on a problem file",
        description="Run one solver on a problem file, write its trace CSV and "
                    "print a summary: status, steps, total inner iterations and "
                    "the trace path.")
    solve.add_argument("--input", required=True, help="problem JSON path")
    solve.add_argument("--algorithm", required=True, choices=tuple(ALGORITHMS))
    solve.add_argument("--beta", type=_positive("--beta"))
    solve.add_argument("--gamma", type=_positive("--gamma"), default=0.5)
    solve.add_argument("--eta", type=_eta, default=1.0)
    solve.add_argument("--horizon-K", type=_positive("--horizon-K", int), dest="horizon_k")
    solve.add_argument("--alpha-target", type=_positive("--alpha-target"),
                       dest="alpha_target")
    solve.add_argument("--cap-variant", default=None, choices=_VARIANTS,
                       help="with --alpha-target and a fixed beta: use the "
                            "smaller of the target and this variant's "
                            "admissible cap")
    solve.add_argument("--epsilon0", type=_positive("--epsilon0"))
    solve.add_argument("--max-iters", type=_positive("--max-iters", int), default=2000)
    solve.add_argument("--stat-tol", type=_positive("--stat-tol"), default=1e-6)
    solve.add_argument("--feas-tol", type=_positive("--feas-tol"), default=1e-6)
    solve.add_argument("--subproblem-path", choices=tuple(_SUBPROBLEMS), default=None)
    solve.add_argument("--output-dir", default=None)

    for name in ("exp1", "exp2"):
        p = sub.add_parser(name, help=f"reproduce benchmark {name}")
        p.add_argument("--output-dir", default=None)
        p.add_argument("--max-iters", type=_positive("--max-iters", int),
                       default=(EXP2_STOP if name == "exp2" else DEFAULT_STOP).max_iters)
        if name == "exp2":
            p.add_argument("--seed", type=int, default=DEFAULT_SEED)
            p.add_argument("--m", type=_positive("--m", int))
            p.add_argument("--n", type=_positive("--n", int))

    sub.add_parser("check", help="run the oracle certification suite")

    prox = sub.add_parser("prox-table", help="dump prox values over a 1-D grid")
    prox.add_argument("--kind", required=True, choices=(*_PROX_KINDS, "box"))
    prox.add_argument("--gamma", type=_positive("--gamma"), default=0.5)
    prox.add_argument("--lam", type=_positive("--lam"), default=1.0)
    prox.add_argument("--a", type=_positive("--a"), default=3.7)
    prox.add_argument("--weight", type=_positive("--weight"), default=1.0)
    prox.add_argument("--lower", type=float, default=-1.0)
    prox.add_argument("--upper", type=float, default=1.0)
    prox.add_argument("--lo", type=float, default=-3.0)
    prox.add_argument("--hi", type=float, default=3.0)
    prox.add_argument("--step", type=_positive("--step"), default=0.25)
    prox.add_argument("--output", default=None, help="write here instead of stdout")
    return parser


def _out_dir(value) -> Path:
    if value is not None:
        return Path(value)
    return Path(os.environ.get("MEALOPT_OUT_DIR", "runs"))


def _cmd_solve(args) -> int:
    # every penalty and schedule flag given must take effect
    if args.epsilon0 is not None and args.algorithm != "imeal":
        return _error(f"--epsilon0 sets imeal's schedule; {args.algorithm} has none")
    if args.beta is not None and (args.horizon_k is not None
                                  or args.alpha_target is not None):
        return _error("--beta fixes the penalty; drop --horizon-K and --alpha-target")
    if args.cap_variant is not None and (args.alpha_target is None
                                         or args.horizon_k is not None):
        return _error("--cap-variant caps --alpha-target with a fixed beta; "
                      "it needs --alpha-target and no --horizon-K")
    problem = load_problem(args.input)
    try:
        if args.horizon_k is not None:
            if args.alpha_target is None:
                return _error("--horizon-K needs --alpha-target")
            plan = PenaltyPlan.horizon(args.horizon_k, args.alpha_target,
                                       gamma=args.gamma, eta=args.eta)
        else:
            beta = args.beta
            if beta is None:
                if args.alpha_target is None:
                    return _error("choose a penalty: --beta, or --alpha-target "
                                  "(optionally with --cap-variant)")
                probe = PenaltyPlan.fixed(1.0, gamma=args.gamma, eta=args.eta)
                target = args.alpha_target
                if args.cap_variant is not None:
                    target = min(target, alpha_cap(problem, probe, args.cap_variant))
                c_gamma_A = probe.c_gamma_A(problem.constraint)
                beta = beta_for_target_alpha(target, args.gamma, args.eta, c_gamma_A)
            plan = PenaltyPlan.fixed(beta, gamma=args.gamma, eta=args.eta)
        sub = "auto" if args.subproblem_path is None else _SUBPROBLEMS[args.subproblem_path]()
        config = SolverConfig(
            args.algorithm, plan, subproblem=sub,
            epsilon_schedule=(EpsilonSchedule() if args.epsilon0 is None
                              else EpsilonSchedule(args.epsilon0)),
            stop=StopRule(args.max_iters, args.stat_tol, args.feas_tol))
        trace = run(problem, config)    # set-up rejections raise before any step
    except ValueError as exc:
        return _error(exc)

    out = _out_dir(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    dest = out / f"{args.algorithm}_trace.csv"
    save_trace(trace, dest)
    print(f"{args.algorithm}: {trace.status} after {trace.n_rows - 1} steps, "
          f"{sum(trace.inner_iterations)} inner iterations; trace written to {dest}")
    return 0 if trace.status == "Converged" else 3


def _cmd_experiment(args, which: str) -> int:
    try:
        spec = (ExperimentSpec("exp2", seed=args.seed, m=args.m, n=args.n)
                if which == "exp2" else ExperimentSpec("exp1"))
        spec = replace(spec, stop=replace(spec.stop, max_iters=args.max_iters))
    except ValueError as exc:
        return _error(exc)
    out = _out_dir(args.output_dir)
    bundle = run_experiment(spec, out_dir=out)
    for row in bundle.summary:
        print(f"{row['run']}: {row['status']}"
              + (" (oscillating)" if row["oscillating"] else ""))
    for label, msg in bundle.errors.items():
        print(f"{label}: ERROR {msg}", file=sys.stderr)
    print(f"wrote {len(bundle.traces)} traces under {out / which}")
    return 0 if not bundle.errors else 3


def _cmd_check(_args) -> int:
    """Certification: closed forms against the independent oracles."""
    from .oracle import finite_diff_check, grid_prox_oracle, rate_fit
    from .problem import moreau_value_grad
    from .rng import SplitMix64

    failures = []

    def check(name, ok):
        print(f"[{'ok' if ok else 'FAIL'}] {name}")
        if not ok:
            failures.append(name)

    rng = SplitMix64(2024)
    kinds = [
        ("l1", L1(weight=0.7), 0.9),
        ("scad", SCAD(lam=1.0, a=3.7), 0.5),
        ("mcp", MCP(lam=1.0, a=3.0), 0.5),
        ("box", BoxIndicator(lower=[-1.0], upper=[1.0]), 0.9),
        ("zero", Zero(), 0.9),
    ]
    for name, g, gamma in kinds:
        # every kind is coordinate-separable (the box's one bound broadcasts),
        # so one prox call answers all 60 points
        vs = np.array([(rng.uniform() - 0.5) * 12.0 for _ in range(60)])
        wants = grid_prox_oracle(lambda t: g.value([t]), gamma, vs,
                                 half_range=8.0, step=1e-2)
        worst = np.abs(g.prox(gamma, vs) - wants).max()
        check(f"prox[{name}] vs grid oracle (max |diff| {worst:.2e})", worst <= 1e-3)

        worst_fd = 0.0
        for _ in range(50):
            v = np.array([(rng.uniform() - 0.5) * 12.0])
            env = lambda w: moreau_value_grad(g, gamma, w)[0]
            grad = moreau_value_grad(g, gamma, v)[1]
            worst_fd = max(worst_fd, finite_diff_check(env, lambda _: grad, v))
        check(f"envelope gradient[{name}] finite differences ({worst_fd:.2e})",
              worst_fd <= 1e-4)

    fit = rate_fit([0.9 ** k for k in range(60)])
    check("rate_fit recovers geometric 0.9", fit.kind == "linear"
          and abs(fit.rate - 0.9) < 0.01 and fit.r2 >= 0.999)
    fit = rate_fit([1.0] + [k ** -0.5 for k in range(1, 60)], burn_in=1)
    check("rate_fit recovers power -1/2", fit.kind == "sublinear"
          and abs(fit.rate + 0.5) < 0.05)

    from .oracle import active_set_qp_oracle

    pts, mults, _ = active_set_qp_oracle(
        np.eye(2), np.zeros(2), np.array([[1.0, 0.0]]), np.array([1.0]),
        [-np.inf, -np.inf], [np.inf, np.inf])
    check("active-set oracle on min ||x||^2/2 s.t. x1=1",
          len(pts) == 1 and np.allclose(pts[0], [1.0, 0.0], atol=1e-9))

    from .experiments import build_exp2

    prob = build_exp2(7, m=2, n=4)
    check("generated instance is feasible at x_tilde",
          prob.constraint.feasibility_probe()[0])

    if failures:
        print(f"{len(failures)} check(s) failed", file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


def _cmd_prox_table(args) -> int:
    """A header, then a `v prox(v)` row of plain floats for v = lo + i*step up
    to hi (+1e-12), from one prox call; exit 2 before it on a grid that is not
    finite or holds more than PROX_TABLE_MAX_POINTS points."""
    g = _prox_in({"kind": args.kind, "lower": [args.lower], "upper": [args.upper],
                  "weight": args.weight, "lam": args.lam, "a": args.a}, "prox-table")
    last = (args.hi + 1e-12 - args.lo) / args.step    # the last index, before rounding down
    if not (last < PROX_TABLE_MAX_POINTS and args.step < np.inf):
        return _error(f"the grid must be finite, of at most {PROX_TABLE_MAX_POINTS} points")
    grid = args.lo + np.arange(int(max(last, -1.0)) + 2) * args.step
    grid = grid[grid <= args.hi + 1e-12]
    lines = [f"# kind={args.kind} gamma={args.gamma!r}",
             *map("{!r} {!r}".format, grid.tolist(), g.prox(args.gamma, grid).tolist())]
    text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _error(exc) -> int:
    """Report a usage or schema error: exit code 2, no traceback."""
    print(f"error: {exc}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help/--version
        return int(exc.code or 0)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command in ("exp1", "exp2"):
            return _cmd_experiment(args, args.command)
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_prox_table(args)
    except (MealoptError, OSError) as exc:    # OSError: an output path it cannot write
        return _error(exc)
