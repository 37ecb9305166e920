"""Benchmark entry point: python3 mealbench/run.py --workload NAME [options].

Run from the root of a mealopt checkout. The untraced run (--trace 0) times
the workload's set-up, its solver runs and its trace writes on the
reference-speed clock of clock.py, and prints the end-to-end metrics. The traced run (--trace 1) solves once untraced and once
with spans around every layer boundary, and prints the per-layer metrics
with the tracing overhead. Both check every solver output and print, as the
last line, one JSON object with the keys correct, attempted, failed and
metrics. The per-run outcomes go to .bench_out/ for compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_THREADS = 1          # steadier than 2 on a shared 2-core machine
MIN_REPS = 7              # samples behind each set-up and write median
# A set-up or write sample repeats its work until it has taken this long and
# reports the mean; single millisecond calls fall into two modes about 1.8x
# apart on a shared machine, and a median of them flips between the modes.
MIN_SAMPLE_S = 0.25
SWEEP_NS = (20, 200, 800)
SWEEP_REPS = 3            # samples behind each set-up sweep median
KEEP_SPANS = 2000         # raw solve spans written to the traced record


class Result(NamedTuple):
    job: object
    trace: object          # None when the run raised
    seconds: float
    inner: int


class Bench:
    """One workload at one seed: set-up, solve passes, writes and checks."""

    def __init__(self, name, seed, tmp):
        from mealbench import workloads
        self.w = workloads
        self.name, self.seed, self.tmp = name, seed, Path(tmp)
        self.passes = 0
        self.attempted = 0
        self.failures: dict = {}       # (pass, label) -> failure reasons
        self.first = None              # outcome records of the first pass

    def build(self):
        """Build every Problem and config of the workload; the jobs."""
        return self.w.BUILDERS[self.name](self.seed)

    def save(self, label, trace):
        """Write one trace, as the exp1/exp2 commands do."""
        import mealopt
        mealopt.save_trace(trace, self.tmp / (label.replace("/", "__") + ".csv"))

    def bytes_written(self):
        return sum(p.stat().st_size for p in self.tmp.glob("*.csv"))

    def solve(self, jobs, counts, now=time.perf_counter):
        """Run every job once; a list of Results, to be passed to check().

        `now` is the clock the runs are timed with.
        """
        from mealopt import solvers
        results = []
        t0 = now()
        for job in jobs:
            before = counts["inner_iters"]
            try:
                trace = solvers.run(job.problem, job.config, init=job.init)
            except Exception as exc:  # a raising run is a failed run
                trace = None
                self.failures.setdefault((self.passes + 1, job.label), []).append(
                    f"raised {type(exc).__name__}: {exc}")
            t = now()
            results.append(Result(job, trace, t - t0,
                                  counts["inner_iters"] - before))
            t0 = t
        return results

    def _fail(self, label, reason):
        self.failures.setdefault((self.passes, label), []).append(reason)

    def check(self, jobs, results):
        """Check one pass's outputs; later passes must repeat the first."""
        self.passes += 1
        self.attempted += len(results)
        traces = {r.job.label: r.trace for r in results if r.trace is not None}
        for r in results:
            if r.trace is not None:
                for reason in self.w.check_run(r.job, r.trace):
                    self._fail(r.job.label, reason)
        for label, reasons in self.w.check_workload(self.name, jobs, traces).items():
            for reason in reasons:
                self._fail(label, reason)
        records = [outcome(r) for r in results]
        if self.first is None:
            self.first = records
            return
        for a, b in zip(self.first, records):       # passes must repeat exactly
            if {**a, "solve_s": 0} != {**b, "solve_s": 0}:
                self._fail(a["label"], "outcome differs from the first pass")

    @property
    def failed(self):
        return len(self.failures)


def outcome(r: Result) -> dict:
    """Per-run record: status, counts and terminal iterate (original order)."""
    rec = {"label": r.job.label, "solve_s": r.seconds, "inner_iters": r.inner}
    if r.trace is None:
        return {**rec, "status": "Raised", "converged_at": None,
                "outer_steps": 0, "x": None, "lam": None}
    x, lam = r.job.to_original(r.trace.terminal.x, r.trace.terminal.lam)
    return {**rec, "status": r.trace.status, "converged_at": r.trace.converged_at,
            "outer_steps": r.trace.n_rows - 1,
            "x": [float(v) for v in x], "lam": [float(v) for v in lam]}


# ---------------------------------------------------------------------------
# the two modes
# ---------------------------------------------------------------------------


def sample(fn, now):
    """Mean `now` seconds of one fn() call, over as many calls as fill
    MIN_SAMPLE_S of wall time."""
    calls, t0, r0 = 0, time.perf_counter(), now()
    while True:
        fn()
        calls += 1
        if time.perf_counter() - t0 >= MIN_SAMPLE_S:
            return (now() - r0) / calls


def untraced(name, seed, tmp, seconds):
    """End-to-end metrics: set-up samples, solve passes, then write samples.

    Every timing is in reference-speed seconds (see clock.py). Solve passes
    repeat while the next one still fits in `seconds` of wall time. The
    set-up and write samples each start after one untimed warm-up call.
    """
    from mealbench.clock import PROBE_REF_S, HostClock
    from mealbench.tracer import count_inner
    bench = Bench(name, seed, tmp)
    counts = {"inner_iters": 0, "inner_budget_exhausted": 0}
    pass_s, wall_s = [], []

    def write_all():
        for r in results:
            if r.trace is not None:
                bench.save(r.job.label, r.trace)

    with HostClock() as clock:
        jobs = bench.build()
        setup_s = [sample(bench.build, clock.now) for _ in range(MIN_REPS)]
        start = time.perf_counter()
        with count_inner(counts):
            while True:
                t0 = time.perf_counter()
                results = bench.solve(jobs, counts, clock.now)
                wall_s.append(time.perf_counter() - t0)
                bench.check(jobs, results)
                pass_s.append(sum(r.seconds for r in results))
                if time.perf_counter() - start + statistics.median(wall_s) > seconds:
                    break
        write_all()
        write_s = [sample(write_all, clock.now) for _ in range(MIN_REPS)]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
        "solve_s": (statistics.median(pass_s), "s", len(pass_s)),
        "write_s": (statistics.median(write_s), "s", len(write_s)),
        "peak_rss_mb": (peak_rss_mb(), "MiB", 1),
    }
    print(f"solve wall seconds {statistics.median(wall_s):.6g} (median); "
          f"probe {1e3 * statistics.median(clock.probes):.4g} ms (median of "
          f"{len(clock.probes)}) against {1e3 * PROBE_REF_S:.4g} ms at reference")
    return bench, metrics, {"pass_s": pass_s, "pass_wall_s": wall_s,
                            "setup_samples_s": setup_s,
                            "write_samples_s": write_s,
                            "probe_s": clock.probes}


def traced(name, seed, tmp):
    """Per-layer metrics from spans, and the tracing overhead."""
    from mealbench.tracer import Tracer, count_inner, instrument
    bench = Bench(name, seed, tmp)
    setup_t, solve_t, write_t = Tracer(), Tracer(keep=KEEP_SPANS), Tracer()
    with instrument(setup_t):
        jobs = bench.build()
    counts = {"inner_iters": 0, "inner_budget_exhausted": 0}
    with count_inner(counts):
        reference = bench.solve(jobs, counts)
    bench.check(jobs, reference)
    with instrument(solve_t):
        results = bench.solve(jobs, solve_t.counts)
    bench.check(jobs, results)         # outside the spans: checks call mealopt
    with instrument(write_t):
        for r in results:
            if r.trace is not None:
                bench.save(r.job.label, r.trace)
    untraced_s = sum(r.seconds for r in reference)
    traced_s = sum(r.seconds for r in results)
    traces = [r.trace for r in results if r.trace is not None]
    rows = sum(tr.n_rows for tr in traces)
    inner = solve_t.counts["inner_iters"]
    run_self = solve_t.self_s("solvers.run")
    sub_total = solve_t.total_s("envelope.solve_subproblem")

    m = {
        "solvers.run.self_s": (run_self, "s"),
        "solvers.row_us": (1e6 * run_self / max(rows, 1), "us"),
        "solvers.step.self_s": (solve_t.self_s("solvers.step"), "s"),
        "solvers.outer_steps": (rows - len(traces), "count"),
        "envelope.inner_iters": (inner, "count"),
        "envelope.inner_iter_us": (1e6 * sub_total / inner if inner else 0.0, "us"),
        "envelope.inner_budget_exhausted":
            (solve_t.counts["inner_budget_exhausted"], "count"),
    }
    for span in ("envelope.solve_subproblem", "envelope.lyapunov",
                 "envelope.potential_P", "envelope.augmented_lagrangian",
                 "envelope.context", "problem.prox.box", "problem.prox.zero",
                 "problem.objective_value", "problem.smooth_gradient",
                 "oracle.box_qp_global_min"):
        m[f"{span}.s"] = (solve_t.self_s(span), "s")
        m[f"{span}.calls"] = (solve_t.calls(span), "count")
    m["experiments.build_exp2.s"] = (setup_t.self_s("experiments.build_exp2"), "s")
    m["rng.uniform_array.s"] = (setup_t.self_s("rng.uniform_array"), "s")
    m["fileio.save_trace.s"] = (write_t.self_s("fileio.save_trace"), "s")
    m["fileio.bytes_written"] = (bench.bytes_written(), "bytes")
    m.update(setup_sweep())
    m["trace.solve_s"] = (traced_s, "s")
    m["trace.untraced_solve_s"] = (untraced_s, "s")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    m["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    m["trace.self_sum_s"] = (sum(a[2] for a in solve_t.stats.values()), "s")
    metrics = {k: (v, u, 1) for k, (v, u) in m.items()}
    return bench, metrics, {"span_totals": dict(sorted(solve_t.stats.items())),
                            "first_spans": solve_t.spans}


def setup_sweep():
    """Median build_exp2 and EnvelopeContext seconds at several sizes."""
    import mealopt
    from mealopt.envelope import EnvelopeContext
    from mealopt.experiments import exp2_configs
    out = {}
    for n in SWEEP_NS:
        build, ctx = [], []
        for _ in range(SWEEP_REPS):
            t0 = time.perf_counter()
            p = mealopt.build_exp2(42, 5, n)
            build.append(time.perf_counter() - t0)
        cfg = exp2_configs(p)[0][1]
        for _ in range(SWEEP_REPS):
            t0 = time.perf_counter()
            EnvelopeContext(p, cfg.plan, cfg.subproblem)
            ctx.append(time.perf_counter() - t0)
        out[f"experiments.build_exp2.n{n}_s"] = (statistics.median(build), "s")
        out[f"envelope.context.n{n}_s"] = (statistics.median(ctx), "s")
    return out


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(cpu):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0,
                    help="0 runs the acceptance instances unchanged")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="solve passes repeat while the next one fits")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse(argv)
    if not (SRC / "mealopt" / "__init__.py").is_file():
        print(f"error: no mealopt sources at {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(ROOT)]
    from mealbench.clock import pin
    from mealbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {WORKLOADS}",
              file=sys.stderr)
        return 2

    cpu = pin()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if args.trace:
            bench, metrics, extra = traced(args.workload, args.seed, tmp)
        else:
            bench, metrics, extra = untraced(args.workload, args.seed, tmp,
                                             args.seconds)

    for (n, label), reasons in bench.failures.items():
        for reason in reasons:
            print(f"FAIL pass {n} {label}: {reason}")
    for rec in bench.first:
        print(f"run {rec['label']}: {rec['status']} steps={rec['outer_steps']} "
              f"inner={rec['inner_iters']} converged_at={rec['converged_at']} "
              f"{rec['solve_s']:.4f}s")
    for name, (value, unit, n) in metrics.items():
        print(f"{name} {value:.6g} {unit} (n={n})")
    print(f"fail_frac {bench.failed / bench.attempted:.6g} "
          f"({bench.failed} of {bench.attempted} runs)")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment(cpu), "runs": bench.first,
              "failures": [{"pass": n, "label": label, "reasons": reasons}
                           for (n, label), reasons in bench.failures.items()],
              "metrics": {k: {"value": v, "unit": u, "samples": n}
                          for k, (v, u, n) in metrics.items()}, **extra}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
